package gossip

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"diffgossip/internal/rng"
)

// Engine runs synchronous scalar push-sum gossip: every node carries one
// (Y, G) pair about a single subject (e.g. the reputation of one node j), and
// optionally a Count mass used by Algorithm 2 to learn the number of raters.
//
// The step semantics follow the paper's Algorithm 1 exactly:
//
//  1. each active node splits its pair into k_i+1 equal shares, keeps one,
//     and pushes one to each of k_i random distinct neighbours;
//  2. every node sums the shares it received (its own share always arrives);
//  3. a node that heard from at least one other node and whose ratio moved
//     by at most ξ announces convergence to its neighbours (sticky);
//  4. a node stops pushing once it and all its neighbours have announced.
//
// The run ends when every node has stopped, or MaxSteps elapses. Loss, link
// faults and churn (see churn.go) run on the same Step as a fault-free
// campaign.
type Engine struct {
	cfg   Config
	n     int
	ks    []int // installed fan-outs, the input of the route table
	src   *rng.Source
	steps int

	// cur holds each node's masses; next is the buffer Step sums the
	// step's shares into before the two swap. counted marks count gossip
	// on: without it every C stays 0 and Counts are not reported.
	cur, next []mass
	counted   bool
	u         []float64 // previous-step ratio per node (Sentinel when G=0)

	// Route table, rebuilt by setFanouts whenever the fan-outs are: node i
	// pushes to k_i of its neighbours tgt[routes[i].off:routes[i].end],
	// keeping routes[i].inv = 1/(k_i+1) of each mass.
	routes []route
	tgt    []int32

	selfConv []bool // node announced its own convergence
	stopped  []bool // node and all neighbours converged; no longer pushes
	down     []bool // node crashed or left; holds no mass, drops pushes

	// Mass accounting for churn scenarios (see MassLedger): base is the
	// construction-time total, injected accumulates mass added by
	// Rejoin/AddNode, lost accumulates mass destroyed by crashes and
	// heirless leaves. MassY() ≈ base.Y + injected.Y − lost.Y always.
	base, injected, lost                Pair
	baseCount, injectedCount, lostCount float64

	// linkFault, when set, drops any push for which it returns true (the
	// sender re-absorbs the share, as with probabilistic loss). It models
	// partitions and lossy links in churn scenarios.
	linkFault func(from, to int) bool

	// nbrs holds the targets of one node's sampled fan-out (-1 for a failed
	// push), reused so steady-state Step never touches the heap.
	nbrs []int

	msgs Messages

	// Step's own state: unconv[i] counts unconverged, present nodes in i's
	// closed neighbourhood (i stops at 0), nUnconv those with a neighbour
	// (the run ends at 0); nDown counts departed nodes. synced: unconv
	// agrees with selfConv and down, and u[i] is cur[i]'s ratio. A write to
	// node state or fan-outs outside Step clears it; the next step rebuilds.
	unconv  []int
	flipped []int
	nUnconv int
	nDown   int
	synced  bool
}

// mass is one node's push-sum state in a single 32-byte record, so a push
// touches one cache line: value Y, weight G, rater count C (Algorithm 2's
// third mass, 0 without count gossip) and heard, the number of pushes from
// other nodes summed into the record this step.
type mass struct {
	Y, G, C float64
	heard   uint32
}

// pair returns the record's (Y, G).
func (m *mass) pair() Pair { return Pair{m.Y, m.G} }

// ratio returns Y/G, or Sentinel when G == 0.
func (m *mass) ratio() float64 { return m.pair().ratio() }

// route is one node's entry in the route table: its neighbours
// tgt[off:end] and the share inv = 1/(k+1) it keeps and sends. inv is 0.5
// exactly when k = 1; a larger fan-out is read from ks.
type route struct {
	inv      float64
	off, end int32
}

// Result summarises a finished run.
type Result struct {
	// Steps is the number of gossip steps executed.
	Steps int
	// Converged reports whether every node stopped before MaxSteps.
	Converged bool
	// Estimates is each node's final ratio Y/G (0 where G is still 0).
	Estimates []float64
	// Counts is each node's Count/G estimate (nil when count gossip was
	// not enabled).
	Counts []float64
	// Messages is the full transmission tally.
	Messages Messages
}

// NewEngine validates cfg and initialises per-node state from the initial
// value and weight vectors: node i starts with pair (y0[i], g0[i]).
//
// The setup cost of the degree-exchange round (every node pushes its degree
// to all neighbours so that k_i can be computed) is charged to
// Messages.Setup.
func NewEngine(cfg Config, y0, g0 []float64) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Graph.N()
	e := &Engine{
		cfg:      cfg,
		n:        n,
		src:      new(rng.Source),
		cur:      make([]mass, n),
		next:     make([]mass, n),
		u:        make([]float64, n),
		selfConv: make([]bool, n),
		stopped:  make([]bool, n),
		down:     make([]bool, n),
		unconv:   make([]int, n),
		flipped:  make([]int, 0, n),
	}
	e.setFanouts(cfg.fanouts())
	if err := e.Reset(cfg.Seed, y0, g0); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset rewinds the engine to the state NewEngine would produce over (seed,
// y0, g0), reusing every buffer — NewEngine itself is "allocate, then Reset",
// so a reset engine is indistinguishable from a fresh one by construction:
// the randomness stream, step and message tallies (the degree exchange is
// charged again), convergence flags, departed-node marks, mass ledgers and
// link-fault predicate all start over. core.GlobalSubjects leans on this to
// run thousands of per-subject campaigns on one engine without allocating.
// Loss (SetLossProb), the floor (SetMinSteps) and the topology (nodes from
// AddNode, fan-outs from construction or RefreshFanouts) outlive a Reset.
// Engines with count gossip enabled cannot be Reset; after an error the
// engine is half-reset and must be Reset again before use.
func (e *Engine) Reset(seed uint64, y0, g0 []float64) error {
	if e.counted {
		return fmt.Errorf("gossip: Reset with count gossip enabled")
	}
	if len(y0) != e.n || len(g0) != e.n {
		return fmt.Errorf("gossip: initial vectors have length %d/%d, want %d", len(y0), len(g0), e.n)
	}
	e.synced = false
	e.cfg.Seed = seed
	e.src.Reseed(seed)
	e.steps = 0
	e.msgs = Messages{}
	e.nDown = 0
	e.base, e.injected, e.lost = Pair{}, Pair{}, Pair{}
	e.linkFault = nil
	for i := 0; i < e.n; i++ {
		if g0[i] < 0 {
			return fmt.Errorf("gossip: negative initial weight g0[%d]=%v", i, g0[i])
		}
		e.cur[i] = mass{Y: y0[i], G: g0[i]}
		e.u[i] = e.cur[i].ratio()
		e.selfConv[i], e.stopped[i], e.down[i] = false, false, false
		e.base.add(e.cur[i].pair())
		// Degree exchange: one push per incident edge direction.
		e.msgs.Setup += e.cfg.Graph.Degree(i)
	}
	return nil
}

// EnableCountGossip attaches the third gossip component of Algorithm 2:
// count0[i] is 1 for raters of the subject and 0 otherwise. Must be called
// before Run.
func (e *Engine) EnableCountGossip(count0 []float64) error {
	if len(count0) != e.n {
		return fmt.Errorf("gossip: count vector length %d, want %d", len(count0), e.n)
	}
	if e.steps > 0 {
		return fmt.Errorf("gossip: EnableCountGossip after stepping")
	}
	e.counted = true
	for i, c := range count0 {
		e.cur[i].C = c
		e.baseCount += c
	}
	return nil
}

// ChargeSetup adds extra setup messages (e.g. Algorithm 2's direct-feedback
// pushes to neighbours) to the tally.
func (e *Engine) ChargeSetup(n int) { e.msgs.Setup += n }

// Steps returns the number of steps executed so far.
func (e *Engine) Steps() int { return e.steps }

// Messages returns the transmission tally accumulated so far.
func (e *Engine) Messages() Messages { return e.msgs }

// MassY returns the total Y mass in the network; it is invariant across
// steps (mass conservation, Proposition A.1).
func (e *Engine) MassY() float64 {
	total := 0.0
	for i := range e.cur {
		total += e.cur[i].Y
	}
	return total
}

// MassG returns the total G mass; also invariant.
func (e *Engine) MassG() float64 {
	total := 0.0
	for i := range e.cur {
		total += e.cur[i].G
	}
	return total
}

// Estimate returns node i's current ratio (0 while its G is 0).
func (e *Engine) Estimate(i int) float64 {
	if e.cur[i].G == 0 {
		return 0
	}
	return e.cur[i].Y / e.cur[i].G
}

// Estimates returns every node's current ratio.
func (e *Engine) Estimates() []float64 {
	out := make([]float64, e.n)
	for i := range out {
		out[i] = e.Estimate(i)
	}
	return out
}

// Step executes one synchronous gossip step and returns true while the
// protocol is still running (some node has not stopped).
//
// It is the engine's only step, churn or not. Loss, a link fault or a
// departed node make a step faulty (decided once, at its start), which adds
// three cases to the same loop: a departed node holds and sends nothing; once
// a node's targets are drawn, each of its pushes takes a loss draw, and a
// push that is lost, addressed to a departed node or across a faulted link
// fails like a lost packet — the sender re-absorbs the share at that point in
// its sum and the push counts as Lost; and a departed node, whose ratio is
// the sentinel and whose flag never flips, counts as converged in the stop
// rule.
//
// Each node is one mass record and one route: a push adds the three shares
// Y, G and C (C is 0 without count gossip, so it rides every step) and bumps
// heard in one record of the next buffer, and the targets come from the
// route table's int32 ranges, not from the graph. The three phases — push,
// collect, stop rule — are methods of their own, so each loop keeps its
// state in registers. In the push loop the common push (k = 1, no faults)
// is one inline draw with Intn's fast path spelled out, and every other case
// goes through one call, aim. The step skips the per-push division, a separate pass to
// zero the next buffer (collect zeroes each record it retires) and the full
// stop-rule scan (only flipped neighbourhoods are updated). Every
// floating-point operation runs in the textbook order:
// TestStepMatchesReference holds the step bit for bit to the textbook step,
// which the test keeps.
func (e *Engine) Step() bool {
	// Every node that pushes sends at least one push (k ≥ 1); aim tallies
	// the rest.
	active := e.push(e.cfg.LossProb > 0 || e.linkFault != nil || e.nDown > 0)
	e.msgs.ActiveNodeSteps += active
	e.msgs.Gossip += active
	e.steps++
	e.cur, e.next = e.next, e.cur // a departed node's record stays zero
	flipped := e.collect()

	// Stop rule: each flip moves ±1 through its closed neighbourhood's
	// counts. A rebuild starts from "all stopped" and flips every unconverged
	// node; a departed node counts as converged (ack-timeout semantics).
	if !e.synced {
		clear(e.unconv)
		for i := range e.stopped {
			e.stopped[i] = true
		}
		e.nUnconv, flipped = 0, flipped[:0]
		for i, c := range e.selfConv {
			if !c && !e.down[i] {
				flipped = append(flipped, i)
			}
		}
		e.synced = true
	}
	e.stopRule(flipped)
	return e.nUnconv > 0
}

// push is Step's push phase: every present node sums its kept share, and
// each share it sends, into next. It reports how many nodes pushed.
func (e *Engine) push(faulty bool) (active int) {
	routes := e.routes[:e.n]
	cur, next, stopped := e.cur[:len(routes)], e.next[:len(routes)], e.stopped[:len(routes)]
	tgt, src := e.tgt, e.src
	for i, r := range routes {
		if faulty && e.down[i] {
			continue
		}
		off, d := int(r.off), int(r.end-r.off)
		if stopped[i] || d == 0 {
			m, self := &cur[i], &next[i]
			self.Y += m.Y
			self.G += m.G
			self.C += m.C
			continue
		}
		active++
		// Targets first. The common push, k = 1 without faults, is one
		// inline draw: src.Intn(d) with its fast path spelled out. Every
		// other case goes through aim, the loop's only call site, so that
		// little on the common path is spilled around a call.
		t, heard := i, uint32(1)
		if r.inv == 0.5 { // k = 1
			hi, lo := bits.Mul64(src.Uint64(), uint64(d))
			if lo < uint64(d) {
				hi = src.Reject(uint64(d), hi, lo)
			}
			t = int(tgt[off+int(hi)])
		}
		if faulty || r.inv != 0.5 {
			t, heard = e.aim(i, t, tgt[off:off+d], faulty)
		}
		// The conversions keep each share one rounded product, never fused
		// into the sums below.
		m, self := &cur[i], &next[i]
		sy, sg, sc := float64(m.Y*r.inv), float64(m.G*r.inv), float64(m.C*r.inv)
		self.Y += sy
		self.G += sg
		self.C += sc
		if t >= 0 {
			to := &next[t]
			to.heard += heard
			to.Y += sy
			to.G += sg
			to.C += sc
			continue
		}
		for _, t := range e.nbrs {
			to, heard := self, uint32(0)
			if t >= 0 {
				to, heard = &next[t], 1
			}
			to.heard += heard
			to.Y += sy
			to.G += sg
			to.C += sc
		}
	}
	return active
}

// aim finishes the targets of node i's push in the uncommon cases, and
// returns the one target with its heard increment. A drawn k = 1 target t
// under faults is checked: a failed push goes to i, unheard — no ack
// arrives, so the sender re-absorbs the share (paper §5.3). A fan-out k > 1
// is sampled into e.nbrs as targets, -1 for a failed push, its pushes past
// the first are tallied, and the returned target is -1.
func (e *Engine) aim(i, t int, nbrs []int32, faulty bool) (int, uint32) {
	if e.routes[i].inv == 0.5 {
		if e.fails(i, t) {
			e.msgs.Lost++
			return i, 0
		}
		return t, 1
	}
	e.nbrs = e.src.SampleInto(e.nbrs[:0], len(nbrs), e.ks[i])
	for x, p := range e.nbrs {
		to := int(nbrs[p])
		if faulty && e.fails(i, to) {
			e.msgs.Lost++
			to = -1
		}
		e.nbrs[x] = to
	}
	e.msgs.Gossip += len(e.nbrs) - 1
	return -1, 0
}

// fails reports whether a push from → to fails: it is lost (the loss draw,
// taken first whenever loss is on), addressed to a departed node, or
// crosses a faulted link.
func (e *Engine) fails(from, to int) bool {
	return e.cfg.LossProb > 0 && e.src.Bool(e.cfg.LossProb) || e.down[to] || e.linkFault != nil && e.linkFault(from, to)
}

// collect is Step's collect phase, run on the swapped-in buffer: each node's
// ratio and convergence flag. It zeroes the retired buffer for the next
// step's sums and returns the nodes whose flag flipped.
func (e *Engine) collect() []int {
	cur := e.cur[:e.n]
	stale, u, selfConv, stopped := e.next[:len(cur)], e.u[:len(cur)], e.selfConv[:len(cur)], e.stopped[:len(cur)]
	flipped := e.flipped[:len(cur)]
	eps, floor := e.cfg.Epsilon, b2u(e.steps >= e.cfg.MinSteps)
	nf := 0
	for i := range cur {
		stale[i] = mass{}
		m := &cur[i]
		r := m.ratio()
		// math.Abs and b2u do not branch. A departed node's zero record
		// gives the sentinel ratio and never satisfies G > 0, so it keeps
		// u = Sentinel and its flag down.
		delta := math.Abs(r - u[i])
		conv := floor&b2u(delta <= eps)&b2u(m.G > 0)&(b2u(selfConv[i])|b2u(stopped[i])|b2u(m.heard > 0)) != 0
		// i is written at the list's end every time and kept only if its
		// flag flipped (nf ≤ i, so the slot exists).
		flipped[nf] = i
		nf += int(b2u(conv != selfConv[i]))
		selfConv[i] = conv
		u[i] = r
	}
	// Each flip is announced to every neighbour.
	for _, f := range flipped[:nf] {
		e.msgs.Announce += int(e.routes[f].end - e.routes[f].off)
	}
	return flipped[:nf]
}

// stopRule moves each flip's ±1 through its closed neighbourhood's unconv
// counts; a node stops when its count reaches 0.
func (e *Engine) stopRule(flipped []int) {
	routes, tgt, unconv, stopped, selfConv := e.routes, e.tgt, e.unconv, e.stopped, e.selfConv
	for _, f := range flipped {
		nbrs := tgt[routes[f].off:routes[f].end]
		if len(nbrs) == 0 {
			continue // an isolated node blocks nobody, itself included
		}
		d := 1 - 2*int(b2u(selfConv[f])) // +1 if f revoked its flag, -1 if it announced
		e.nUnconv += d
		unconv[f] += d
		stopped[f] = unconv[f] == 0
		for _, v := range nbrs {
			unconv[v] += d
			stopped[v] = unconv[v] == 0
		}
	}
	e.flipped = flipped
}

// b2u is 1 for true and 0 for false, compiled to a flag move, not a branch.
func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// setFanouts installs the fan-outs ks and rebuilds the route table from the
// graph's current adjacency, reusing its buffers.
func (e *Engine) setFanouts(ks []int) {
	g := e.cfg.Graph
	e.ks, e.synced = ks, false
	e.routes = slices.Grow(e.routes[:0], len(ks))
	e.tgt = slices.Grow(e.tgt[:0], 2*g.M())
	for i, k := range ks {
		if len(e.tgt)+g.Degree(i) > math.MaxInt32 {
			panic("gossip: route table exceeds int32 offsets")
		}
		off := int32(len(e.tgt))
		for _, v := range g.Neighbors(i) {
			e.tgt = append(e.tgt, int32(v))
		}
		e.routes = append(e.routes, route{inv: 1 / float64(k+1), off: off, end: int32(len(e.tgt))})
	}
}

// neighbors returns node i's neighbours from the route table.
func (e *Engine) neighbors(i int) []int32 {
	return e.tgt[e.routes[i].off:e.routes[i].end]
}

// runToStop drives Step until every node stops or the step budget is
// exhausted, and reports whether the run converged within it.
func (e *Engine) runToStop() bool {
	budget := e.cfg.maxSteps()
	running := true
	for running && e.steps < budget {
		running = e.Step()
	}
	return !running
}

// Run drives Step until every node stops or the step budget is exhausted.
func (e *Engine) Run() Result {
	converged := e.runToStop()
	res := Result{
		Steps:     e.steps,
		Converged: converged,
		Estimates: e.Estimates(),
		Messages:  e.msgs,
	}
	if e.counted {
		res.Counts = make([]float64, e.n)
		for i := range res.Counts {
			if m := &e.cur[i]; m.G > 0 {
				res.Counts[i] = m.C / m.G
			}
		}
	}
	return res
}

// RunInto drives Step to completion like Run but writes the final estimates
// into dst (length N) instead of assembling a Result; together with Reset
// this keeps a reused campaign engine free of steady-state allocations. It
// reports the step count and whether the run converged within the budget.
func (e *Engine) RunInto(dst []float64) (steps int, converged bool) {
	converged = e.runToStop()
	for i := range dst {
		dst[i] = e.Estimate(i)
	}
	return e.steps, converged
}

// Average is a convenience wrapper: it gossips the values xs with unit
// weights everywhere and returns the per-node estimates of the global mean
// after convergence.
func Average(cfg Config, xs []float64) (Result, error) {
	g0 := make([]float64, len(xs))
	for i := range g0 {
		g0[i] = 1
	}
	e, err := NewEngine(cfg, xs, g0)
	if err != nil {
		return Result{}, err
	}
	return e.Run(), nil
}
