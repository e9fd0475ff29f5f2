package gossip

import (
	"fmt"
	"math"
	"math/bits"

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
	ks    []int
	src   *rng.Source
	steps int

	cur   []Pair    // current pair per node
	count []float64 // optional third mass (rater count), nil if unused
	u     []float64 // previous-step ratio per node (Sentinel when G=0)

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

	// scratch buffers reused across steps; nbrs holds each node's sampled
	// fan-out targets so steady-state Step never touches the heap
	next      []Pair
	nextCount []float64
	extRecv   []int
	nbrs      []int

	msgs Messages

	// Step's own state: inv[i] = 1/(k_i+1); unconv[i] counts unconverged,
	// present nodes in i's closed neighbourhood (i stops at 0), nUnconv those
	// with a neighbour (the run ends at 0); nDown counts departed nodes.
	// synced: unconv agrees with selfConv and down, and u[i] is cur[i]'s
	// ratio. A write to node state or fan-outs outside Step clears it; the
	// next step rebuilds.
	inv     []float64
	unconv  []int
	flipped []int
	nUnconv int
	nDown   int
	synced  bool
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
		cur:      make([]Pair, n),
		u:        make([]float64, n),
		selfConv: make([]bool, n),
		stopped:  make([]bool, n),
		down:     make([]bool, n),
		next:     make([]Pair, n),
		extRecv:  make([]int, n),
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
	if e.count != nil {
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
		e.cur[i] = Pair{y0[i], g0[i]}
		e.u[i] = e.cur[i].ratio()
		e.selfConv[i], e.stopped[i], e.down[i] = false, false, false
		e.base.add(e.cur[i])
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
	e.count = append([]float64(nil), count0...)
	e.nextCount = make([]float64, e.n)
	for _, c := range count0 {
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
	for _, p := range e.cur {
		total += p.Y
	}
	return total
}

// MassG returns the total G mass; also invariant.
func (e *Engine) MassG() float64 {
	total := 0.0
	for _, p := range e.cur {
		total += p.G
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
// The loop skips the per-push division, Floyd's sampler for k = 1 (drawing
// its one target inline, with Intn's fast path spelled out and only the rare
// rejection a call), a stopped node's division when its pair is unchanged
// (its ratio is u[i]), and the full stop-rule scan (only flipped
// neighbourhoods are updated). The count mass, when there is one, moves with
// the pair: cnt[i]*inv[i] to the node and to each target, all of cnt[i] kept
// by a stopped or isolated node. TestStepMatchesReference holds it bit for
// bit to the textbook step, which the test keeps.
func (e *Engine) Step() bool {
	// Locals, not fields: the loops' stores through e would force reloads.
	// That holds for the generator state too, so the push loop draws from a
	// copy, written back before any draw through e.src.
	g, n, synced := e.cfg.Graph, e.n, e.synced
	cur, next, recv, stopped := e.cur[:n], e.next[:n], e.extRecv[:n], e.stopped[:n]
	inv, ks := e.inv[:n], e.ks[:n]
	cnt, nextCnt := e.count, e.nextCount
	faulty := e.cfg.LossProb > 0 || e.linkFault != nil || e.nDown > 0
	clear(next)
	clear(recv)
	clear(nextCnt)
	active, pushes := 0, 0
	src := *e.src
	for i := range cur {
		nbrs := g.Neighbors(i)
		if faulty && e.down[i] {
			continue
		}
		if stopped[i] || len(nbrs) == 0 {
			next[i].add(cur[i])
			if cnt != nil {
				nextCnt[i] += cnt[i]
			}
			continue
		}
		active++
		share := cur[i].scale(inv[i])
		next[i].add(share)
		var cshare float64
		if cnt != nil {
			cshare = cnt[i] * inv[i]
			nextCnt[i] += cshare
		}
		if k := ks[i]; k == 1 {
			// src.Intn(len(nbrs)) with its fast path spelled out.
			d := uint64(len(nbrs))
			hi, lo := bits.Mul64(src.Uint64(), d)
			if lo < d {
				hi = src.Reject(d, hi, lo)
			}
			t := nbrs[hi]
			pushes++
			if faulty && (e.cfg.LossProb > 0 && src.Bool(e.cfg.LossProb) || e.cut(i, t)) {
				// No ack arrives, so the sender re-absorbs the share (paper
				// §5.3): it goes to i, which does not count it as heard.
				e.msgs.Lost++
				t = i
			} else {
				recv[t]++
			}
			next[t].add(share)
			if cnt != nil {
				nextCnt[t] += cshare
			}
		} else {
			*e.src = src
			e.nbrs = g.AppendRandomNeighbors(e.nbrs[:0], i, k, e.src)
			src = *e.src
			pushes += len(e.nbrs)
			for _, t := range e.nbrs {
				if faulty && (e.cfg.LossProb > 0 && src.Bool(e.cfg.LossProb) || e.cut(i, t)) {
					e.msgs.Lost++
					t = i
				} else {
					recv[t]++
				}
				next[t].add(share)
				if cnt != nil {
					nextCnt[t] += cshare
				}
			}
		}
	}
	*e.src = src
	e.msgs.ActiveNodeSteps += active
	e.msgs.Gossip += pushes

	e.steps++ // collect: swap next in (a departed node's slot stays zero)
	e.cur, e.next = e.next, e.cur
	e.count, e.nextCount = e.nextCount, e.count
	cur, u, selfConv, flipped := e.cur[:n], e.u[:n], e.selfConv[:n], e.flipped[:0]
	eps, floor := e.cfg.Epsilon, e.steps >= e.cfg.MinSteps
	for i := range cur {
		r := u[i]
		if !synced || !stopped[i] || recv[i] > 0 {
			r = cur[i].ratio()
		}
		// math.Abs and b2u do not branch on what varies node to node. A
		// departed node's zero pair gives the sentinel ratio and never
		// satisfies G > 0, so it keeps u = Sentinel and its flag down.
		delta := math.Abs(r - u[i])
		conv := floor && b2u(delta <= eps)&b2u(cur[i].G > 0)&(b2u(selfConv[i])|b2u(stopped[i])|b2u(recv[i] > 0)) != 0
		if conv != selfConv[i] {
			selfConv[i] = conv
			flipped = append(flipped, i)
			e.msgs.Announce += len(g.Neighbors(i))
		}
		u[i] = r
	}

	// Stop rule: each flip moves ±1 through its closed neighbourhood's
	// counts. A rebuild starts from "all stopped" and flips every unconverged
	// node; a departed node counts as converged (ack-timeout semantics).
	if !synced {
		clear(e.unconv)
		for i := range stopped {
			stopped[i] = true
		}
		e.nUnconv, flipped = 0, flipped[:0]
		for i, c := range selfConv {
			if !c && !e.down[i] {
				flipped = append(flipped, i)
			}
		}
		e.synced = true
	}
	for _, f := range flipped {
		nbrs := g.Neighbors(f)
		if len(nbrs) == 0 {
			continue // an isolated node blocks nobody, itself included
		}
		d := 1 - 2*int(b2u(selfConv[f])) // +1 if f revoked its flag, -1 if it announced
		e.nUnconv += d
		e.unconv[f] += d
		stopped[f] = e.unconv[f] == 0
		for _, v := range nbrs {
			e.unconv[v] += d
			stopped[v] = e.unconv[v] == 0
		}
	}
	e.flipped = flipped
	return e.nUnconv > 0
}

// cut reports whether a push from → to fails without a loss draw: it is
// addressed to a departed node, or crosses a faulted link.
func (e *Engine) cut(from, to int) bool {
	return e.down[to] || e.linkFault != nil && e.linkFault(from, to)
}

// b2u is 1 for true and 0 for false, compiled to a flag move, not a branch.
func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// setFanouts installs the fan-outs and their 1/(k+1) shares.
func (e *Engine) setFanouts(ks []int) {
	e.ks, e.inv, e.synced = ks, make([]float64, len(ks)), false
	for i, k := range ks {
		e.inv[i] = 1 / float64(k+1)
	}
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
	if e.count != nil {
		res.Counts = make([]float64, e.n)
		for i := 0; i < e.n; i++ {
			if e.cur[i].G > 0 {
				res.Counts[i] = e.count[i] / e.cur[i].G
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
