package gossip

import (
	"fmt"

	"diffgossip/internal/rng"
)

// This file is the churn surface of the two gossip engines: the hooks the
// deterministic scenario engine (internal/scenario) uses to drive a run
// through node crashes, graceful leaves, whitewashing rejoins, overlay
// joins, mid-run loss changes and link-level faults. Every hook is
// deterministic: the only randomness it may consume comes from the engine's
// own seeded stream, so a scripted run replays bit-identically from its
// seed.
//
// Mass semantics under churn follow the push-sum invariant the paper's
// Proposition A.1 rests on:
//
//   - a crash destroys exactly the mass the node held at that instant
//     (recorded in the lost ledger);
//   - a graceful leave hands the node's entire mass to one random alive
//     neighbour first, so no mass is destroyed (a leave with no alive
//     neighbour degrades to a crash);
//   - a rejoin or join injects exactly the newcomer's initial mass
//     (recorded in the injected ledger);
//   - pushes addressed to departed nodes or across faulted links fail like
//     lost packets — the sender re-absorbs the share, conserving mass.
//
// Total mass therefore always satisfies  current = base + injected − lost
// up to floating-point accumulation error, which is the invariant the
// scenario engine checks every round.

// Down reports whether node i has crashed or left and not rejoined.
func (e *Engine) Down(i int) bool { return e.down[i] }

// Crash removes node i abruptly: the mass it holds at this instant is
// destroyed (tallied in the lost ledger) and the node stops participating
// until Rejoin.
func (e *Engine) Crash(i int) error {
	if i < 0 || i >= e.n {
		return fmt.Errorf("gossip: crash node %d out of range [0,%d)", i, e.n)
	}
	if e.down[i] {
		return fmt.Errorf("gossip: crash node %d already down", i)
	}
	e.synced = false
	e.lost.add(e.cur[i])
	e.cur[i] = Pair{}
	if e.count != nil {
		e.lostCount += e.count[i]
		e.count[i] = 0
	}
	e.down[i] = true
	e.nDown++
	e.selfConv[i] = false
	e.stopped[i] = false
	e.u[i] = Sentinel
	return nil
}

// Leave removes node i gracefully: it hands its entire mass to one uniformly
// random alive neighbour (one gossip push) and then departs. With no alive
// neighbour the mass cannot be handed off and the leave degrades to a crash.
func (e *Engine) Leave(i int) error {
	if i < 0 || i >= e.n {
		return fmt.Errorf("gossip: leave node %d out of range [0,%d)", i, e.n)
	}
	if e.down[i] {
		return fmt.Errorf("gossip: leave node %d already down", i)
	}
	h := e.pickAliveNeighbor(i)
	if h < 0 {
		return e.Crash(i)
	}
	e.synced = false
	e.msgs.Gossip++
	e.cur[h].add(e.cur[i])
	e.cur[i] = Pair{}
	if e.count != nil {
		e.count[h] += e.count[i]
		e.count[i] = 0
	}
	// The heir's held estimate just moved; its convergence flag is
	// re-evaluated from the new state on the next step (the announcement
	// protocol is revocable), but its last-seen ratio must reflect the
	// handover so the next delta is measured from the true current state.
	e.down[i] = true
	e.nDown++
	e.selfConv[i] = false
	e.stopped[i] = false
	e.u[i] = Sentinel
	return nil
}

// pickAliveNeighbor returns a uniformly random alive neighbour of i drawn
// from the engine's stream, or -1 if every neighbour is down. It consumes
// exactly one draw when at least one alive neighbour exists, scanning from a
// random starting offset so the choice stays uniform without allocating.
func (e *Engine) pickAliveNeighbor(i int) int {
	return pickAlive(e.cfg.Graph.Neighbors(i), e.down, e.src)
}

func pickAlive(nbrs []int, down []bool, src *rng.Source) int {
	alive := 0
	for _, v := range nbrs {
		if !down[v] {
			alive++
		}
	}
	if alive == 0 {
		return -1
	}
	pick := src.Intn(alive)
	for _, v := range nbrs {
		if !down[v] {
			if pick == 0 {
				return v
			}
			pick--
		}
	}
	return -1 // unreachable
}

// Rejoin brings a departed node back with fresh state (y, g) — a whitewash
// when g carries new weight. The injected mass is tallied in the ledger; any
// rater-count state starts at zero.
func (e *Engine) Rejoin(i int, y, g float64) error {
	if i < 0 || i >= e.n {
		return fmt.Errorf("gossip: rejoin node %d out of range [0,%d)", i, e.n)
	}
	if !e.down[i] {
		return fmt.Errorf("gossip: rejoin node %d is not down", i)
	}
	if g < 0 {
		return fmt.Errorf("gossip: rejoin node %d with negative weight %v", i, g)
	}
	e.synced = false
	e.down[i] = false
	e.nDown--
	e.cur[i] = Pair{y, g}
	e.injected.add(e.cur[i])
	e.u[i] = e.cur[i].ratio()
	e.selfConv[i] = false
	e.stopped[i] = false
	return nil
}

// AddNode grows the engine by one node carrying initial mass (y, g). The
// graph must already contain the new node (its id is the previous N); callers
// add it with its overlay edges first — typically graph.AttachPreferential —
// then call AddNode, then RefreshFanouts so the changed degrees take effect.
// The newcomer's degree exchange (one push per incident edge direction, both
// ways) is charged to Messages.Setup.
func (e *Engine) AddNode(y, g float64) (int, error) {
	if e.cfg.Graph.N() != e.n+1 {
		return 0, fmt.Errorf("gossip: AddNode needs the graph grown by exactly one node (graph N=%d, engine N=%d)", e.cfg.Graph.N(), e.n)
	}
	if g < 0 {
		return 0, fmt.Errorf("gossip: AddNode with negative weight %v", g)
	}
	i := e.n
	e.n++
	e.cur = append(e.cur, Pair{y, g})
	e.injected.add(Pair{y, g})
	e.u = append(e.u, Pair{y, g}.ratio())
	e.selfConv = append(e.selfConv, false)
	e.stopped = append(e.stopped, false)
	e.down = append(e.down, false)
	e.next = append(e.next, Pair{})
	e.extRecv = append(e.extRecv, 0)
	e.unconv = append(e.unconv, 0)
	e.setFanouts(append(e.ks, 1)) // placeholder until RefreshFanouts
	if e.count != nil {
		e.count = append(e.count, 0)
		e.nextCount = append(e.nextCount, 0)
	}
	e.msgs.Setup += 2 * e.cfg.Graph.Degree(i)
	return i, nil
}

// RefreshFanouts recomputes every node's push fan-out from the current graph
// degrees — the degree re-exchange a real deployment runs after membership
// changes. Call it after the overlay gains nodes or edges.
func (e *Engine) RefreshFanouts() { e.setFanouts(e.cfg.fanouts()) }

// SetLossProb changes the per-push loss probability mid-run (a churn
// scenario's loss schedule).
func (e *Engine) SetLossProb(p float64) error {
	if p < 0 || p >= 1 {
		return fmt.Errorf("gossip: loss probability %v out of [0,1)", p)
	}
	e.cfg.LossProb = p
	return nil
}

// SetLinkFault installs (or, with nil, removes) a link-fault predicate:
// any push for which fault(from, to) returns true is dropped and the sender
// re-absorbs the share. The predicate must be deterministic — a pure
// function of the ids and scenario state — for runs to replay.
func (e *Engine) SetLinkFault(fault func(from, to int) bool) { e.linkFault = fault }

// Override replaces node i's held pair in place — the scenario engine's
// collusion event, where a liar swaps its true accumulated state for an
// inflated one mid-run. The mass delta is tallied against the ledgers so the
// conservation invariant stays checkable.
func (e *Engine) Override(i int, y, g float64) error {
	if i < 0 || i >= e.n {
		return fmt.Errorf("gossip: override node %d out of range [0,%d)", i, e.n)
	}
	if e.down[i] {
		return fmt.Errorf("gossip: override node %d is down", i)
	}
	if g < 0 {
		return fmt.Errorf("gossip: override node %d with negative weight %v", i, g)
	}
	e.synced = false
	e.lost.add(e.cur[i])
	e.cur[i] = Pair{y, g}
	e.injected.add(e.cur[i])
	e.u[i] = e.cur[i].ratio()
	e.selfConv[i] = false
	// Wake the node even if its whole neighbourhood had converged: a liar
	// in a stopped region must push its fresh state so neighbours' deltas
	// can revoke convergence, exactly as a rejoining node does.
	e.stopped[i] = false
	return nil
}

// MassLedger returns the engine's churn mass accounting: base is the
// construction-time total, injected the mass added by Rejoin/AddNode/
// Override, lost the mass destroyed by crashes, heirless leaves and
// Override replacements. MassY() == base.Y + injected.Y − lost.Y (and the
// same for G) up to floating-point accumulation error.
func (e *Engine) MassLedger() (base, injected, lost Pair) {
	return e.base, e.injected, e.lost
}

// N returns the current node count (it grows as AddNode admits newcomers).
func (e *Engine) N() int { return e.n }

// Held returns the pair node i currently holds — the raw mass state behind
// Estimate, which churn events like Override build on.
func (e *Engine) Held(i int) Pair { return e.cur[i] }

// ---------------------------------------------------------------------------
// VectorEngine churn surface. Semantics mirror the scalar engine's, applied
// per subject slot; the mass ledgers are per-subject vectors.
// ---------------------------------------------------------------------------

// Down reports whether node i has crashed or left and not rejoined.
func (e *VectorEngine) Down(i int) bool { return e.down[i] }

// N returns the current node count.
func (e *VectorEngine) N() int { return e.n }

// Estimate returns node i's current estimate for subject j (0 while its
// weight slot is empty).
func (e *VectorEngine) Estimate(i, j int) float64 {
	if e.g[i][j] == 0 {
		return 0
	}
	return e.y[i][j] / e.g[i][j]
}

// HeldRow returns copies of the mass vectors node i currently holds.
func (e *VectorEngine) HeldRow(i int) (y, g []float64) {
	return append([]float64(nil), e.y[i]...), append([]float64(nil), e.g[i]...)
}

// mirrorInactive re-pins node i's inactive-subject slots into the next
// buffers after a direct mutation of its current row. Sparse-mode accumulate
// never rewrites inactive columns, so the two buffers must agree on them or
// a later view swap would resurrect stale mass.
func (e *VectorEngine) mirrorInactive(i int) {
	if e.denseActive {
		return
	}
	for j, a := range e.active {
		if !a {
			e.nextY[i][j] = e.y[i][j]
			if e.nextC != nil {
				e.nextC[i][j] = e.count[i][j]
			}
		}
	}
}

// Crash removes node i abruptly: every subject slot's mass is destroyed and
// tallied, and the node stops participating until Rejoin.
func (e *VectorEngine) Crash(i int) error {
	if i < 0 || i >= e.n {
		return fmt.Errorf("gossip: crash node %d out of range [0,%d)", i, e.n)
	}
	if e.down[i] {
		return fmt.Errorf("gossip: crash node %d already down", i)
	}
	for j := 0; j < e.n; j++ {
		e.lostY[j] += e.y[i][j]
		e.lostG[j] += e.g[i][j]
		e.y[i][j] = 0
		e.g[i][j] = 0
		e.prevR[i][j] = Sentinel
		if e.count != nil {
			e.count[i][j] = 0
		}
	}
	e.mirrorInactive(i)
	e.hasWeight[i] = false
	e.down[i] = true
	e.selfConv[i] = false
	e.stopped[i] = false
	return nil
}

// Leave removes node i gracefully, handing its entire vector mass to one
// uniformly random alive neighbour (one vector push). With no alive
// neighbour it degrades to a crash.
func (e *VectorEngine) Leave(i int) error {
	if i < 0 || i >= e.n {
		return fmt.Errorf("gossip: leave node %d out of range [0,%d)", i, e.n)
	}
	if e.down[i] {
		return fmt.Errorf("gossip: leave node %d already down", i)
	}
	h := pickAlive(e.cfg.Graph.Neighbors(i), e.down, e.src)
	if h < 0 {
		return e.Crash(i)
	}
	e.msgs.Gossip += e.perPushUnits
	for j := 0; j < e.n; j++ {
		e.y[h][j] += e.y[i][j]
		e.g[h][j] += e.g[i][j]
		e.y[i][j] = 0
		e.g[i][j] = 0
		e.prevR[i][j] = Sentinel
		if e.count != nil {
			e.count[h][j] += e.count[i][j]
			e.count[i][j] = 0
		}
	}
	e.mirrorInactive(i)
	e.mirrorInactive(h)
	e.refreshHasWeight(h)
	e.hasWeight[i] = false
	e.down[i] = true
	e.selfConv[i] = false
	e.stopped[i] = false
	return nil
}

// refreshHasWeight recomputes the cached all-active-slots-weighted flag for
// node i after a direct mutation of its row.
func (e *VectorEngine) refreshHasWeight(i int) {
	hw := true
	for _, j := range e.activeIdx {
		if e.g[i][j] == 0 {
			hw = false
			break
		}
	}
	e.hasWeight[i] = hw
}

// activateSubject marks subject j as carrying a campaign from now on —
// needed when a rejoining or joining node introduces weight for a subject
// nobody had rated. Inactive slots were pinned equal across both buffers, so
// activation is just index bookkeeping.
func (e *VectorEngine) activateSubject(j int) {
	if e.active[j] {
		return
	}
	e.active[j] = true
	// Insert keeping activeIdx ascending, as the kernels assume.
	at := len(e.activeIdx)
	for k, v := range e.activeIdx {
		if v > j {
			at = k
			break
		}
	}
	e.activeIdx = append(e.activeIdx, 0)
	copy(e.activeIdx[at+1:], e.activeIdx[at:])
	e.activeIdx[at] = j
	e.denseActive = len(e.activeIdx) == e.n
	// A newly active slot now takes part in every node's convergence scan;
	// cached hasWeight flags may be stale in the permissive direction.
	for i := 0; i < e.n; i++ {
		if e.hasWeight[i] && e.g[i][j] == 0 {
			e.hasWeight[i] = false
		}
	}
}

// Rejoin brings a departed node back with fresh per-subject state — a
// whitewash when the weights carry new mass. Subjects that gain their first
// weight anywhere are activated.
func (e *VectorEngine) Rejoin(i int, y, g []float64) error {
	if i < 0 || i >= e.n {
		return fmt.Errorf("gossip: rejoin node %d out of range [0,%d)", i, e.n)
	}
	if !e.down[i] {
		return fmt.Errorf("gossip: rejoin node %d is not down", i)
	}
	if len(y) != e.n || len(g) != e.n {
		return fmt.Errorf("gossip: rejoin vectors have length %d/%d, want %d", len(y), len(g), e.n)
	}
	for j, gv := range g {
		if gv < 0 {
			return fmt.Errorf("gossip: rejoin node %d with negative weight g[%d]=%v", i, j, gv)
		}
		if gv > 0 {
			e.activateSubject(j)
		}
	}
	for j := 0; j < e.n; j++ {
		e.y[i][j] = y[j]
		e.g[i][j] = g[j]
		e.injY[j] += y[j]
		e.injG[j] += g[j]
		e.prevR[i][j] = ratioOr(y[j], g[j])
		if e.count != nil {
			e.count[i][j] = 0
		}
	}
	e.mirrorInactive(i)
	e.refreshHasWeight(i)
	e.down[i] = false
	e.selfConv[i] = false
	e.stopped[i] = false
	return nil
}

// AddNode grows the engine by one node (and one subject slot). The graph
// must already contain the new node with its overlay edges; y and g are the
// newcomer's initial vectors over all N+1 subjects. The Θ(N²) state is
// rebuilt — joins are event-rate, not step-rate — and the run's counters,
// flags and ledgers carry over; fan-outs are refreshed as part of the
// rebuild. The newcomer's degree exchange is charged to Messages.Setup.
func (e *VectorEngine) AddNode(y, g []float64) (int, error) {
	n1 := e.n + 1
	if e.cfg.Graph.N() != n1 {
		return 0, fmt.Errorf("gossip: AddNode needs the graph grown by exactly one node (graph N=%d, engine N=%d)", e.cfg.Graph.N(), e.n)
	}
	if len(y) != n1 || len(g) != n1 {
		return 0, fmt.Errorf("gossip: AddNode vectors have length %d/%d, want %d", len(y), len(g), n1)
	}
	ny := make([][]float64, n1)
	ng := make([][]float64, n1)
	for i := 0; i < e.n; i++ {
		ry := make([]float64, n1)
		rg := make([]float64, n1)
		copy(ry, e.y[i])
		copy(rg, e.g[i])
		ny[i] = ry
		ng[i] = rg
	}
	ny[e.n] = y
	ng[e.n] = g

	cfg := e.cfg
	cfg.Seed = e.src.Uint64() // child stream: replayable from the run seed
	ne, err := NewVectorEngine(cfg, ny, ng)
	if err != nil {
		return 0, err
	}
	if e.count != nil {
		nc := make([][]float64, n1)
		for i := 0; i < e.n; i++ {
			rc := make([]float64, n1)
			copy(rc, e.count[i])
			nc[i] = rc
		}
		nc[e.n] = make([]float64, n1)
		if err := ne.EnableCountGossip(nc); err != nil {
			return 0, err
		}
	}
	// Carry the run state over: step/message counters, protocol flags and
	// the mass ledgers. The constructor's full degree-exchange charge is
	// replaced by the newcomer's localized exchange.
	ne.steps = e.steps
	ne.msgs = e.msgs
	ne.msgs.Setup += 2 * cfg.Graph.Degree(e.n)
	ne.perPushUnits = e.perPushUnits
	if ne.perPushUnits > 1 {
		ne.perPushUnits = n1 // vector pushes now carry one more slot
	}
	copy(ne.selfConv, e.selfConv)
	copy(ne.stopped, e.stopped)
	copy(ne.down, e.down)
	for j := 0; j < e.n; j++ {
		// The constructor recomputed base from the current masses; restore
		// the original ledger and book the newcomer's row as injected.
		ne.baseY[j] = e.baseY[j]
		ne.baseG[j] = e.baseG[j]
		ne.injY[j] = e.injY[j] + y[j]
		ne.injG[j] = e.injG[j] + g[j]
		ne.lostY[j] = e.lostY[j]
		ne.lostG[j] = e.lostG[j]
	}
	// Down rows were rebuilt as all-zero (they hold no mass), but the
	// constructor seeded their prevR from ratios; pin them to the sentinel
	// so a rejoin measures deltas from fresh state.
	for i := 0; i < e.n; i++ {
		if ne.down[i] {
			for j := 0; j < n1; j++ {
				ne.prevR[i][j] = Sentinel
			}
			ne.hasWeight[i] = false
		}
	}
	ne.linkFault = e.linkFault
	*e = *ne
	return e.n - 1, nil
}

// RefreshFanouts recomputes every node's push fan-out from current degrees;
// call after the overlay gains edges (scalar AddNode path does not refresh
// automatically, and joins change existing nodes' degrees too).
func (e *VectorEngine) RefreshFanouts() { e.ks = e.cfg.fanouts() }

// SetLossProb changes the per-push loss probability mid-run.
func (e *VectorEngine) SetLossProb(p float64) error {
	if p < 0 || p >= 1 {
		return fmt.Errorf("gossip: loss probability %v out of [0,1)", p)
	}
	e.cfg.LossProb = p
	return nil
}

// SetLinkFault installs (or removes, with nil) a deterministic link-fault
// predicate; faulted pushes are re-absorbed by the sender.
func (e *VectorEngine) SetLinkFault(fault func(from, to int) bool) { e.linkFault = fault }

// Override replaces node i's held vector state in place (the collusion
// event); deltas are tallied against the ledgers.
func (e *VectorEngine) Override(i int, y, g []float64) error {
	if i < 0 || i >= e.n {
		return fmt.Errorf("gossip: override node %d out of range [0,%d)", i, e.n)
	}
	if e.down[i] {
		return fmt.Errorf("gossip: override node %d is down", i)
	}
	if len(y) != e.n || len(g) != e.n {
		return fmt.Errorf("gossip: override vectors have length %d/%d, want %d", len(y), len(g), e.n)
	}
	for j, gv := range g {
		if gv < 0 {
			return fmt.Errorf("gossip: override node %d with negative weight g[%d]=%v", i, j, gv)
		}
		if gv > 0 {
			e.activateSubject(j)
		}
	}
	for j := 0; j < e.n; j++ {
		e.lostY[j] += e.y[i][j]
		e.lostG[j] += e.g[i][j]
		e.y[i][j] = y[j]
		e.g[i][j] = g[j]
		e.injY[j] += y[j]
		e.injG[j] += g[j]
		e.prevR[i][j] = ratioOr(y[j], g[j])
	}
	e.mirrorInactive(i)
	e.refreshHasWeight(i)
	e.selfConv[i] = false
	// As in the scalar engine: a stopped liar must resume pushing so the
	// override can propagate and neighbours can revoke convergence.
	e.stopped[i] = false
	return nil
}

// MassLedger returns subject j's churn mass accounting (see the scalar
// engine's MassLedger): MassY(j) == baseY + injY − lostY up to float error,
// and likewise for G.
func (e *VectorEngine) MassLedger(j int) (base, injected, lost Pair) {
	return Pair{e.baseY[j], e.baseG[j]}, Pair{e.injY[j], e.injG[j]}, Pair{e.lostY[j], e.lostG[j]}
}
