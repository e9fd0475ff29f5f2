package gossip

import (
	"fmt"
	"slices"
)

// This file is the churn surface of the scalar gossip Engine: the hooks the
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
	e.lost.add(e.cur[i].pair())
	e.lostCount += e.cur[i].C
	e.cur[i] = mass{}
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
	heir, m := &e.cur[h], &e.cur[i]
	heir.Y += m.Y
	heir.G += m.G
	heir.C += m.C
	*m = mass{}
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
// exactly one draw when at least one alive neighbour exists: an index among
// the alive ones, found by a second scan, so the choice stays uniform
// without allocating.
func (e *Engine) pickAliveNeighbor(i int) int {
	nbrs := e.neighbors(i)
	alive := 0
	for _, v := range nbrs {
		if !e.down[v] {
			alive++
		}
	}
	if alive == 0 {
		return -1
	}
	pick := e.src.Intn(alive)
	for _, v := range nbrs {
		if !e.down[v] {
			if pick == 0 {
				return int(v)
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
	e.cur[i] = mass{Y: y, G: g}
	e.injected.add(Pair{y, g})
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
	e.cur = append(e.cur, mass{Y: y, G: g})
	e.injected.add(Pair{y, g})
	e.u = append(e.u, e.cur[i].ratio())
	e.selfConv = append(e.selfConv, false)
	e.stopped = append(e.stopped, false)
	e.down = append(e.down, false)
	e.next = append(e.next, mass{})
	e.unconv = append(e.unconv, 0)
	e.flipped = slices.Grow(e.flipped[:0], e.n) // Step lists flips in place
	e.setFanouts(append(e.ks, 1))               // placeholder until RefreshFanouts
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
	m := &e.cur[i]
	e.lost.add(m.pair())
	m.Y, m.G = y, g
	e.injected.add(m.pair())
	e.u[i] = m.ratio()
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
func (e *Engine) Held(i int) Pair { return e.cur[i].pair() }
