package gossip

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"diffgossip/internal/graph"
	"diffgossip/internal/rng"
)

// referenceStep is Algorithm 1's step written the textbook way, one branch
// per case and a full stop-rule scan: the reference Step is checked against.
// It reads and writes the engine's node state and tallies as Step does, and
// none of Step's own (route table, unconv, flipped, nUnconv, synced): the
// neighbours and the sampled targets come from the graph.
func (e *Engine) referenceStep() bool {
	g := e.cfg.Graph
	for i := range e.next {
		e.next[i] = mass{}
	}

	// Push phase.
	for i := 0; i < e.n; i++ {
		if e.down[i] {
			// A departed node holds no mass and transmits nothing.
			continue
		}
		if e.stopped[i] || g.Degree(i) == 0 {
			// A stopped or isolated node retains its entire mass.
			e.next[i].deliver(e.cur[i].pair(), e.cur[i].C)
			continue
		}
		e.msgs.ActiveNodeSteps++
		k := e.ks[i]
		f := 1 / float64(k+1)
		share := Pair{e.cur[i].Y * f, e.cur[i].G * f}
		// Without count gossip C is 0 and so is its share.
		countShare := e.cur[i].C * f
		// Self delivery.
		e.next[i].deliver(share, countShare)
		e.nbrs = g.AppendRandomNeighbors(e.nbrs[:0], i, k, e.src)
		for _, t := range e.nbrs {
			e.msgs.Gossip++
			// The loss draw is taken before the down/partition checks so a
			// churn-free run consumes exactly the stream the seed implies.
			dropped := e.cfg.LossProb > 0 && e.src.Bool(e.cfg.LossProb)
			if !dropped && (e.down[t] || (e.linkFault != nil && e.linkFault(i, t))) {
				// A push to a departed node, or across a faulted link,
				// fails like a lost packet: no ack arrives.
				dropped = true
			}
			if dropped {
				// Lost push: no ack, so the sender re-absorbs the
				// share (paper §5.3) and mass is conserved.
				e.msgs.Lost++
				e.next[i].deliver(share, countShare)
				continue
			}
			e.next[t].deliver(share, countShare)
			e.next[t].heard++
		}
	}

	// Collect phase + convergence detection.
	e.steps++
	for i := 0; i < e.n; i++ {
		e.cur[i] = e.next[i]
		if e.down[i] {
			// Departed nodes carry no estimate and play no part in the
			// convergence protocol until they rejoin.
			e.u[i] = Sentinel
			continue
		}
		r := e.cur[i].pair().ratio()
		delta := math.Abs(r - e.u[i])
		// A node with zero weight mass has no estimate yet (sentinel
		// ratio): it must not satisfy the convergence test, or sum-mode
		// gossip (weight at a single root) would stop instantly.
		//
		// The announcement is revocable: the ratio trajectory is not
		// monotone, so a one-step delta below ξ at a turning point must
		// not freeze the node forever. A node re-announces on every
		// converged/unconverged transition (each costing deg messages);
		// the run stops only when a whole closed neighbourhood holds the
		// flag simultaneously, which is exactly the paper's stop rule
		// evaluated on current rather than historical state.
		// Reception (|S| > 1 in the paper) gates only the *initial*
		// detection: a node that has heard nothing new keeps whatever
		// flag it holds as long as its ratio stays within ξ.
		heard := e.cur[i].heard >= 1 || e.selfConv[i] || e.stopped[i]
		conv := e.cur[i].G > 0 && heard && delta <= e.cfg.Epsilon && e.steps >= e.cfg.MinSteps
		if conv != e.selfConv[i] {
			e.selfConv[i] = conv
			e.msgs.Announce += g.Degree(i)
		}
		e.u[i] = r
	}

	// Stop rule: a node pauses while it and all its neighbours hold the
	// convergence flag; it resumes if any flag in its closed neighbourhood
	// is revoked. The run ends when every node pauses at once.
	running := false
	for i := 0; i < e.n; i++ {
		// Isolated and departed nodes cannot gossip and must not block
		// termination; a departed neighbour likewise never announces, so
		// the stop rule treats it as converged (ack-timeout semantics).
		e.stopped[i] = (e.selfConv[i] || g.Degree(i) == 0 || e.down[i]) && convergedOrDown(e.selfConv, e.down, g.Neighbors(i))
		if !e.stopped[i] {
			running = true
		}
	}
	return running
}

// deliver adds a value/weight share and a count share to the record.
func (m *mass) deliver(p Pair, c float64) {
	m.Y += p.Y
	m.G += p.G
	m.C += c
}

// convergedOrDown reports whether every listed neighbour either announced
// convergence or has departed.
func convergedOrDown(conv, down []bool, nbrs []int) bool {
	for _, v := range nbrs {
		if !conv[v] && !down[v] {
			return false
		}
	}
	return true
}

// twins steps two engines over the same inputs and the same graph: kernel on
// Step, ref on referenceStep.
type twins struct {
	t           *testing.T
	name        string
	kernel, ref *Engine
}

func newTwins(t *testing.T, name string, cfg Config, y0, g0 []float64) *twins {
	t.Helper()
	kernel, err := NewEngine(cfg, y0, g0)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewEngine(cfg, y0, g0)
	if err != nil {
		t.Fatal(err)
	}
	return &twins{t: t, name: name, kernel: kernel, ref: ref}
}

// reset rewinds both engines to a new campaign.
func (w *twins) reset(seed uint64, y0, g0 []float64) {
	w.t.Helper()
	w.both(func(e *Engine) error { return e.Reset(seed, y0, g0) })
}

// both applies the same mutation to the two engines.
func (w *twins) both(f func(e *Engine) error) {
	w.t.Helper()
	if err := f(w.kernel); err != nil {
		w.t.Fatal(err)
	}
	if err := f(w.ref); err != nil {
		w.t.Fatal(err)
	}
}

// step advances both engines one step and compares every observable bit:
// the running flag, tallies, held pairs and counts, last-seen ratios and
// convergence flags.
func (w *twins) step() bool {
	w.t.Helper()
	a, b := w.kernel.Step(), w.ref.referenceStep()
	at := fmt.Sprintf("%s step %d", w.name, w.kernel.Steps())
	if a != b || w.kernel.Steps() != w.ref.Steps() {
		w.t.Fatalf("%s: running %v vs %v, steps %d vs %d", at, a, b, w.kernel.Steps(), w.ref.Steps())
	}
	if w.kernel.Messages() != w.ref.Messages() {
		w.t.Fatalf("%s: messages %+v vs %+v", at, w.kernel.Messages(), w.ref.Messages())
	}
	for i := 0; i < w.kernel.N(); i++ {
		p, q := w.kernel.Held(i), w.ref.Held(i)
		if math.Float64bits(p.Y) != math.Float64bits(q.Y) || math.Float64bits(p.G) != math.Float64bits(q.G) {
			w.t.Fatalf("%s: node %d holds %v vs %v", at, i, p, q)
		}
	}
	if i, ok := sameBits(w.kernel.u, w.ref.u); !ok {
		w.t.Fatalf("%s: node %d last-seen ratio %v vs %v", at, i, w.kernel.u[i], w.ref.u[i])
	}
	if !slices.Equal(w.kernel.selfConv, w.ref.selfConv) || !slices.Equal(w.kernel.stopped, w.ref.stopped) {
		w.t.Fatalf("%s: convergence flags diverged", at)
	}
	if i, ok := sameBits(w.kernel.counts(), w.ref.counts()); !ok {
		w.t.Fatalf("%s: node %d count diverged", at, i)
	}
	return a
}

// sameBits reports whether a and b hold the same floats bit for bit, and
// else the first index where they differ.
func sameBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return 0, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// counts returns every node's count mass.
func (e *Engine) counts() []float64 {
	out := make([]float64, e.n)
	for i := range out {
		out[i] = e.cur[i].C
	}
	return out
}

// withCount enables count gossip on both twins.
func (w *twins) withCount(c0 []float64) *twins {
	w.both(func(e *Engine) error { return e.EnableCountGossip(c0) })
	return w
}

// steps advances both twins k steps, or to the end of the campaign.
func (w *twins) steps(k int) {
	w.t.Helper()
	for ; k > 0 && w.kernel.Steps() < w.kernel.cfg.maxSteps() && w.step(); k-- {
	}
}

// run steps both twins to the end of the campaign.
func (w *twins) run() {
	w.t.Helper()
	w.steps(math.MaxInt)
}

// circulant is the rater overlay core runs sparse campaigns on, node i
// linked to i±1, i±2, i±4, … below k, built edge by edge: the build
// graph.Circulant is pinned to.
func circulant(k int) *graph.Graph {
	g := graph.New(k)
	for d := 1; d < k; d *= 2 {
		for i := 0; i < k; i++ {
			if u, v := i, (i+d)%k; u != v && !g.HasEdge(u, v) {
				if err := g.AddEdge(u, v); err != nil {
					panic(err)
				}
			}
		}
	}
	return g
}

// TestCirculantMatchesEdgeByEdgeBuild pins graph.Circulant, which writes
// the sparse-campaign overlay's adjacency straight from its offsets, to the
// edge-by-edge build, element for element: a node's push targets are drawn
// by position in its neighbour list, so the order is part of every sparse
// campaign's result.
func TestCirculantMatchesEdgeByEdgeBuild(t *testing.T) {
	for k := 2; k <= 512; k++ {
		got, want := graph.Circulant(k), circulant(k)
		if got.N() != k || got.M() != want.M() {
			t.Fatalf("k=%d: %d nodes, %d edges; want %d, %d", k, got.N(), got.M(), k, want.M())
		}
		for i := range k {
			if !slices.Equal(got.Neighbors(i), want.Neighbors(i)) {
				t.Fatalf("k=%d node %d: neighbours %v, want %v", k, i, got.Neighbors(i), want.Neighbors(i))
			}
		}
	}
}

// TestStepMatchesReference: Step and the reference step stay bit-identical —
// pairs, counts, ratios, flags, tallies — step by step, over every topology
// feature Step special-cases and across mid-run loss, overrides, leaves,
// rejoins, crashes, link faults and joins.
func TestStepMatchesReference(t *testing.T) {
	t.Run("pa", func(t *testing.T) {
		// M=1 grows a tree full of degree-1 leaves; M=3 gives hubs with
		// k > 1, so the sampled fan-out path runs too.
		for _, m := range []int{1, 3} {
			g := graph.MustPA(300, m, uint64(40+m))
			w := newTwins(t, fmt.Sprintf("pa m=%d", m), Config{Graph: g, Epsilon: 1e-6, Seed: 41}, randomValues(300, 42), ones(300))
			if slices.Max(w.kernel.ks) < 2 {
				t.Fatalf("m=%d: no node with k > 1", m)
			}
			w.run()
		}
	})

	t.Run("circulant", func(t *testing.T) {
		for k := 2; k <= 64; k++ {
			w := newTwins(t, fmt.Sprintf("circulant k=%d", k), Config{Graph: circulant(k), Epsilon: 1e-4, Seed: uint64(k)}, randomValues(k, uint64(100+k)), ones(k))
			w.run()
			w.reset(uint64(1000+k), randomValues(k, uint64(200+k)), ones(k))
			w.run()
		}
	})

	t.Run("isolated", func(t *testing.T) {
		const n = 13
		g := graph.New(n) // node 12 has no neighbour
		for i := 0; i < n-1; i++ {
			if err := g.AddEdge(i, (i+1)%(n-1)); err != nil {
				t.Fatal(err)
			}
		}
		newTwins(t, "isolated", Config{Graph: g, Epsilon: 1e-6, Seed: 5, MinSteps: 7}, randomValues(n, 6), ones(n)).run()
	})

	t.Run("sum", func(t *testing.T) {
		// Weight at the root only: every other node starts at the
		// sentinel ratio with G = 0.
		g := graph.MustPA(150, 2, 7)
		g0 := make([]float64, 150)
		g0[3] = 1
		newTwins(t, "sum", Config{Graph: g, Epsilon: 1e-6, Seed: 8}, randomValues(150, 9), g0).run()
	})

	t.Run("min-steps", func(t *testing.T) {
		newTwins(t, "min-steps", Config{Graph: circulant(48), Epsilon: 1e-3, Seed: 10, MinSteps: 25}, randomValues(48, 11), ones(48)).run()
	})

	t.Run("count", func(t *testing.T) {
		// Algorithm 2's shape: y at the raters, g at the root only, count 1
		// at the raters — on a leafy tree and on a graph with hubs.
		const n = 300
		for _, m := range []int{1, 3} {
			y0, g0, c0 := make([]float64, n), make([]float64, n), make([]float64, n)
			g0[0] = 1
			vals := randomValues(n, uint64(60+m))
			for i := 0; i < n; i += 3 {
				y0[i], c0[i] = vals[i], 1
			}
			cfg := Config{Graph: graph.MustPA(n, m, uint64(50+m)), Epsilon: 1e-6, Seed: 51}
			newTwins(t, fmt.Sprintf("gclr m=%d", m), cfg, y0, g0).withCount(c0).run()
		}

		// Average mode with a count: unit weights everywhere.
		c0 := randomValues(n, 62)
		cfg := Config{Graph: graph.MustPA(n, 2, 63), Epsilon: 1e-6, Seed: 64}
		newTwins(t, "average+count", cfg, randomValues(n, 65), ones(n)).withCount(c0).run()

		// Loss draws from the stream; the count mass must survive it being
		// switched on and off again.
		cfg = Config{Graph: graph.MustPA(n, 2, 66), Epsilon: 1e-6, Seed: 67}
		w := newTwins(t, "loss+count", cfg, randomValues(n, 68), ones(n)).withCount(c0)
		w.steps(3)
		w.both(func(e *Engine) error { return e.SetLossProb(0.2) })
		w.steps(5)
		w.both(func(e *Engine) error { return e.SetLossProb(0) })
		w.run()
	})

	t.Run("events", func(t *testing.T) {
		const n = 200
		w := newTwins(t, "events", Config{Graph: graph.MustPA(n, 2, 12), Epsilon: 1e-5, Seed: 13}, randomValues(n, 14), ones(n))
		w.steps(3)
		w.both(func(e *Engine) error { return e.SetLossProb(0.2) })
		w.steps(3)
		w.both(func(e *Engine) error { return e.SetLossProb(0) })
		w.steps(1)

		// An override wakes a node in a stopped region.
		liar := w.quietNode()
		w.both(func(e *Engine) error { return e.Override(liar, 0.9, 1) })
		w.steps(10)

		// A leave hands the leaver's mass, inflated first so the heir's
		// ratio jumps, to a stopped heir; an immediate rejoin leaves the
		// heir's pair changed under a stopped flag. The rejoined node may
		// push to the heir, which then recomputes its ratio anyway, so this
		// runs a few times.
		for round := 0; round < 4; round++ {
			leaver := w.quietNode()
			w.both(func(e *Engine) error { return e.Override(leaver, 5, 1) })
			w.both(func(e *Engine) error { return e.Leave(leaver) })
			w.both(func(e *Engine) error { return e.Rejoin(leaver, 0.2, 1) })
			w.steps(10)
		}

		// A crashed node counts as converged in its neighbours' stop rule,
		// so a quiet region stays quiet; a crashed hub drops the pushes sent
		// to it, under loss too. Both rejoin.
		quiet := w.quietNode()
		w.both(func(e *Engine) error { return e.Crash(quiet) })
		w.steps(2)
		hub := 0
		for i := range n {
			if w.kernel.cfg.Graph.Degree(i) > w.kernel.cfg.Graph.Degree(hub) {
				hub = i
			}
		}
		w.both(func(e *Engine) error { return e.Override(liar, 0.1, 1) })
		w.both(func(e *Engine) error { return e.Crash(hub) })
		w.steps(2)
		w.both(func(e *Engine) error { return e.SetLossProb(0.2) })
		w.steps(3)
		w.both(func(e *Engine) error { return e.SetLossProb(0) })
		w.both(func(e *Engine) error { return e.Rejoin(quiet, 0.1, 1) })
		w.both(func(e *Engine) error { return e.Rejoin(hub, 0.3, 1) })
		w.run()
	})

	t.Run("faults", func(t *testing.T) {
		// A partition drops every push across it, then heals; then a node
		// joins the overlay. Both run with and without Algorithm 2's count.
		const n = 200
		for _, counted := range []bool{false, true} {
			g := graph.MustPA(n, 2, 70)
			w := newTwins(t, fmt.Sprintf("faults count=%v", counted), Config{Graph: g, Epsilon: 1e-5, Seed: 71}, randomValues(n, 72), ones(n))
			if counted {
				w.withCount(randomValues(n, 73))
			}
			w.steps(3)
			w.both(func(e *Engine) error {
				e.SetLinkFault(func(from, to int) bool { return (from%3 == 0) != (to%3 == 0) })
				return nil
			})
			w.steps(6)
			if w.kernel.Messages().Lost == 0 {
				t.Fatalf("%s: the partition dropped no push", w.name)
			}
			w.both(func(e *Engine) error { e.SetLinkFault(nil); return nil })
			w.quietNode()

			id := graph.AttachPreferential(g, 2, rng.New(74), nil)
			w.both(func(e *Engine) error {
				got, err := e.AddNode(0.7, 1)
				if err == nil && got != id {
					err = fmt.Errorf("AddNode id %d, graph id %d", got, id)
				}
				e.RefreshFanouts()
				return err
			})
			w.run()
		}
	})
}

// quietNode steps the twins until some node and all its neighbours have
// stopped, and returns that node.
func (w *twins) quietNode() int {
	w.t.Helper()
	g := w.kernel.cfg.Graph
	for w.kernel.Steps() < w.kernel.cfg.maxSteps() {
		for i, s := range w.kernel.stopped {
			if s && !slices.ContainsFunc(g.Neighbors(i), func(v int) bool { return !w.kernel.stopped[v] }) {
				return i
			}
		}
		w.step()
	}
	w.t.Fatalf("%s: no stopped region within the step budget", w.name)
	return -1
}
