package gossip

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"diffgossip/internal/graph"
)

// twins steps two engines over the same inputs: plain may take the plain
// kernel, general is held on the general step by a link fault that never
// fires (the fault predicate draws nothing from the stream, and drops
// nothing).
type twins struct {
	t              *testing.T
	name           string
	plain, general *Engine
}

func neverFaulted(int, int) bool { return false }

func newTwins(t *testing.T, name string, cfg Config, y0, g0 []float64) *twins {
	t.Helper()
	plain, err := NewEngine(cfg, y0, g0)
	if err != nil {
		t.Fatal(err)
	}
	general, err := NewEngine(cfg, y0, g0)
	if err != nil {
		t.Fatal(err)
	}
	general.SetLinkFault(neverFaulted)
	return &twins{t: t, name: name, plain: plain, general: general}
}

// reset rewinds both engines to a new campaign; Reset drops the general
// twin's link fault, so it is installed again.
func (w *twins) reset(seed uint64, y0, g0 []float64) {
	w.t.Helper()
	if err := w.plain.Reset(seed, y0, g0); err != nil {
		w.t.Fatal(err)
	}
	if err := w.general.Reset(seed, y0, g0); err != nil {
		w.t.Fatal(err)
	}
	w.general.SetLinkFault(neverFaulted)
}

// both applies the same mutation to the two engines.
func (w *twins) both(f func(e *Engine) error) {
	w.t.Helper()
	if err := f(w.plain); err != nil {
		w.t.Fatal(err)
	}
	if err := f(w.general); err != nil {
		w.t.Fatal(err)
	}
}

// step advances both engines one step, checks that the plain twin took the
// kernel wantPlain names (a plain step leaves the engine synced; the general
// twin never is), and compares every observable bit.
func (w *twins) step(wantPlain bool) bool {
	w.t.Helper()
	a, b := w.plain.Step(), w.general.Step()
	at := fmt.Sprintf("%s step %d", w.name, w.plain.Steps())
	if w.plain.synced != wantPlain || w.general.synced {
		w.t.Fatalf("%s: plain twin on plain kernel=%v (want %v), general twin=%v", at, w.plain.synced, wantPlain, w.general.synced)
	}
	if a != b || w.plain.Steps() != w.general.Steps() {
		w.t.Fatalf("%s: running %v vs %v, steps %d vs %d", at, a, b, w.plain.Steps(), w.general.Steps())
	}
	if w.plain.Messages() != w.general.Messages() {
		w.t.Fatalf("%s: messages %+v vs %+v", at, w.plain.Messages(), w.general.Messages())
	}
	if x, y := w.plain.LastDelta(), w.general.LastDelta(); math.Float64bits(x) != math.Float64bits(y) {
		w.t.Fatalf("%s: LastDelta %v vs %v", at, x, y)
	}
	for i := 0; i < w.plain.N(); i++ {
		p, q := w.plain.Held(i), w.general.Held(i)
		if math.Float64bits(p.Y) != math.Float64bits(q.Y) || math.Float64bits(p.G) != math.Float64bits(q.G) {
			w.t.Fatalf("%s: node %d holds %v vs %v", at, i, p, q)
		}
	}
	if !slices.Equal(w.plain.selfConv, w.general.selfConv) || !slices.Equal(w.plain.stopped, w.general.stopped) {
		w.t.Fatalf("%s: convergence flags diverged", at)
	}
	if i, ok := sameBits(w.plain.count, w.general.count); !ok {
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

// withCount enables count gossip on both twins.
func (w *twins) withCount(c0 []float64) *twins {
	w.both(func(e *Engine) error { return e.EnableCountGossip(c0) })
	return w
}

// finish runs both twins to the end and compares their results, counts
// included.
func (w *twins) finish() {
	w.t.Helper()
	w.run()
	a, b := w.plain.Run(), w.general.Run()
	if a.Steps != b.Steps || a.Converged != b.Converged || a.Messages != b.Messages {
		w.t.Fatalf("%s: results %d/%v/%+v vs %d/%v/%+v", w.name, a.Steps, a.Converged, a.Messages, b.Steps, b.Converged, b.Messages)
	}
	if i, ok := sameBits(a.Estimates, b.Estimates); !ok {
		w.t.Fatalf("%s: node %d estimate %v vs %v", w.name, i, a.Estimates[i], b.Estimates[i])
	}
	if i, ok := sameBits(a.Counts, b.Counts); !ok {
		w.t.Fatalf("%s: Run().Counts diverged at node %d", w.name, i)
	}
}

// run steps both engines to the end of the campaign on the plain kernel.
func (w *twins) run() {
	w.t.Helper()
	for w.plain.Steps() < w.plain.cfg.maxSteps() && w.step(true) {
	}
}

// circulant is the rater overlay core runs sparse campaigns on: node i
// linked to i±1, i±2, i±4, … below k.
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

// TestPlainStepMatchesGeneral: the plain kernel is the general step with
// the churn branches taken out, so a plain-kernel engine and a twin held on
// the general step stay bit-identical — pairs, flags, deltas, tallies —
// step by step, over every topology feature the kernel special-cases and
// across mid-run loss, overrides and crashes after which the plain kernel
// must pick up again.
func TestPlainStepMatchesGeneral(t *testing.T) {
	t.Run("pa", func(t *testing.T) {
		// M=1 grows a tree full of degree-1 leaves; M=3 gives hubs with
		// k > 1, so the kernel's sampled fan-out path runs too.
		for _, m := range []int{1, 3} {
			g := graph.MustPA(300, m, uint64(40+m))
			w := newTwins(t, fmt.Sprintf("pa m=%d", m), Config{Graph: g, Epsilon: 1e-6, Seed: 41}, randomValues(300, 42), ones(300))
			if slices.Max(w.plain.ks) < 2 {
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
			newTwins(t, fmt.Sprintf("gclr m=%d", m), cfg, y0, g0).withCount(c0).finish()
		}

		// Average mode with a count: unit weights everywhere.
		c0 := randomValues(n, 62)
		cfg := Config{Graph: graph.MustPA(n, 2, 63), Epsilon: 1e-6, Seed: 64}
		newTwins(t, "average+count", cfg, randomValues(n, 65), ones(n)).withCount(c0).finish()

		// Loss draws from the stream, so both twins step generally while it
		// is on; the count mass must survive the hand-over both ways.
		cfg = Config{Graph: graph.MustPA(n, 2, 66), Epsilon: 1e-6, Seed: 67}
		w := newTwins(t, "loss+count", cfg, randomValues(n, 68), ones(n)).withCount(c0)
		for i := 0; i < 3; i++ {
			w.step(true)
		}
		w.both(func(e *Engine) error { return e.SetLossProb(0.2) })
		for i := 0; i < 5; i++ {
			w.step(false)
		}
		w.both(func(e *Engine) error { return e.SetLossProb(0) })
		w.finish()
	})

	t.Run("events", func(t *testing.T) {
		const n = 200
		w := newTwins(t, "events", Config{Graph: graph.MustPA(n, 2, 12), Epsilon: 1e-5, Seed: 13}, randomValues(n, 14), ones(n))
		for i := 0; i < 3; i++ {
			w.step(true)
		}
		// Loss draws from the stream, so both twins step generally, then
		// the plain twin resumes the plain kernel once loss is off again.
		w.both(func(e *Engine) error { return e.SetLossProb(0.2) })
		for i := 0; i < 3; i++ {
			w.step(false)
		}
		w.both(func(e *Engine) error { return e.SetLossProb(0) })
		w.step(true)

		// An override wakes a node in a stopped region, which resumes on
		// the plain kernel.
		liar := w.quietNode()
		w.both(func(e *Engine) error { return e.Override(liar, 0.9, 1) })
		for i := 0; i < 10; i++ {
			w.step(true)
		}

		// A leave hands the leaver's mass, inflated first so the heir's
		// ratio jumps, to a stopped heir; an immediate rejoin puts the
		// engine back on the plain kernel with the heir's pair changed under
		// a stopped flag. The rejoined node may push to the heir, which then
		// recomputes its ratio anyway, so this runs a few times.
		for round := 0; round < 4; round++ {
			leaver := w.quietNode()
			w.both(func(e *Engine) error { return e.Override(leaver, 5, 1) })
			w.both(func(e *Engine) error { return e.Leave(leaver) })
			w.both(func(e *Engine) error { return e.Rejoin(leaver, 0.2, 1) })
			for i := 0; i < 10; i++ {
				w.step(true)
			}
		}

		// A crashed node holds the engines on the general step until it
		// rejoins.
		crashed := (liar + 1) % n
		w.both(func(e *Engine) error { return e.Crash(crashed) })
		w.step(false)
		w.step(false)
		w.both(func(e *Engine) error { return e.Rejoin(crashed, 0.1, 1) })
		w.run()
	})
}

// quietNode steps the twins on the plain kernel until some node and all its
// neighbours have stopped, and returns that node.
func (w *twins) quietNode() int {
	w.t.Helper()
	g := w.plain.cfg.Graph
	for w.plain.Steps() < w.plain.cfg.maxSteps() {
		for i, s := range w.plain.stopped {
			if s && !slices.ContainsFunc(g.Neighbors(i), func(v int) bool { return !w.plain.stopped[v] }) {
				return i
			}
		}
		w.step(true)
	}
	w.t.Fatalf("%s: no stopped region within the step budget", w.name)
	return -1
}
