package gossip

import (
	"math"
	"runtime"
	"testing"

	"diffgossip/internal/graph"
	"diffgossip/internal/rng"
)

// refVectorEngine is a faithful copy of the pre-flat-memory implementation:
// per-row heap allocations, a zeroing pass, three separate axpy passes per
// routed share, and a standalone full-column convergence scan. It exists so
// tests can prove the flat, fused engine is bit-identical to the old layout.
type refVectorEngine struct {
	cfg      Config
	n        int
	ks       []int
	src      *rng.Source
	steps    int
	y, g     [][]float64
	count    [][]float64
	prevR    [][]float64
	selfConv []bool
	stopped  []bool
	active   []bool
	nextY    [][]float64
	nextG    [][]float64
	nextC    [][]float64
	extRecv  []int
	incoming [][]push
	l1       []float64
	hasW     []bool
}

func refAlloc(n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
	}
	return out
}

func refCopy(m [][]float64, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = append([]float64(nil), m[i]...)
	}
	return out
}

func newRefVectorEngine(cfg Config, y0, g0, c0 [][]float64) *refVectorEngine {
	n := cfg.Graph.N()
	e := &refVectorEngine{
		cfg:      cfg,
		n:        n,
		ks:       cfg.fanouts(),
		src:      rng.New(cfg.Seed),
		y:        refCopy(y0, n),
		g:        refCopy(g0, n),
		prevR:    refAlloc(n),
		selfConv: make([]bool, n),
		stopped:  make([]bool, n),
		nextY:    refAlloc(n),
		nextG:    refAlloc(n),
		extRecv:  make([]int, n),
		active:   make([]bool, n),
		incoming: make([][]push, n),
		l1:       make([]float64, n),
		hasW:     make([]bool, n),
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if e.g[i][j] > 0 {
				e.active[j] = true
			}
			e.prevR[i][j] = Pair{Y: e.y[i][j], G: e.g[i][j]}.ratio()
		}
	}
	e.count = refCopy(c0, n)
	e.nextC = refAlloc(n)
	return e
}

func refZero(xs []float64) {
	for i := range xs {
		xs[i] = 0
	}
}

func refAxpy(dst, src []float64, f float64) {
	for i := range dst {
		// Pinned like the production kernels, so the reference is
		// FMA-contraction-proof on every platform too.
		dst[i] += float64(src[i] * f)
	}
}

func (e *refVectorEngine) step() bool {
	g := e.cfg.Graph
	for i := range e.incoming {
		e.incoming[i] = e.incoming[i][:0]
		e.extRecv[i] = 0
	}
	for i := 0; i < e.n; i++ {
		if e.stopped[i] || g.Degree(i) == 0 {
			e.incoming[i] = append(e.incoming[i], push{src: i, f: 1})
			continue
		}
		k := e.ks[i]
		f := 1 / float64(k+1)
		e.incoming[i] = append(e.incoming[i], push{src: i, f: f})
		for _, t := range g.RandomNeighbors(i, k, e.src) {
			if e.cfg.LossProb > 0 && e.src.Bool(e.cfg.LossProb) {
				e.incoming[i] = append(e.incoming[i], push{src: i, f: f})
				continue
			}
			e.incoming[t] = append(e.incoming[t], push{src: i, f: f})
			e.extRecv[t]++
		}
	}

	e.steps++
	for i := 0; i < e.n; i++ {
		refZero(e.nextY[i])
		refZero(e.nextG[i])
		refZero(e.nextC[i])
		for _, p := range e.incoming[i] {
			refAxpy(e.nextY[i], e.y[p.src], p.f)
			refAxpy(e.nextG[i], e.g[p.src], p.f)
			refAxpy(e.nextC[i], e.count[p.src], p.f)
		}
		l1 := 0.0
		hasWeight := true
		for j := 0; j < e.n; j++ {
			r := Pair{Y: e.nextY[i][j], G: e.nextG[i][j]}.ratio()
			l1 += math.Abs(r - e.prevR[i][j])
			e.prevR[i][j] = r
			if e.active[j] && e.nextG[i][j] == 0 {
				hasWeight = false
			}
		}
		e.l1[i] = l1
		e.hasW[i] = hasWeight
	}
	for i := 0; i < e.n; i++ {
		e.y[i], e.nextY[i] = e.nextY[i], e.y[i]
		e.g[i], e.nextG[i] = e.nextG[i], e.g[i]
		e.count[i], e.nextC[i] = e.nextC[i], e.count[i]
	}

	nxi := float64(e.n) * e.cfg.Epsilon
	for i := 0; i < e.n; i++ {
		heard := e.extRecv[i] >= 1 || e.selfConv[i] || e.stopped[i]
		conv := e.hasW[i] && heard && e.l1[i] <= nxi && e.steps >= e.cfg.MinSteps
		if conv != e.selfConv[i] {
			e.selfConv[i] = conv
		}
	}
	running := false
	for i := 0; i < e.n; i++ {
		e.stopped[i] = (e.selfConv[i] || g.Degree(i) == 0) && allConverged(e.selfConv, g.Neighbors(i))
		if !e.stopped[i] {
			running = true
		}
	}
	return running
}

func (e *refVectorEngine) run() VectorResult {
	budget := e.cfg.maxSteps()
	running := true
	for running && e.steps < budget {
		running = e.step()
	}
	res := VectorResult{Steps: e.steps, Converged: !running, Estimates: refAlloc(e.n), Counts: refAlloc(e.n)}
	for i := 0; i < e.n; i++ {
		for j := 0; j < e.n; j++ {
			if e.g[i][j] > 0 {
				res.Estimates[i][j] = e.y[i][j] / e.g[i][j]
				res.Counts[i][j] = e.count[i][j] / e.g[i][j]
			}
		}
	}
	return res
}

// TestFlatLayoutMatchesOldLayout pins the headline refactor guarantee: the
// flat-memory, fused engine, seeded in place, produces bit-identical results
// — same step count, same convergence, same estimate and count bits — as the
// old row-allocated three-pass layout fed the same start as matrices, with
// every subject rated by every node (dense) or by some (counts), with and
// without loss.
func TestFlatLayoutMatchesOldLayout(t *testing.T) {
	type scenario struct {
		name    string
		n, root int
		loss    float64
		rated   float64
	}
	for _, sc := range []scenario{
		{name: "dense", n: 60, rated: 1},
		{name: "dense-loss", n: 60, root: 7, loss: 0.15, rated: 1},
		{name: "dense-counts", n: 40, root: 3, rated: 0.3},
		{name: "dense-counts-loss", n: 40, loss: 0.15, rated: 0.3},
	} {
		t.Run(sc.name, func(t *testing.T) {
			g := graph.MustPA(sc.n, 2, 500)
			m := randomReports(sc.n, 501, sc.rated)
			cfg := Config{Graph: g, Epsilon: 1e-7, Seed: 502, LossProb: sc.loss}

			e, err := NewVectorEngine(cfg, sc.root, m.RowInto)
			if err != nil {
				t.Fatal(err)
			}
			got := e.Run()
			y0, g0, c0 := vectorStart(m, sc.root)
			want := newRefVectorEngine(cfg, y0, g0, c0).run()

			if got.Steps != want.Steps || got.Converged != want.Converged {
				t.Fatalf("run shape differs: steps %d/%v vs %d/%v",
					got.Steps, got.Converged, want.Steps, want.Converged)
			}
			for i := 0; i < sc.n; i++ {
				for j := 0; j < sc.n; j++ {
					if got.Estimates[i][j] != want.Estimates[i][j] {
						t.Fatalf("estimate[%d][%d]: %v (flat) vs %v (old layout)",
							i, j, got.Estimates[i][j], want.Estimates[i][j])
					}
					if got.Counts[i][j] != want.Counts[i][j] {
						t.Fatalf("count[%d][%d]: %v (flat) vs %v (old layout)",
							i, j, got.Counts[i][j], want.Counts[i][j])
					}
				}
			}
		})
	}
}

// TestVectorWorkerSweepBitIdentical is the determinism contract stated in the
// engine docs: Workers ∈ {1, 4, GOMAXPROCS} (and the auto setting) all
// produce the same estimate bits, because routing is sequential and every
// destination folds its shares in routing order.
func TestVectorWorkerSweepBitIdentical(t *testing.T) {
	n := 90
	g := graph.MustPA(n, 2, 510)
	m := randomReports(n, 511, 0.5)
	run := func(workers int) VectorResult {
		e, err := NewVectorEngine(Config{
			Graph: g, Epsilon: 1e-7, Seed: 512, Workers: workers, LossProb: 0.05,
		}, 0, m.RowInto)
		if err != nil {
			t.Fatal(err)
		}
		return e.Run()
	}
	base := run(1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0), -1} {
		got := run(workers)
		if got.Steps != base.Steps {
			t.Fatalf("workers=%d: steps %d vs %d", workers, got.Steps, base.Steps)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got.Estimates[i][j] != base.Estimates[i][j] {
					t.Fatalf("workers=%d: estimate[%d][%d] differs", workers, i, j)
				}
			}
		}
	}
}

// TestEngineStepZeroAllocs pins the scalar engine's zero-allocation
// steady-state invariant, on a PA graph (fan-outs k > 1) and on the 48-node
// circulant a service campaign runs on (k = 1 everywhere), where a whole
// Reset + RunInto campaign must not allocate either; and for an Algorithm 2
// engine carrying a count mass, whose steps (it cannot Reset) must not; nor
// may the steps of a lossy engine or of one with a crashed node.
func TestEngineStepZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault func(e *Engine) error
	}{
		{"loss", func(e *Engine) error { return e.SetLossProb(0.2) }},
		{"crash", func(e *Engine) error { return e.Crash(7) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 400
			e, err := NewEngine(Config{Graph: graph.MustPA(n, 2, 526), Epsilon: 1e-12, Seed: 527, MinSteps: 1 << 30}, randomValues(n, 528), ones(n))
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.fault(e); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				e.Step()
			}
			if allocs := testing.AllocsPerRun(30, func() { e.Step() }); allocs != 0 {
				t.Fatalf("Engine.Step allocated %v times per step in steady state", allocs)
			}
			if e.Messages().Lost == 0 {
				t.Fatal("no push was dropped")
			}
		})
	}

	t.Run("count", func(t *testing.T) {
		const n = 400
		g := graph.MustPA(n, 2, 523)
		y0, g0, c0 := make([]float64, n), make([]float64, n), make([]float64, n)
		g0[0] = 1
		src := rng.New(524)
		for i := 0; i < n; i += 4 {
			y0[i], c0[i] = src.Float64(), 1
		}
		e, err := NewEngine(Config{Graph: g, Epsilon: 1e-12, Seed: 525, MinSteps: 1 << 30}, y0, g0)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.EnableCountGossip(c0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			e.Step()
		}
		if allocs := testing.AllocsPerRun(30, func() { e.Step() }); allocs != 0 {
			t.Fatalf("Engine.Step with a count mass allocated %v times per step in steady state", allocs)
		}
	})

	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"pa", graph.MustPA(400, 2, 520)},
		{"circulant-48", circulant(48)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.g.N()
			src := rng.New(521)
			xs := make([]float64, n)
			g0 := make([]float64, n)
			for i := range xs {
				xs[i] = src.Float64()
				g0[i] = 1
			}
			e, err := NewEngine(Config{Graph: tc.g, Epsilon: 1e-12, Seed: 522, MinSteps: 1 << 30}, xs, g0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				e.Step() // warm the fan-out scratch buffer
			}
			if allocs := testing.AllocsPerRun(30, func() { e.Step() }); allocs != 0 {
				t.Fatalf("Engine.Step allocated %v times per step in steady state", allocs)
			}

			e.SetMinSteps(0)
			est := make([]float64, n)
			seed := uint64(0)
			if allocs := testing.AllocsPerRun(20, func() {
				seed++
				if err := e.Reset(seed, xs, g0); err != nil {
					t.Fatal(err)
				}
				e.RunInto(est)
			}); allocs != 0 {
				t.Fatalf("Reset + RunInto allocated %v times per campaign", allocs)
			}
		})
	}
}

// TestVectorStepZeroAllocs pins the vector engine's zero-allocation
// steady-state invariant, with every subject rated by every node (plain) or
// by some, and under loss.
func TestVectorStepZeroAllocs(t *testing.T) {
	n := 120
	g := graph.MustPA(n, 2, 530)
	for _, tc := range []struct {
		name        string
		rated, loss float64
	}{
		{name: "plain", rated: 1},
		{name: "counts", rated: 0.3},
		{name: "loss", rated: 0.3, loss: 0.2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := randomReports(n, 531, tc.rated)
			e, err := NewVectorEngine(Config{
				Graph: g, Epsilon: 1e-12, Seed: 532, MinSteps: 1 << 30, LossProb: tc.loss,
			}, 0, m.RowInto)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				e.Step()
			}
			if allocs := testing.AllocsPerRun(20, func() { e.Step() }); allocs != 0 {
				t.Fatalf("VectorEngine.Step allocated %v times per step in steady state", allocs)
			}
		})
	}
}
