package gossip

import (
	"math"
	"testing"

	"diffgossip/internal/graph"
	"diffgossip/internal/rng"
	"diffgossip/internal/trust"
)

// randomReports builds a reported trust matrix: node i rates subject j with
// probability p (every subject when p ≥ 1) at a uniform random value.
func randomReports(n int, seed uint64, p float64) *trust.Matrix {
	src := rng.New(seed)
	m := trust.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if p >= 1 || src.Bool(p) {
				_ = m.Set(i, j, src.Float64())
			}
		}
	}
	return m
}

// vectorStart spells out NewVectorEngine's start for m and root as N×N
// matrices: the input refVectorEngine takes and the tests' expected values
// read.
func vectorStart(m *trust.Matrix, root int) (y0, g0, c0 [][]float64) {
	n := m.N()
	y0, g0, c0 = alloc(n), alloc(n), alloc(n)
	for i := 0; i < n; i++ {
		ids, vals := m.RowInto(i, nil, nil)
		for k, j := range ids {
			y0[i][j], c0[i][j] = vals[k], 1
		}
	}
	for j := range g0[root] {
		g0[root][j] = 1
	}
	return y0, g0, c0
}

// TestVectorEngineShapeChecks: the one argument of the start that can fall
// out of shape is the root.
func TestVectorEngineShapeChecks(t *testing.T) {
	cfg := Config{Graph: graph.Ring(4), Epsilon: 0.01}
	m := randomReports(4, 1, 1)
	for _, root := range []int{-1, 4} {
		if _, err := NewVectorEngine(cfg, root, m.RowInto); err == nil {
			t.Fatalf("root %d accepted", root)
		}
	}
	if _, err := NewVectorEngine(cfg, 3, m.RowInto); err != nil {
		t.Fatal(err)
	}
}

// TestVectorAverageAllSubjects: when every node rates every subject, each
// node's estimate over its count is the subject's average rating.
func TestVectorAverageAllSubjects(t *testing.T) {
	n := 60
	g := graph.MustPA(n, 2, 100)
	m := randomReports(n, 101, 1)
	e, err := NewVectorEngine(Config{Graph: g, Epsilon: 1e-8, Seed: 102}, 0, m.RowInto)
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	if !res.Converged {
		t.Fatal("vector gossip did not converge")
	}
	for j := 0; j < n; j++ {
		want := m.ColumnRaterMean(j)
		for i := 0; i < n; i++ {
			if got := res.Estimates[i][j] / res.Counts[i][j]; math.Abs(got-want) > 1e-3 {
				t.Fatalf("average[%d][%d] = %v, want %v", i, j, got, want)
			}
		}
	}
}

// TestVectorMassConservation: the start holds each subject's rating sum in
// y and the root's unit in g, and lossy steps move both without drift.
func TestVectorMassConservation(t *testing.T) {
	n := 40
	g := graph.MustPA(n, 2, 110)
	m := randomReports(n, 111, 0.5)
	e, err := NewVectorEngine(Config{Graph: g, Epsilon: 1e-6, Seed: 112, LossProb: 0.2}, 5, m.RowInto)
	if err != nil {
		t.Fatal(err)
	}
	wantY := make([]float64, n)
	for j := 0; j < n; j++ {
		wantY[j], _ = m.ColumnSum(j)
		if e.MassY(j) != wantY[j] || e.MassG(j) != 1 {
			t.Fatalf("subject %d starts with mass (%v, %v), want (%v, 1)", j, e.MassY(j), e.MassG(j), wantY[j])
		}
	}
	for s := 0; s < 25; s++ {
		e.Step()
	}
	for j := 0; j < n; j++ {
		if math.Abs(e.MassY(j)-wantY[j]) > 1e-9*float64(n) {
			t.Fatalf("subject %d Y mass drifted", j)
		}
		if math.Abs(e.MassG(j)-1) > 1e-9*float64(n) {
			t.Fatalf("subject %d G mass drifted", j)
		}
	}
}

func TestVectorSumModeWithCounts(t *testing.T) {
	// GCLRAllFromReports' shape: the root's unit weight per subject; counts
	// track rater numbers per subject.
	n := 30
	g := graph.MustPA(n, 2, 120)
	m := randomReports(n, 121, 0.3)
	e, err := NewVectorEngine(Config{Graph: g, Epsilon: 1e-10, Seed: 122}, 0, m.RowInto)
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	if !res.Converged {
		t.Fatal("did not converge")
	}
	for j := 0; j < n; j++ {
		wantSum, raters := m.ColumnSum(j)
		if raters == 0 {
			continue
		}
		for i := 0; i < n; i++ {
			if math.Abs(res.Estimates[i][j]-wantSum) > 1e-2*math.Max(1, wantSum) {
				t.Fatalf("sum estimate[%d][%d] = %v, want %v", i, j, res.Estimates[i][j], wantSum)
			}
			if math.Abs(res.Counts[i][j]-float64(raters)) > 0.05*float64(raters)+0.01 {
				t.Fatalf("count estimate[%d][%d] = %v, want %d", i, j, res.Counts[i][j], raters)
			}
		}
	}
}

// TestVectorMessageUnits: a push carries N slots and costs N message units.
func TestVectorMessageUnits(t *testing.T) {
	n := 10
	g := graph.Ring(n)
	m := randomReports(n, 130, 1)
	e, err := NewVectorEngine(Config{Graph: g, Epsilon: 1e-6, Seed: 131}, 0, m.RowInto)
	if err != nil {
		t.Fatal(err)
	}
	e.Step()
	pushes := 0 // no loss, so every push is received
	for _, r := range e.extRecv {
		pushes += r
	}
	if pushes == 0 {
		t.Fatal("no push in the first step")
	}
	if got := e.Messages().Gossip; got != n*pushes {
		t.Fatalf("vector message units = %d, want %d × %d pushes", got, n, pushes)
	}
}

func TestVectorMatchesScalarPerSubject(t *testing.T) {
	// Cross-check: a vector run and N scalar runs from the same start must
	// agree on the converged values (both converge to per-subject sums;
	// the paths differ, the fixed point does not).
	n := 25
	g := graph.MustPA(n, 2, 140)
	m := randomReports(n, 141, 0.5)
	e, err := NewVectorEngine(Config{Graph: g, Epsilon: 1e-9, Seed: 142}, 0, m.RowInto)
	if err != nil {
		t.Fatal(err)
	}
	vres := e.Run()
	y0, g0, _ := vectorStart(m, 0)
	for j := 0; j < n; j++ {
		col := make([]float64, n)
		gcol := make([]float64, n)
		for i := 0; i < n; i++ {
			col[i] = y0[i][j]
			gcol[i] = g0[i][j]
		}
		se, err := NewEngine(Config{Graph: g, Epsilon: 1e-9, Seed: 143}, col, gcol)
		if err != nil {
			t.Fatal(err)
		}
		sres := se.Run()
		if math.Abs(vres.Estimates[0][j]-sres.Estimates[0]) > 1e-3 {
			t.Fatalf("subject %d: vector %v vs scalar %v", j, vres.Estimates[0][j], sres.Estimates[0])
		}
	}
}
