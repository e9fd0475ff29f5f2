package gossip

import (
	"errors"
	"math"
	"testing"

	"diffgossip/internal/graph"
	"diffgossip/internal/rng"
)

// buildVectorInputs sets up an all-subjects average: y0[i][j] random,
// g0[i][j] = 1 (every node rates every subject).
func buildVectorInputs(n int, seed uint64) (y0, g0 [][]float64) {
	src := rng.New(seed)
	y0, g0 = alloc(n), alloc(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			y0[i][j] = src.Float64()
			g0[i][j] = 1
		}
	}
	return y0, g0
}

// buildGCLRInputs sets up core.GCLRAllFromReports' shape: node 0 carries
// the unit weight for every subject, and every other node reports a random
// value for every subject with a rater count of 1.
func buildGCLRInputs(n int, seed uint64) (y0, g0, c0 [][]float64) {
	src := rng.New(seed)
	y0, g0, c0 = alloc(n), alloc(n), alloc(n)
	for j := 0; j < n; j++ {
		g0[0][j] = 1
	}
	for i := 1; i < n; i++ {
		for j := 0; j < n; j++ {
			y0[i][j] = src.Float64()
			c0[i][j] = 1
		}
	}
	return y0, g0, c0
}

func TestVectorEngineShapeChecks(t *testing.T) {
	g := graph.Ring(4)
	cfg := Config{Graph: g, Epsilon: 0.01}
	_, ones := buildVectorInputs(4, 1)
	if _, err := NewVectorEngine(cfg, alloc(3), ones, alloc(4)); err == nil {
		t.Fatal("short y0 accepted")
	}
	bad := alloc(4)
	bad[2][1] = -1
	if _, err := NewVectorEngine(cfg, alloc(4), bad, alloc(4)); err == nil {
		t.Fatal("negative weight accepted")
	}
	ragged := alloc(4)
	ragged[1] = ragged[1][:2]
	if _, err := NewVectorEngine(cfg, ragged, ones, alloc(4)); err == nil {
		t.Fatal("ragged y0 row accepted")
	}
	if _, err := NewVectorEngine(cfg, alloc(4), ragged, alloc(4)); err == nil {
		t.Fatal("ragged g0 row accepted")
	}
	if _, err := NewVectorEngine(cfg, alloc(4), ones, alloc(4)); err != nil {
		t.Fatal(err)
	}
}

// TestVectorUnweightedSubjectRefused: a subject column with no weight at any
// node could never report a ratio, so no node would converge; the
// constructor refuses it by name instead of letting the run spin to its step
// budget.
func TestVectorUnweightedSubjectRefused(t *testing.T) {
	n := 6
	y0, g0 := buildVectorInputs(n, 2)
	for i := 0; i < n; i++ {
		g0[i][4] = 0
	}
	_, err := NewVectorEngine(Config{Graph: graph.Ring(n), Epsilon: 0.01}, y0, g0, alloc(n))
	if !errors.Is(err, ErrUnweightedSubject) {
		t.Fatalf("err = %v, want ErrUnweightedSubject", err)
	}
	g0[3][4] = 0.5 // one node's weight is enough
	if _, err := NewVectorEngine(Config{Graph: graph.Ring(n), Epsilon: 0.01}, y0, g0, alloc(n)); err != nil {
		t.Fatal(err)
	}
}

func TestVectorAverageAllSubjects(t *testing.T) {
	n := 60
	g := graph.MustPA(n, 2, 100)
	y0, g0 := buildVectorInputs(n, 101)
	e, err := NewVectorEngine(Config{Graph: g, Epsilon: 1e-8, Seed: 102}, y0, g0, alloc(n))
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	if !res.Converged {
		t.Fatal("vector gossip did not converge")
	}
	for j := 0; j < n; j++ {
		want := 0.0
		for i := 0; i < n; i++ {
			want += y0[i][j]
		}
		want /= float64(n)
		for i := 0; i < n; i++ {
			if math.Abs(res.Estimates[i][j]-want) > 1e-3 {
				t.Fatalf("estimate[%d][%d] = %v, want %v", i, j, res.Estimates[i][j], want)
			}
		}
	}
}

func TestVectorMassConservation(t *testing.T) {
	n := 40
	g := graph.MustPA(n, 2, 110)
	y0, g0 := buildVectorInputs(n, 111)
	e, err := NewVectorEngine(Config{Graph: g, Epsilon: 1e-6, Seed: 112, LossProb: 0.2}, y0, g0, alloc(n))
	if err != nil {
		t.Fatal(err)
	}
	wantY := make([]float64, n)
	wantG := make([]float64, n)
	for j := 0; j < n; j++ {
		wantY[j], wantG[j] = e.MassY(j), e.MassG(j)
	}
	for s := 0; s < 25; s++ {
		e.Step()
	}
	for j := 0; j < n; j++ {
		if math.Abs(e.MassY(j)-wantY[j]) > 1e-9*float64(n) {
			t.Fatalf("subject %d Y mass drifted", j)
		}
		if math.Abs(e.MassG(j)-wantG[j]) > 1e-9*float64(n) {
			t.Fatalf("subject %d G mass drifted", j)
		}
	}
}

func TestVectorSumModeWithCounts(t *testing.T) {
	// GCLRAllFromReports' shape: single root weight per subject; counts
	// track rater numbers per subject.
	n := 30
	g := graph.MustPA(n, 2, 120)
	src := rng.New(121)
	y0, g0 := alloc(n), alloc(n)
	c0 := alloc(n)
	ratersPerSubject := make([]int, n)
	for j := 0; j < n; j++ {
		g0[0][j] = 1 // node 0 is the root for every subject
		for i := 0; i < n; i++ {
			if i != j && src.Bool(0.3) {
				y0[i][j] = src.Float64()
				c0[i][j] = 1
				ratersPerSubject[j]++
			}
		}
	}
	e, err := NewVectorEngine(Config{Graph: g, Epsilon: 1e-10, Seed: 122}, y0, g0, c0)
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	if !res.Converged {
		t.Fatal("did not converge")
	}
	for j := 0; j < n; j++ {
		if ratersPerSubject[j] == 0 {
			continue
		}
		wantSum := 0.0
		for i := 0; i < n; i++ {
			wantSum += y0[i][j]
		}
		for i := 0; i < n; i++ {
			if math.Abs(res.Estimates[i][j]-wantSum) > 1e-2*math.Max(1, wantSum) {
				t.Fatalf("sum estimate[%d][%d] = %v, want %v", i, j, res.Estimates[i][j], wantSum)
			}
			if math.Abs(res.Counts[i][j]-float64(ratersPerSubject[j])) > 0.05*float64(ratersPerSubject[j])+0.01 {
				t.Fatalf("count estimate[%d][%d] = %v, want %d", i, j, res.Counts[i][j], ratersPerSubject[j])
			}
		}
	}
}

func TestVectorCountGossipErrors(t *testing.T) {
	g := graph.Ring(4)
	y0, g0 := buildVectorInputs(4, 1)
	cfg := Config{Graph: g, Epsilon: 0.1, Seed: 1}
	if _, err := NewVectorEngine(cfg, y0, g0, alloc(3)); err == nil {
		t.Fatal("wrong-size count matrix accepted")
	}
	ragged := alloc(4)
	ragged[1] = ragged[1][:2]
	if _, err := NewVectorEngine(cfg, y0, g0, ragged); err == nil {
		t.Fatal("ragged count row accepted")
	}
}

// TestVectorMessageUnits: a push carries N slots and costs N message units.
func TestVectorMessageUnits(t *testing.T) {
	n := 10
	g := graph.Ring(n)
	y0, g0 := buildVectorInputs(n, 130)
	e, err := NewVectorEngine(Config{Graph: g, Epsilon: 1e-6, Seed: 131}, y0, g0, alloc(n))
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
	// Cross-check: a vector run and N scalar runs must agree on the
	// converged values (both converge to per-subject means; the paths
	// differ, the fixed point does not).
	n := 25
	g := graph.MustPA(n, 2, 140)
	y0, g0 := buildVectorInputs(n, 141)
	e, err := NewVectorEngine(Config{Graph: g, Epsilon: 1e-9, Seed: 142}, y0, g0, alloc(n))
	if err != nil {
		t.Fatal(err)
	}
	vres := e.Run()
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
