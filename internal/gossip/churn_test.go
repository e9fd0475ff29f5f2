package gossip

import (
	"math"
	"testing"

	"diffgossip/internal/graph"
	"diffgossip/internal/rng"
)

// ledgerErr returns the relative deviation of got from want.
func ledgerErr(got, want float64) float64 {
	d := math.Abs(got - want)
	if w := math.Abs(want); w > 1 {
		return d / w
	}
	return d
}

// checkScalarLedger asserts the engine's mass matches its churn ledger.
func checkScalarLedger(t *testing.T, e *Engine, ctx string) {
	t.Helper()
	base, inj, lost := e.MassLedger()
	if err := ledgerErr(e.MassY(), base.Y+inj.Y-lost.Y); err > 1e-9 {
		t.Fatalf("%s: Y mass drift %v", ctx, err)
	}
	if err := ledgerErr(e.MassG(), base.G+inj.G-lost.G); err > 1e-9 {
		t.Fatalf("%s: G mass drift %v", ctx, err)
	}
}

func newChurnEngine(t *testing.T, n int, seed uint64) (*Engine, *graph.Graph) {
	t.Helper()
	g := graph.MustPA(n, 2, seed)
	src := rng.New(seed + 1)
	y0 := make([]float64, n)
	g0 := make([]float64, n)
	for i := range y0 {
		y0[i] = src.Float64()
		g0[i] = 1
	}
	e, err := NewEngine(Config{Graph: g, Epsilon: 1e-4, Seed: seed + 2}, y0, g0)
	if err != nil {
		t.Fatal(err)
	}
	return e, g
}

func TestEngineCrashLosesExactlyHeldMass(t *testing.T) {
	e, _ := newChurnEngine(t, 50, 1)
	for i := 0; i < 5; i++ {
		e.Step()
	}
	held := e.Held(7)
	before := e.MassY()
	if err := e.Crash(7); err != nil {
		t.Fatal(err)
	}
	if !e.Down(7) {
		t.Fatal("crashed node not down")
	}
	if got := before - e.MassY(); math.Abs(got-held.Y) > 1e-12 {
		t.Fatalf("crash destroyed %v, node held %v", got, held.Y)
	}
	checkScalarLedger(t, e, "after crash")
	for i := 0; i < 20; i++ {
		e.Step()
		checkScalarLedger(t, e, "stepping after crash")
	}
	if e.Estimate(7) != 0 {
		t.Fatalf("down node has estimate %v", e.Estimate(7))
	}
	// Double crash is rejected.
	if err := e.Crash(7); err == nil {
		t.Fatal("double crash accepted")
	}
}

func TestEngineLeaveHandsMassOff(t *testing.T) {
	e, _ := newChurnEngine(t, 50, 2)
	for i := 0; i < 5; i++ {
		e.Step()
	}
	before := e.MassY()
	if err := e.Leave(3); err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.MassY()-before) > 1e-12 {
		t.Fatalf("graceful leave changed total mass by %v", e.MassY()-before)
	}
	_, _, lost := e.MassLedger()
	if lost.Y != 0 || lost.G != 0 {
		t.Fatalf("graceful leave recorded loss %+v", lost)
	}
	for i := 0; i < 20; i++ {
		e.Step()
		checkScalarLedger(t, e, "stepping after leave")
	}
}

func TestEngineRejoinInjectsFreshMass(t *testing.T) {
	e, _ := newChurnEngine(t, 40, 3)
	e.Step()
	if err := e.Rejoin(4, 0.5, 1); err == nil {
		t.Fatal("rejoin of an alive node accepted")
	}
	if err := e.Crash(4); err != nil {
		t.Fatal(err)
	}
	if err := e.Rejoin(4, 0.5, 1); err != nil {
		t.Fatal(err)
	}
	if e.Down(4) {
		t.Fatal("rejoined node still down")
	}
	checkScalarLedger(t, e, "after rejoin")
	for i := 0; i < 30; i++ {
		e.Step()
		checkScalarLedger(t, e, "stepping after rejoin")
	}
	if e.Estimate(4) == 0 {
		t.Fatal("rejoined node never recovered an estimate")
	}
}

func TestEngineAddNodeGrowsRun(t *testing.T) {
	e, g := newChurnEngine(t, 30, 4)
	for i := 0; i < 3; i++ {
		e.Step()
	}
	src := rng.New(99)
	id := graph.AttachPreferential(g, 2, src, nil)
	got, err := e.AddNode(0.9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != id || got != 30 {
		t.Fatalf("AddNode id %d, graph id %d", got, id)
	}
	e.RefreshFanouts()
	checkScalarLedger(t, e, "after join")
	for i := 0; i < 40; i++ {
		e.Step()
		checkScalarLedger(t, e, "stepping after join")
	}
	if e.Estimate(30) == 0 {
		t.Fatal("joined node never got an estimate")
	}
	// AddNode without growing the graph first is rejected.
	if _, err := e.AddNode(1, 1); err == nil {
		t.Fatal("AddNode accepted without a grown graph")
	}
}

func TestEngineLinkFaultPartitionIsolates(t *testing.T) {
	// Two PA cells joined by a single bridge; faulting the bridge splits
	// the averages.
	g := graph.MustPA(40, 2, 5)
	src := rng.New(6)
	y0 := make([]float64, 40)
	g0 := make([]float64, 40)
	for i := range y0 {
		if i < 20 {
			y0[i] = 0
		} else {
			y0[i] = 1
		}
		g0[i] = 1
		_ = src
	}
	e, err := NewEngine(Config{Graph: g, Epsilon: 1e-5, Seed: 7}, y0, g0)
	if err != nil {
		t.Fatal(err)
	}
	cell := func(i int) int {
		if i < 20 {
			return 0
		}
		return 1
	}
	e.SetLinkFault(func(from, to int) bool { return cell(from) != cell(to) })
	for i := 0; i < 50; i++ {
		e.Step()
		checkScalarLedger(t, e, "partitioned step")
	}
	// Cross-cell flow is blocked: cell 0's mass ratio stays near 0, cell
	// 1's near 1 (each cell only mixes internally).
	for i := 0; i < 40; i++ {
		est := e.Estimate(i)
		if cell(i) == 0 && est > 0.4 {
			t.Fatalf("node %d in cell 0 drifted to %v under partition", i, est)
		}
		if cell(i) == 1 && est < 0.6 && est != 0 {
			t.Fatalf("node %d in cell 1 drifted to %v under partition", i, est)
		}
	}
	// Heal and converge: estimates meet in the middle.
	e.SetLinkFault(nil)
	for i := 0; i < 400; i++ {
		if !e.Step() {
			break
		}
	}
	mid := e.MassY() / e.MassG()
	for i := 0; i < 40; i++ {
		if d := math.Abs(e.Estimate(i) - mid); d > 0.05 {
			t.Fatalf("node %d stuck at %v after heal (reference %v)", i, e.Estimate(i), mid)
		}
	}
}

func TestEngineSetLossProbMidRun(t *testing.T) {
	e, _ := newChurnEngine(t, 30, 8)
	if err := e.SetLossProb(1.5); err == nil {
		t.Fatal("invalid loss probability accepted")
	}
	if err := e.SetLossProb(0.9); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		e.Step()
		checkScalarLedger(t, e, "lossy step")
	}
	if e.Messages().Lost == 0 {
		t.Fatal("no pushes lost at 90% loss")
	}
}

func TestOverrideWakesConvergedRegion(t *testing.T) {
	// Regression: Override on a node whose whole neighbourhood had
	// converged used to leave it stopped, so a collusion lie injected into
	// a quiet region sat inert and never gossiped.
	e, _ := newChurnEngine(t, 40, 21)
	for i := 0; i < 4000; i++ {
		if !e.Step() {
			break
		}
	}
	if e.Step() {
		t.Fatal("network did not converge before the override")
	}
	before := e.Estimate(10)
	p := e.Held(3)
	if err := e.Override(3, 1*p.G, p.G); err != nil { // lie: estimate 1
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if !e.Step() {
			break
		}
	}
	after := e.Estimate(10)
	if math.Abs(after-before) < 1e-6 {
		t.Fatalf("override never propagated: estimate at node 10 stayed %v", before)
	}
	checkScalarLedger(t, e, "after override propagation")
}
