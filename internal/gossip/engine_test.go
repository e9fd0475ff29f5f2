package gossip

import (
	"math"
	"testing"
	"testing/quick"

	"diffgossip/internal/graph"
	"diffgossip/internal/rng"
)

func ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

func randomValues(n int, seed uint64) []float64 {
	src := rng.New(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = src.Float64()
	}
	return out
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func TestConfigValidation(t *testing.T) {
	g := graph.Ring(5)
	cases := []Config{
		{Graph: nil, Epsilon: 0.01},
		{Graph: g, Epsilon: 0},
		{Graph: g, Epsilon: -1},
		{Graph: g, Epsilon: 0.01, LossProb: 1},
		{Graph: g, Epsilon: 0.01, LossProb: -0.1},
		{Graph: g, Epsilon: 0.01, Protocol: FixedPush, FixedK: 0},
		{Graph: g, Epsilon: 0.01, MaxSteps: -1},
	}
	for i, cfg := range cases {
		if _, err := NewEngine(cfg, ones(5), ones(5)); err == nil {
			t.Errorf("case %d: bad config accepted: %+v", i, cfg)
		}
	}
}

func TestNewEngineShapeChecks(t *testing.T) {
	g := graph.Ring(5)
	cfg := Config{Graph: g, Epsilon: 0.01}
	if _, err := NewEngine(cfg, ones(4), ones(5)); err == nil {
		t.Fatal("short y0 accepted")
	}
	if _, err := NewEngine(cfg, ones(5), []float64{1, 1, 1, 1, -1}); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestProtocolStrings(t *testing.T) {
	for _, p := range []Protocol{DifferentialPush, NormalPush, FixedPush, CeilPush, Protocol(99)} {
		if p.String() == "" {
			t.Fatalf("empty string for protocol %d", int(p))
		}
	}
}

func TestPairRatioSentinel(t *testing.T) {
	if r := (Pair{Y: 1, G: 0}).ratio(); r != Sentinel {
		t.Fatalf("zero-weight ratio = %v, want sentinel %v", r, Sentinel)
	}
	if r := (Pair{Y: 1, G: 2}).ratio(); r != 0.5 {
		t.Fatalf("ratio = %v", r)
	}
}

func TestAverageOnCompleteGraph(t *testing.T) {
	g := graph.Complete(32)
	xs := randomValues(32, 1)
	res, err := Average(Config{Graph: g, Epsilon: 1e-8, Seed: 2}, xs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge on K32")
	}
	want := mean(xs)
	for i, est := range res.Estimates {
		if math.Abs(est-want) > 1e-4 {
			t.Fatalf("node %d estimate %v, want %v", i, est, want)
		}
	}
}

func TestAverageOnPAGraphDifferential(t *testing.T) {
	g := graph.MustPA(400, 2, 3)
	xs := randomValues(400, 4)
	res, err := Average(Config{Graph: g, Epsilon: 1e-9, Seed: 5}, xs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("differential push did not converge on PA(400,2)")
	}
	want := mean(xs)
	for i, est := range res.Estimates {
		if math.Abs(est-want) > 1e-3 {
			t.Fatalf("node %d estimate %v, want %v (err %v)", i, est, want, est-want)
		}
	}
}

func TestSumMode(t *testing.T) {
	g := graph.MustPA(100, 2, 6)
	xs := randomValues(100, 7)
	// Weight 1 at one root and 0 elsewhere: every estimate converges to
	// the network-wide sum.
	g0 := make([]float64, len(xs))
	g0[0] = 1
	e, err := NewEngine(Config{Graph: g, Epsilon: 1e-10, Seed: 8}, xs, g0)
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	if !res.Converged {
		t.Fatal("sum gossip did not converge")
	}
	want := 0.0
	for _, x := range xs {
		want += x
	}
	for i, est := range res.Estimates {
		if math.Abs(est-want)/want > 1e-3 {
			t.Fatalf("node %d sum estimate %v, want %v", i, est, want)
		}
	}
}

func TestMassConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		n := 20 + int(seed%80)
		g := graph.MustPA(n, 2, seed)
		xs := randomValues(n, seed+1)
		e, err := NewEngine(Config{Graph: g, Epsilon: 1e-6, Seed: seed + 2, LossProb: 0.1}, xs, ones(n))
		if err != nil {
			return false
		}
		wantY, wantG := e.MassY(), e.MassG()
		for s := 0; s < 30; s++ {
			e.Step()
			if math.Abs(e.MassY()-wantY) > 1e-9*float64(n) {
				return false
			}
			if math.Abs(e.MassG()-wantG) > 1e-9*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimatesWithinValueRangeProperty(t *testing.T) {
	// Push-sum estimates are convex combinations of inputs: they must stay
	// within [min, max] of the initial values once G > 0.
	f := func(seed uint64) bool {
		n := 20 + int(seed%50)
		g := graph.MustPA(n, 2, seed)
		xs := randomValues(n, seed+9)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		e, err := NewEngine(Config{Graph: g, Epsilon: 1e-6, Seed: seed}, xs, ones(n))
		if err != nil {
			return false
		}
		for s := 0; s < 40; s++ {
			e.Step()
			for i := 0; i < n; i++ {
				est := e.Estimate(i)
				if est < lo-1e-9 || est > hi+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	g := graph.MustPA(200, 2, 10)
	xs := randomValues(200, 11)
	run := func() Result {
		res, err := Average(Config{Graph: g, Epsilon: 1e-6, Seed: 12}, xs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Steps != b.Steps || a.Messages != b.Messages {
		t.Fatalf("same seed, different runs: %+v vs %+v", a.Messages, b.Messages)
	}
	for i := range a.Estimates {
		if a.Estimates[i] != b.Estimates[i] {
			t.Fatalf("estimate %d differs", i)
		}
	}
}

func TestDifferentialBeatsNormalPushOnPA(t *testing.T) {
	// The headline claim (Figure 3): differential push needs fewer steps
	// than normal push on power-law graphs, and the gap widens with N.
	for _, n := range []int{500, 2000} {
		g := graph.MustPA(n, 2, 21)
		xs := randomValues(n, 22)
		diff, err := Average(Config{Graph: g, Epsilon: 1e-6, Seed: 23}, xs)
		if err != nil {
			t.Fatal(err)
		}
		norm, err := Average(Config{Graph: g, Epsilon: 1e-6, Seed: 23, Protocol: NormalPush}, xs)
		if err != nil {
			t.Fatal(err)
		}
		if !diff.Converged {
			t.Fatalf("n=%d: differential did not converge", n)
		}
		if norm.Converged && norm.Steps < diff.Steps {
			t.Fatalf("n=%d: normal push (%d steps) beat differential (%d steps)", n, norm.Steps, diff.Steps)
		}
	}
}

func TestPacketLossSlowsButConverges(t *testing.T) {
	g := graph.MustPA(500, 2, 30)
	xs := randomValues(500, 31)
	base, err := Average(Config{Graph: g, Epsilon: 1e-6, Seed: 32}, xs)
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := Average(Config{Graph: g, Epsilon: 1e-6, Seed: 32, LossProb: 0.3}, xs)
	if err != nil {
		t.Fatal(err)
	}
	if !lossy.Converged {
		t.Fatal("30% loss prevented convergence")
	}
	if lossy.Messages.Lost == 0 {
		t.Fatal("loss model dropped nothing at p=0.3")
	}
	want := mean(xs)
	for i, est := range lossy.Estimates {
		if math.Abs(est-want) > 5e-3 {
			t.Fatalf("node %d estimate %v under loss, want %v", i, est, want)
		}
	}
	// Loss should not make convergence dramatically faster.
	if lossy.Steps < base.Steps/2 {
		t.Fatalf("lossy run (%d) much faster than lossless (%d)?", lossy.Steps, base.Steps)
	}
}

func TestCountGossip(t *testing.T) {
	// 40-node PA graph; 10 raters hold values. Sum mode: root weight at
	// node 0. Counts must converge to the number of raters.
	n := 40
	g := graph.MustPA(n, 2, 40)
	y0 := make([]float64, n)
	g0 := make([]float64, n)
	c0 := make([]float64, n)
	g0[0] = 1
	raters := 10
	for i := 0; i < raters; i++ {
		y0[i] = 0.5
		c0[i] = 1
	}
	e, err := NewEngine(Config{Graph: g, Epsilon: 1e-10, Seed: 41}, y0, g0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableCountGossip(c0); err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	if !res.Converged {
		t.Fatal("count gossip did not converge")
	}
	for i, c := range res.Counts {
		if math.Abs(c-float64(raters))/float64(raters) > 1e-3 {
			t.Fatalf("node %d count estimate %v, want %d", i, c, raters)
		}
	}
	for i, y := range res.Estimates {
		if math.Abs(y-0.5*float64(raters)) > 1e-2 {
			t.Fatalf("node %d sum estimate %v, want %v", i, y, 0.5*float64(raters))
		}
	}
}

func TestEnableCountGossipErrors(t *testing.T) {
	g := graph.Ring(4)
	e, err := NewEngine(Config{Graph: g, Epsilon: 0.01, Seed: 1}, ones(4), ones(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableCountGossip(ones(3)); err == nil {
		t.Fatal("wrong-length count vector accepted")
	}
	e.Step()
	if err := e.EnableCountGossip(ones(4)); err == nil {
		t.Fatal("EnableCountGossip after stepping accepted")
	}
}

func TestMessageAccounting(t *testing.T) {
	g := graph.Ring(10) // all k=1
	e, err := NewEngine(Config{Graph: g, Epsilon: 1e-9, Seed: 50}, randomValues(10, 51), ones(10))
	if err != nil {
		t.Fatal(err)
	}
	// Setup: degree exchange = sum of degrees = 2M = 20.
	if e.msgs.Setup != 20 {
		t.Fatalf("setup messages = %d, want 20", e.msgs.Setup)
	}
	e.Step()
	// Each of 10 nodes pushes k=1 message.
	if e.msgs.Gossip != 10 {
		t.Fatalf("gossip messages after 1 step = %d, want 10", e.msgs.Gossip)
	}
	res := e.Run()
	if res.Messages.Total() != res.Messages.Setup+res.Messages.Gossip+res.Messages.Announce {
		t.Fatal("Total inconsistent")
	}
	ppns := res.Messages.PerNodePerStep(10, res.Steps)
	if ppns <= 0 {
		t.Fatalf("per-node-per-step = %v", ppns)
	}
	if got := (Messages{}).PerNodePerStep(0, 0); got != 0 {
		t.Fatalf("degenerate PerNodePerStep = %v", got)
	}
}

func TestStoppedNodesFreeze(t *testing.T) {
	// After full convergence, Run returns; calling Step again must keep
	// mass intact (stopped nodes push to themselves).
	g := graph.Complete(8)
	xs := randomValues(8, 60)
	e, err := NewEngine(Config{Graph: g, Epsilon: 1e-8, Seed: 61}, xs, ones(8))
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	y, gm := e.MassY(), e.MassG()
	e.Step()
	if math.Abs(e.MassY()-y) > 1e-12 || math.Abs(e.MassG()-gm) > 1e-12 {
		t.Fatal("stopped engine leaked mass")
	}
}

func TestIsolatedNodeDoesNotBlockOthers(t *testing.T) {
	// A graph with an isolated node: the rest must still converge. The
	// isolated node keeps its own value (its neighbourhood is trivially
	// converged once it stops changing... it never receives, so it never
	// self-converges; the engine must still terminate via MaxSteps).
	g := graph.New(5)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			_ = g.AddEdge(u, v)
		}
	}
	xs := []float64{0.1, 0.2, 0.3, 0.4, 0.9}
	res, err := Average(Config{Graph: g, Epsilon: 1e-8, Seed: 70, MaxSteps: 200}, xs)
	if err != nil {
		t.Fatal(err)
	}
	want := (0.1 + 0.2 + 0.3 + 0.4) / 5 // connected component's mass / its G... see below
	_ = want
	// The 4-clique nodes converge among themselves to the mean of their
	// own values (their mass never mixes with the isolated node's).
	cliqueWant := (0.1 + 0.2 + 0.3 + 0.4) / 4
	for i := 0; i < 4; i++ {
		if math.Abs(res.Estimates[i]-cliqueWant) > 1e-4 {
			t.Fatalf("clique node %d estimate %v, want %v", i, res.Estimates[i], cliqueWant)
		}
	}
	if res.Estimates[4] != 0.9 {
		t.Fatalf("isolated node value changed: %v", res.Estimates[4])
	}
}

func TestMinStepsDelaysConvergence(t *testing.T) {
	g := graph.Complete(6)
	xs := ones(6) // identical values: ratio is stable from step 1
	fast, err := Average(Config{Graph: g, Epsilon: 1e-3, Seed: 80}, xs)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Average(Config{Graph: g, Epsilon: 1e-3, Seed: 80, MinSteps: 10}, xs)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Steps < 10 {
		t.Fatalf("MinSteps ignored: %d steps", slow.Steps)
	}
	if fast.Steps >= slow.Steps {
		t.Fatalf("MinSteps had no effect: fast=%d slow=%d", fast.Steps, slow.Steps)
	}
}

func TestFixedAndCeilProtocols(t *testing.T) {
	g := graph.MustPA(300, 2, 90)
	xs := randomValues(300, 91)
	for _, p := range []Protocol{FixedPush, CeilPush} {
		cfg := Config{Graph: g, Epsilon: 1e-6, Seed: 92, Protocol: p, FixedK: 2}
		res, err := Average(cfg, xs)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if !res.Converged {
			t.Fatalf("%v did not converge", p)
		}
		want := mean(xs)
		for i, est := range res.Estimates {
			if math.Abs(est-want) > 1e-2 {
				t.Fatalf("%v: node %d estimate %v, want %v", p, i, est, want)
			}
		}
	}
}

func TestFanoutCapAtDegree(t *testing.T) {
	// Star centre has k = n-1 ratio but also degree n-1; leaves have
	// degree 1 so k must cap at 1.
	g := graph.Star(6)
	cfg := Config{Graph: g, Epsilon: 0.01, Seed: 1}
	ks := cfg.fanouts()
	if ks[0] != 5 {
		t.Fatalf("star centre fanout = %d, want 5", ks[0])
	}
	for i := 1; i < 6; i++ {
		if ks[i] != 1 {
			t.Fatalf("leaf fanout = %d, want 1", ks[i])
		}
	}
	// FixedK larger than degree must also cap.
	cfg = Config{Graph: g, Epsilon: 0.01, Protocol: FixedPush, FixedK: 4}
	ks = cfg.fanouts()
	for i := 1; i < 6; i++ {
		if ks[i] != 1 {
			t.Fatalf("leaf fixed fanout = %d, want capped 1", ks[i])
		}
	}
}

func TestLastDeltaShrinks(t *testing.T) {
	g := graph.MustPA(200, 2, 95)
	xs := randomValues(200, 96)
	e, err := NewEngine(Config{Graph: g, Epsilon: 1e-9, Seed: 97}, xs, ones(200))
	if err != nil {
		t.Fatal(err)
	}
	// stepDelta steps once and returns the largest per-node ratio move.
	stepDelta := func() float64 {
		before := e.Estimates()
		e.Step()
		d := 0.0
		for i, r := range e.Estimates() {
			d = math.Max(d, math.Abs(r-before[i]))
		}
		return d
	}
	for s := 0; s < 4; s++ {
		e.Step()
	}
	early := stepDelta()
	for s := 0; s < 59; s++ {
		e.Step()
	}
	late := stepDelta()
	if late >= early {
		t.Fatalf("delta did not shrink: early=%v late=%v", early, late)
	}
}

// column builds a single-subject initial column: raters drawn from src hold
// a value and unit weight, everyone else nothing.
func column(n int, src *rng.Source) (y0, g0 []float64) {
	y0 = make([]float64, n)
	g0 = make([]float64, n)
	for i := 0; i < n; i++ {
		if src.Bool(0.3) {
			y0[i] = src.Float64()
			g0[i] = 1
		}
	}
	if g0[0] == 0 { // ensure at least one rater
		y0[0], g0[0] = 0.5, 1
	}
	return y0, g0
}

// TestResetMatchesFreshConstruction: an engine Reset to a new (seed, column)
// must replay bit-for-bit what a freshly constructed engine produces — the
// property that lets core.GlobalSubjects reuse one engine across thousands of
// per-subject campaigns — however the previous run left it: here every
// campaign ends with a crashed node, an overridden pair and a link fault
// installed, all of which Reset must scrub.
func TestResetMatchesFreshConstruction(t *testing.T) {
	const n = 120
	g, err := graph.PreferentialAttachment(graph.PAConfig{N: n, M: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(17)
	cfg := Config{Graph: g, Epsilon: 1e-7, Seed: 1, LossProb: 0.1}

	y0, g0 := column(n, src)
	reused, err := NewEngine(cfg, y0, g0)
	if err != nil {
		t.Fatal(err)
	}
	gotCol := make([]float64, n)
	wantCol := make([]float64, n)
	for campaign := 0; campaign < 5; campaign++ {
		// Dirty every piece of run state before the comparison campaign.
		reused.Step()
		if err := reused.Crash(campaign + 1); err != nil {
			t.Fatal(err)
		}
		if err := reused.Override(campaign+2, 3, 2); err != nil {
			t.Fatal(err)
		}
		reused.SetLinkFault(func(from, to int) bool { return (from+to)%3 == 0 })
		reused.RunInto(gotCol)

		cfg.Seed = src.Uint64()
		y0, g0 = column(n, src)
		fresh, err := NewEngine(cfg, y0, g0)
		if err != nil {
			t.Fatal(err)
		}
		if err := reused.Reset(cfg.Seed, y0, g0); err != nil {
			t.Fatal(err)
		}
		wb, wi, wl := fresh.MassLedger()
		if gb, gi, gl := reused.MassLedger(); gb != wb || gi != wi || gl != wl {
			t.Fatalf("campaign %d: reset ledger (%v %v %v) != fresh (%v %v %v)", campaign, gb, gi, gl, wb, wi, wl)
		}

		wantSteps, wantConv := fresh.RunInto(wantCol)
		gotSteps, gotConv := reused.RunInto(gotCol)
		if wantSteps != gotSteps || wantConv != gotConv {
			t.Fatalf("campaign %d: reset run (steps=%d conv=%v) != fresh (steps=%d conv=%v)",
				campaign, gotSteps, gotConv, wantSteps, wantConv)
		}
		if fresh.Messages() != reused.Messages() {
			t.Fatalf("campaign %d: message tallies diverged: %+v vs %+v", campaign, reused.Messages(), fresh.Messages())
		}
		for i := 0; i < n; i++ {
			if wantCol[i] != gotCol[i] {
				t.Fatalf("campaign %d node %d: reset %v != fresh %v", campaign, i, gotCol[i], wantCol[i])
			}
			if reused.Down(i) {
				t.Fatalf("campaign %d: node %d still down after Reset", campaign, i)
			}
		}
	}

	// The reuse path's cost, as a count: a warmed engine resets and runs a
	// whole campaign without touching the heap.
	seed := cfg.Seed
	if allocs := testing.AllocsPerRun(5, func() {
		seed++
		if err := reused.Reset(seed, y0, g0); err != nil {
			t.Fatal(err)
		}
		reused.RunInto(gotCol)
	}); allocs != 0 {
		t.Fatalf("Reset + RunInto allocated %v times on a warmed engine", allocs)
	}
}

// TestResetRejects: Reset validates its vectors like NewEngine does and
// refuses an engine carrying Algorithm 2's count mass.
func TestResetRejects(t *testing.T) {
	cfg := Config{Graph: graph.Ring(5), Epsilon: 0.01}
	e, err := NewEngine(cfg, ones(5), ones(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Reset(1, ones(4), ones(5)); err == nil {
		t.Error("short y0 accepted")
	}
	if err := e.Reset(1, ones(5), []float64{1, 1, -1, 1, 1}); err == nil {
		t.Error("negative weight accepted")
	}
	if err := e.Reset(1, ones(5), ones(5)); err != nil {
		t.Errorf("valid Reset after a rejected one: %v", err)
	}
	if err := e.EnableCountGossip(ones(5)); err != nil {
		t.Fatal(err)
	}
	if err := e.Reset(1, ones(5), ones(5)); err == nil {
		t.Error("Reset with count gossip enabled accepted")
	}
}
