package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"diffgossip/internal/collusion"
	"diffgossip/internal/gossip"
	"diffgossip/internal/graph"
	"diffgossip/internal/rng"
	"diffgossip/internal/trust"
)

// denseWorkload builds a PA graph and a trust matrix where every ordered pair
// transacted with the given density; overlay neighbours always have.
func denseWorkload(t *testing.T, n int, density float64, seed uint64) (*graph.Graph, *trust.Matrix) {
	t.Helper()
	g := graph.MustPA(n, 2, seed)
	w, err := trust.GenerateWorkload(trust.WorkloadConfig{
		N:               n,
		Density:         density,
		NeighborDensity: 1,
		Adjacent:        g.HasEdge,
		Seed:            seed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, w.Matrix
}

// withoutCells copies m without the cells drop names: a trust.Matrix only
// gains ratings, so a test that needs fewer builds the smaller matrix.
func withoutCells(m *trust.Matrix, drop func(i, j int) bool) *trust.Matrix {
	out := trust.NewMatrix(m.N())
	var ids []int
	var vals []float64
	for i := 0; i < m.N(); i++ {
		ids, vals = m.RowInto(i, ids[:0], vals[:0])
		for k, j := range ids {
			if !drop(i, j) {
				_ = out.Set(i, j, vals[k])
			}
		}
	}
	return out
}

func params(eps float64, seed uint64) Params {
	return Params{Epsilon: eps, Seed: seed}
}

func TestParamsValidation(t *testing.T) {
	g := graph.Ring(5)
	tm := trust.NewMatrix(5)
	if _, err := GlobalSingle(nil, tm, 0, params(1e-4, 1)); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := GlobalSingle(g, trust.NewMatrix(4), 0, params(1e-4, 1)); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if _, err := GlobalSingle(g, nil, 0, params(1e-4, 1)); err == nil {
		t.Fatal("nil matrix accepted")
	}
	bad := params(1e-4, 1)
	bad.Root = 7
	if _, err := GCLRSingle(g, tm, 0, bad); err == nil {
		t.Fatal("bad root accepted")
	}
	badW := params(1e-4, 1)
	badW.Weights = trust.WeightParams{A: 0.2, B: 1}
	if _, err := GCLRSingle(g, tm, 0, badW); err == nil {
		t.Fatal("bad weights accepted")
	}
}

func TestGlobalSingleConvergesToRaterMean(t *testing.T) {
	g, tm := denseWorkload(t, 150, 0.2, 10)
	j := 7
	res, err := GlobalSingle(g, tm, j, params(1e-8, 11))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("algorithm 1 did not converge")
	}
	want := GlobalRef(tm, j)
	for i, got := range res.PerNode {
		if math.Abs(got-want) > 1e-3 {
			t.Fatalf("node %d: R_j = %v, want %v", i, got, want)
		}
	}
}

func TestGlobalSingleNoRaters(t *testing.T) {
	g := graph.MustPA(50, 2, 12)
	tm := trust.NewMatrix(50)
	res, err := GlobalSingle(g, tm, 3, params(1e-6, 13))
	if err != nil {
		t.Fatal(err)
	}
	// With zero mass everywhere the estimates must be all zero (never
	// negative, never the sentinel).
	for i, got := range res.PerNode {
		if got != 0 {
			t.Fatalf("node %d: estimate %v for unrated subject", i, got)
		}
	}
}

func TestGlobalSingleDefaultsApplied(t *testing.T) {
	g, tm := denseWorkload(t, 60, 0.3, 14)
	res, err := GlobalSingle(g, tm, 0, Params{Seed: 15}) // zero Epsilon/Weights
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("defaults run did not converge")
	}
}

func TestGCLRSingleMatchesReference(t *testing.T) {
	g, tm := denseWorkload(t, 120, 0.25, 20)
	j := 5
	p := params(1e-9, 21)
	res, err := GCLRSingle(g, tm, j, p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("algorithm 2 did not converge")
	}
	for i, got := range res.PerNode {
		want := GCLRRef(tm, i, j, p)
		if math.Abs(got-want) > 5e-3 {
			t.Fatalf("node %d: Rep = %v, want %v", i, got, want)
		}
	}
}

// gclrSingleDigest folds everything a GCLRSingle run publishes — every
// per-node reputation and count, the step count, the convergence flag and
// the message tallies — into h.
func gclrSingleDigest(h hash.Hash64, res *SingleResult) {
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for i := range res.PerNode {
		word(math.Float64bits(res.PerNode[i]))
		word(math.Float64bits(res.Counts[i]))
	}
	conv := 0
	if res.Converged {
		conv = 1
	}
	for _, v := range []int{
		res.Steps, conv,
		res.Messages.Setup, res.Messages.Gossip, res.Messages.Announce,
		res.Messages.Lost, res.Messages.ActiveNodeSteps,
	} {
		word(uint64(v))
	}
}

// TestGCLRSinglePinnedDigest is the absolute guard on Algorithm 2's bits:
// GCLRSingle over PA overlays with M = 1, 2, 3 (a tree of degree-1 leaves,
// then hubs with fan-out k > 1), with and without packet loss, for a
// well-rated, a thinly rated and an unrated subject, must hash to constants
// captured before the count mass moved onto the plain step kernel.
func TestGCLRSinglePinnedDigest(t *testing.T) {
	const n = 150
	rows := []struct {
		m      int
		loss   float64
		digest uint64
	}{
		{1, 0, 0xc47815a053073bcb},
		{1, 0.2, 0xfca4b54e81b8fd32},
		{2, 0, 0x459e18d72795a51c},
		{2, 0.2, 0x1c9bcef7c585dfe3},
		{3, 0, 0x3fb6567415c7e7f7},
		{3, 0.2, 0x567ff24582572bd6},
	}
	for _, row := range rows {
		g := graph.MustPA(n, row.m, uint64(8000+row.m))
		w, err := trust.GenerateWorkload(trust.WorkloadConfig{
			N: n, Density: 0.2, NeighborDensity: 1, Adjacent: g.HasEdge, Seed: uint64(8010 + row.m),
		})
		if err != nil {
			t.Fatal(err)
		}
		// Subject 9 is thinly rated, subject 11 unrated.
		tm := withoutCells(w.Matrix, func(i, j int) bool { return j == 9 && i%10 != 0 || j == 11 })
		h := fnv.New64a()
		for _, j := range []int{4, 9, 11} {
			res, err := GCLRSingle(g, tm, j, Params{Epsilon: 1e-6, Seed: 8020, LossProb: row.loss})
			if err != nil {
				t.Fatal(err)
			}
			gclrSingleDigest(h, res)
		}
		if got := h.Sum64(); got != row.digest {
			t.Errorf("m=%d loss=%v: digest %#x, pinned %#x", row.m, row.loss, got, row.digest)
		}
	}
}

func TestGCLRSingleCountsRaters(t *testing.T) {
	g, tm := denseWorkload(t, 100, 0.3, 30)
	j := 9
	raters, _ := tm.RatersOfInto(j, nil, nil)
	res, err := GCLRSingle(g, tm, j, params(1e-9, 31))
	if err != nil {
		t.Fatal(err)
	}
	want := float64(len(raters))
	for i, c := range res.Counts {
		if math.Abs(c-want) > 0.02*want+0.05 {
			t.Fatalf("node %d: count %v, want %v", i, c, want)
		}
	}
}

func TestGCLRSingleReputationInUnitInterval(t *testing.T) {
	g, tm := denseWorkload(t, 80, 0.3, 40)
	for _, j := range []int{0, 17, 42} {
		res, err := GCLRSingle(g, tm, j, params(1e-7, 41))
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range res.PerNode {
			if v < -1e-9 || v > 1+1e-9 {
				t.Fatalf("Rep[%d][%d] = %v out of [0,1]", i, j, v)
			}
		}
	}
}

func TestGCLRDiffersFromGlobalWhenWeightsMatter(t *testing.T) {
	// Observer 0 trusts neighbour fully; that neighbour's opinion of the
	// subject diverges from the crowd. GCLR at node 0 must move toward the
	// trusted neighbour's opinion relative to the global value.
	n := 60
	g := graph.MustPA(n, 2, 50)
	tm := trust.NewMatrix(n)
	subject := n - 1
	nbr := g.Neighbors(0)[0]
	if err := tm.Set(0, nbr, 1.0); err != nil {
		t.Fatal(err)
	}
	_ = tm.Set(nbr, subject, 1.0)
	src := rng.New(51)
	for i := 1; i < n-1; i++ {
		if i == nbr {
			continue
		}
		_ = tm.Set(i, subject, 0.1+0.05*src.Float64())
	}
	p := params(1e-9, 52)
	gclr, err := GCLRSingle(g, tm, subject, p)
	if err != nil {
		t.Fatal(err)
	}
	global, err := GlobalSingle(g, tm, subject, p)
	if err != nil {
		t.Fatal(err)
	}
	if gclr.PerNode[0] <= global.PerNode[0] {
		t.Fatalf("GCLR at observer (%v) did not exceed global (%v) despite trusted positive feedback",
			gclr.PerNode[0], global.PerNode[0])
	}
	// A node with no direct trust in anyone must essentially agree with
	// the global estimate.
	var plain int = -1
	for i := 0; i < n; i++ {
		if len(tm.InteractedWith(i)) == 0 {
			plain = i
			break
		}
	}
	if plain >= 0 {
		if d := math.Abs(gclr.PerNode[plain] - global.PerNode[plain]); d > 5e-3 {
			t.Fatalf("unopinionated node %d: GCLR %v vs global %v", plain, gclr.PerNode[plain], global.PerNode[plain])
		}
	}
}

func TestGlobalAllMatchesSingle(t *testing.T) {
	g, tm := denseWorkload(t, 50, 0.3, 60)
	p := params(1e-9, 61)
	all, err := GlobalAll(g, tm, p)
	if err != nil {
		t.Fatal(err)
	}
	if !all.Converged {
		t.Fatal("variant 3 did not converge")
	}
	for _, j := range []int{0, 13, 49} {
		want := GlobalRef(tm, j)
		for i := 0; i < 50; i++ {
			if math.Abs(all.Reputation[i][j]-want) > 2e-3 {
				t.Fatalf("all[%d][%d] = %v, want %v", i, j, all.Reputation[i][j], want)
			}
		}
	}
}

func TestGCLRAllMatchesReference(t *testing.T) {
	g, tm := denseWorkload(t, 40, 0.35, 70)
	p := params(1e-9, 71)
	all, err := GCLRAll(g, tm, p)
	if err != nil {
		t.Fatal(err)
	}
	if !all.Converged {
		t.Fatal("variant 4 did not converge")
	}
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			ref := GCLRRef(tm, i, j, p)
			if ref == 0 {
				continue
			}
			if math.Abs(all.Reputation[i][j]-ref) > 1e-2 {
				t.Fatalf("GCLRAll[%d][%d] = %v, ref %v", i, j, all.Reputation[i][j], ref)
			}
		}
	}
}

func TestGCLRAllFromReportsHonestEqualsGCLRAll(t *testing.T) {
	g, tm := denseWorkload(t, 30, 0.4, 80)
	p := params(1e-8, 81)
	a, err := GCLRAll(g, tm, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GCLRAllFromReports(g, tm, tm, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		for j := 0; j < 30; j++ {
			if math.Abs(a.Reputation[i][j]-b.Reputation[i][j]) > 1e-12 {
				t.Fatalf("honest reports diverge at (%d,%d)", i, j)
			}
		}
	}
}

func TestGCLRAllFromReportsSizeCheck(t *testing.T) {
	g, tm := denseWorkload(t, 20, 0.4, 90)
	if _, err := GCLRAllFromReports(g, tm, trust.NewMatrix(19), params(1e-6, 91)); err == nil {
		t.Fatal("mismatched reported matrix accepted")
	}
	if _, err := GCLRAllFromReports(g, tm, nil, params(1e-6, 91)); err == nil {
		t.Fatal("nil reported matrix accepted")
	}
}

// gclrAllDigest folds everything a GCLRAllFromReports run publishes — every
// reputation and count cell, the step count, the convergence flag and the
// message tallies — into one FNV-64a word.
func gclrAllDigest(res *AllResult) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for i := range res.Reputation {
		for j := range res.Reputation[i] {
			word(math.Float64bits(res.Reputation[i][j]))
			word(math.Float64bits(res.Counts[i][j]))
		}
	}
	conv := 0
	if res.Converged {
		conv = 1
	}
	for _, v := range []int{
		res.Steps, conv,
		res.Messages.Setup, res.Messages.Gossip, res.Messages.Announce,
		res.Messages.Lost, res.Messages.ActiveNodeSteps,
	} {
		word(uint64(v))
	}
	return h.Sum64()
}

// TestGCLRAllPinnedDigest is the absolute guard on the all-subjects
// variant's bits (Figs. 5–6): GCLRAllFromReports over a PA overlay with an
// unrated subject (its column carries only the root's weight), for honest and
// colluding reports, with and without packet loss, at one worker and at
// GOMAXPROCS workers, must hash to constants captured before the vector
// engine lost its churn surface.
func TestGCLRAllPinnedDigest(t *testing.T) {
	const n = 60
	g, full := denseWorkload(t, n, 0.2, 8100)
	honest := withoutCells(full, func(_, j int) bool { return j == 11 }) // subject 11 unrated
	a, err := collusion.Model{N: n, Fraction: 0.2, GroupSize: 3, Seed: 8101}.Assign()
	if err != nil {
		t.Fatal(err)
	}
	colluding, err := a.Reported(honest)
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name     string
		reported *trust.Matrix
		loss     float64
		digest   uint64
	}{
		{"honest", honest, 0, 0x274b5c5e1c44cd54},
		{"honest", honest, 0.2, 0xc15d9a01655bb48a},
		{"colluding", colluding, 0, 0x3e0e27ca3d88f659},
		{"colluding", colluding, 0.2, 0x328d4634e90dc12a},
	}
	for _, row := range rows {
		for _, workers := range []int{0, -1} {
			res, err := GCLRAllFromReports(g, honest, row.reported, Params{
				Epsilon: 1e-6, Seed: 8102, LossProb: row.loss, Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := gclrAllDigest(res); got != row.digest {
				t.Errorf("%s loss=%v workers=%d: digest %#x, pinned %#x", row.name, row.loss, workers, got, row.digest)
			}
		}
	}
}

func TestLiarsShiftGlobalButNotDirectTrust(t *testing.T) {
	// Reported matrix inflates subject 0 at some non-rater nodes; gossiped
	// estimates must rise relative to honest gossip.
	g, tm := denseWorkload(t, 40, 0.3, 95)
	reported := tm.Clone()
	for i := 1; i < 10; i++ {
		_ = reported.Set(i, 0, 1.0)
	}
	p := params(1e-8, 96)
	honest, err := GCLRAllFromReports(g, tm, tm, p)
	if err != nil {
		t.Fatal(err)
	}
	lied, err := GCLRAllFromReports(g, tm, reported, p)
	if err != nil {
		t.Fatal(err)
	}
	obs := 20
	if lied.Reputation[obs][0] <= honest.Reputation[obs][0] {
		t.Fatalf("inflated reports did not raise estimate: %v vs %v",
			lied.Reputation[obs][0], honest.Reputation[obs][0])
	}
}

func TestProtocolOverride(t *testing.T) {
	g, tm := denseWorkload(t, 80, 0.25, 100)
	p := params(1e-6, 101)
	p.Protocol = gossip.NormalPush
	res, err := GlobalSingle(g, tm, 2, p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("normal push variant did not converge")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	g, tm := denseWorkload(t, 70, 0.3, 110)
	p := params(1e-7, 111)
	a, err := GCLRSingle(g, tm, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GCLRSingle(g, tm, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Steps != b.Steps {
		t.Fatalf("steps differ: %d vs %d", a.Steps, b.Steps)
	}
	for i := range a.PerNode {
		if a.PerNode[i] != b.PerNode[i] {
			t.Fatalf("estimate %d differs across identical runs", i)
		}
	}
}

func TestMessagesChargedForFeedbackPhase(t *testing.T) {
	g, tm := denseWorkload(t, 50, 0.3, 120)
	gRes, err := GlobalSingle(g, tm, 1, params(1e-6, 121))
	if err != nil {
		t.Fatal(err)
	}
	cRes, err := GCLRSingle(g, tm, 1, params(1e-6, 121))
	if err != nil {
		t.Fatal(err)
	}
	// Algorithm 2 pays an extra feedback push per directed edge.
	if cRes.Messages.Setup < gRes.Messages.Setup+2*g.M() {
		t.Fatalf("GCLR setup %d, global setup %d, M %d",
			cRes.Messages.Setup, gRes.Messages.Setup, g.M())
	}
}
