package graph

import (
	"testing"
	"testing/quick"

	"diffgossip/internal/rng"
)

func TestAddEdgeBasics(t *testing.T) {
	g := New(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge (0,1) not symmetric")
	}
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 || g.Degree(2) != 0 {
		t.Fatal("wrong degrees after single edge")
	}
}

func TestAddEdgeRejectsSelfLoop(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(1, 1); err == nil {
		t.Fatal("self loop accepted")
	}
}

func TestAddEdgeRejectsDuplicate(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(2, 0); err == nil {
		t.Fatal("duplicate edge accepted")
	}
}

func TestAddEdgeRejectsOutOfRange(t *testing.T) {
	g := New(3)
	for _, e := range [][2]int{{-1, 0}, {0, 3}, {5, 5}} {
		if err := g.AddEdge(e[0], e[1]); err == nil {
			t.Fatalf("edge %v accepted", e)
		}
	}
}

func TestFromEdges(t *testing.T) {
	g, err := FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Fatalf("M = %d", g.M())
	}
	if _, err := FromEdges(2, [][2]int{{0, 0}}); err == nil {
		t.Fatal("FromEdges accepted self loop")
	}
}

func TestAddNode(t *testing.T) {
	g := New(2)
	id := g.AddNode()
	if id != 2 || g.N() != 3 {
		t.Fatalf("AddNode -> %d, N = %d", id, g.N())
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := New(3)
	_ = g.AddEdge(0, 1)
	c := g.Clone()
	_ = c.AddEdge(1, 2)
	if g.HasEdge(1, 2) {
		t.Fatal("mutating clone affected original")
	}
}

func TestEdgesCanonical(t *testing.T) {
	g := New(4)
	_ = g.AddEdge(2, 0)
	_ = g.AddEdge(3, 1)
	_ = g.AddEdge(0, 1)
	es := g.Edges()
	want := [][2]int{{0, 1}, {0, 2}, {1, 3}}
	if len(es) != len(want) {
		t.Fatalf("Edges = %v", es)
	}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("Edges = %v, want %v", es, want)
		}
	}
}

func TestValidateDetectsAsymmetry(t *testing.T) {
	g := New(2)
	g.adj[0] = []int{1} // corrupt by hand
	if err := g.Validate(); err == nil {
		t.Fatal("Validate missed asymmetric edge")
	}
}

func TestFixtureTopologies(t *testing.T) {
	ring := Ring(6)
	for u := 0; u < 6; u++ {
		if ring.Degree(u) != 2 {
			t.Fatalf("ring degree(%d) = %d", u, ring.Degree(u))
		}
	}
	k5 := Complete(5)
	if k5.M() != 10 {
		t.Fatalf("K5 edges = %d", k5.M())
	}
	star := Star(7)
	if star.Degree(0) != 6 || star.Degree(3) != 1 {
		t.Fatal("star degrees wrong")
	}
	for _, g := range []*Graph{ring, k5, star} {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAvgNeighborDegree(t *testing.T) {
	star := Star(5)
	if got := star.AvgNeighborDegree(0); got != 1 {
		t.Fatalf("star centre avg nbr degree = %v", got)
	}
	if got := star.AvgNeighborDegree(1); got != 4 {
		t.Fatalf("star leaf avg nbr degree = %v", got)
	}
	if got := New(1).AvgNeighborDegree(0); got != 0 {
		t.Fatalf("isolated node avg nbr degree = %v", got)
	}
}

func TestDifferentialK(t *testing.T) {
	star := Star(5)
	// Centre: deg 4, avg nbr degree 1 -> k = 4.
	if k := star.DifferentialK(0); k != 4 {
		t.Fatalf("star centre k = %d, want 4", k)
	}
	// Leaf: deg 1, avg nbr degree 4 -> ratio 0.25 -> k = 1.
	if k := star.DifferentialK(1); k != 1 {
		t.Fatalf("star leaf k = %d, want 1", k)
	}
	// Ring: ratio exactly 1 everywhere.
	ring := Ring(8)
	for u := 0; u < 8; u++ {
		if k := ring.DifferentialK(u); k != 1 {
			t.Fatalf("ring k(%d) = %d", u, k)
		}
	}
	if k := New(1).DifferentialK(0); k != 1 {
		t.Fatalf("isolated node k = %d", k)
	}
}

func TestFigure2MatchesPaper(t *testing.T) {
	g := Figure2()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Fatal("Figure2 not connected")
	}
	degs := g.Degrees()
	for i, want := range Figure2Degrees {
		if degs[i] != want {
			t.Fatalf("Figure2 degree(%d) = %d, want %d", i+1, degs[i], want)
		}
	}
	ks := g.DifferentialKs()
	for i, want := range Figure2Ks {
		if ks[i] != want {
			t.Fatalf("Figure2 k(%d) = %d, want %d (paper Table 1)", i+1, ks[i], want)
		}
	}
}

func TestRandomNeighborsDistinct(t *testing.T) {
	g := Figure2()
	src := rng.New(2)
	for trial := 0; trial < 100; trial++ {
		u := src.Intn(g.N())
		k := 1 + src.Intn(3)
		picks := g.RandomNeighbors(u, k, src)
		wantLen := k
		if d := g.Degree(u); d < k {
			wantLen = d
		}
		if len(picks) != wantLen {
			t.Fatalf("RandomNeighbors(%d,%d) returned %d picks", u, k, len(picks))
		}
		seen := map[int]bool{}
		for _, v := range picks {
			if !g.HasEdge(u, v) || seen[v] {
				t.Fatalf("bad pick %d for node %d: %v", v, u, picks)
			}
			seen[v] = true
		}
	}
}

func TestPreferentialAttachmentInvariants(t *testing.T) {
	for _, m := range []int{2, 3} {
		for _, n := range []int{10, 100, 500} {
			g := MustPA(n, m, 99)
			if err := g.Validate(); err != nil {
				t.Fatalf("n=%d m=%d: %v", n, m, err)
			}
			if g.N() != n {
				t.Fatalf("N = %d, want %d", g.N(), n)
			}
			wantM := m*(m+1)/2 + (n-m-1)*m
			if g.M() != wantM {
				t.Fatalf("n=%d m=%d: M = %d, want %d", n, m, g.M(), wantM)
			}
			if !g.Connected() {
				t.Fatalf("n=%d m=%d: PA graph disconnected", n, m)
			}
			for u := 0; u < n; u++ {
				if g.Degree(u) < m {
					t.Fatalf("node %d has degree %d < m=%d", u, g.Degree(u), m)
				}
			}
		}
	}
}

func TestPADeterministicInSeed(t *testing.T) {
	a := MustPA(200, 2, 7)
	b := MustPA(200, 2, 7)
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatal("same seed, different edge count")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("same seed, edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
	c := MustPA(200, 2, 8)
	diff := false
	ec := c.Edges()
	for i := range ea {
		if i < len(ec) && ea[i] != ec[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical PA graphs")
	}
}

func TestPARejectsBadConfig(t *testing.T) {
	if _, err := PreferentialAttachment(PAConfig{N: 5, M: 0}); err == nil {
		t.Fatal("m=0 accepted")
	}
	if _, err := PreferentialAttachment(PAConfig{N: 2, M: 2}); err == nil {
		t.Fatal("n<=m accepted")
	}
}

func TestPAPowerLawTail(t *testing.T) {
	g := MustPA(5000, 2, 123)
	gamma := g.PowerLawExponent(2)
	// Pure BA yields gamma ~ 3; accept a generous band since n is modest.
	if gamma < 2.0 || gamma > 4.0 {
		t.Fatalf("PA exponent = %v, want in [2,4]", gamma)
	}
	maxDeg, _ := g.MaxDegree()
	if maxDeg < 30 {
		t.Fatalf("PA max degree = %d, expected a power node", maxDeg)
	}
}

func TestPAHubVsLeafFanout(t *testing.T) {
	g := MustPA(2000, 2, 5)
	_, hub := g.MaxDegree()
	if k := g.DifferentialK(hub); k < 2 {
		t.Fatalf("hub differential k = %d, want >= 2", k)
	}
}

func TestBFSDistances(t *testing.T) {
	// Path 0-1-2-3 plus isolated node 4.
	g := New(5)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(2, 3)
	d := g.BFS(0)
	want := []int{0, 1, 2, 3, -1}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("BFS = %v, want %v", d, want)
		}
	}
}

func TestComponents(t *testing.T) {
	g := New(6)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(3, 4)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	if len(comps[0]) != 3 || len(comps[1]) != 2 || len(comps[2]) != 1 {
		t.Fatalf("component sizes wrong: %v", comps)
	}
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
}

// diameter is the exact diameter, by a BFS from every node: O(N·M), the
// reference DiameterApprox is checked against.
func diameter(g *Graph) int {
	diam := 0
	for u := 0; u < g.N(); u++ {
		diam = max(diam, g.Eccentricity(u))
	}
	return diam
}

func TestDiameter(t *testing.T) {
	ring := Ring(10)
	if d := diameter(ring); d != 5 {
		t.Fatalf("ring diameter = %d, want 5", d)
	}
	if d := ring.DiameterApprox(); d != 5 {
		t.Fatalf("ring approx diameter = %d, want 5", d)
	}
	if d := diameter(Complete(6)); d != 1 {
		t.Fatalf("K6 diameter = %d", d)
	}
}

func TestDiameterApproxLowerBoundsExact(t *testing.T) {
	g := MustPA(300, 2, 44)
	if approx, exact := g.DiameterApprox(), diameter(g); approx > exact {
		t.Fatalf("approx %d > exact %d", approx, exact)
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := Star(4)
	h := g.DegreeHistogram()
	if h[1] != 3 || h[3] != 1 {
		t.Fatalf("star histogram = %v", h)
	}
	sum := 0
	for _, c := range h {
		sum += c
	}
	if sum != g.N() {
		t.Fatalf("histogram sums to %d, want %d", sum, g.N())
	}
}

func TestMeanDegree(t *testing.T) {
	if md := Ring(8).MeanDegree(); md != 2 {
		t.Fatalf("ring mean degree = %v", md)
	}
	if md := New(0).MeanDegree(); md != 0 {
		t.Fatalf("empty mean degree = %v", md)
	}
}

func TestDegreeSumEqualsTwiceEdges(t *testing.T) {
	f := func(seed uint64) bool {
		n := 20 + int(seed%200)
		g := MustPA(n, 2, seed)
		sum := 0
		for _, d := range g.Degrees() {
			sum += d
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestErdosRenyiEdgeCount(t *testing.T) {
	g := ErdosRenyi(200, 0.05, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	want := 0.05 * 200 * 199 / 2
	got := float64(g.M())
	if got < want*0.7 || got > want*1.3 {
		t.Fatalf("ER edges = %v, want ~%v", got, want)
	}
}

func TestAssortativityInRange(t *testing.T) {
	g := MustPA(1000, 2, 11)
	r := g.AssortativityByDegree()
	if r < -1 || r > 1 {
		t.Fatalf("assortativity = %v", r)
	}
}

func TestAppendRandomNeighborsMatchesRandomNeighbors(t *testing.T) {
	g := MustPA(120, 3, 31)
	for seed := uint64(0); seed < 10; seed++ {
		for u := 0; u < g.N(); u += 7 {
			for _, k := range []int{1, 2, g.Degree(u), g.Degree(u) + 3} {
				a, b := rng.New(seed), rng.New(seed)
				want := g.RandomNeighbors(u, k, a)
				got := g.AppendRandomNeighbors(nil, u, k, b)
				if len(got) != len(want) {
					t.Fatalf("u=%d k=%d: len %d vs %d", u, k, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("u=%d k=%d: [%d] = %d vs %d", u, k, i, got[i], want[i])
					}
				}
				if a.Uint64() != b.Uint64() {
					t.Fatalf("u=%d k=%d: rng streams diverged", u, k)
				}
			}
		}
	}
}

func TestAppendRandomNeighborsReusesBuffer(t *testing.T) {
	g := MustPA(60, 2, 33)
	src := rng.New(9)
	buf := make([]int, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		buf = g.AppendRandomNeighbors(buf[:0], 3, 2, src)
	})
	if allocs != 0 {
		t.Fatalf("AppendRandomNeighbors allocated %v times per run with a warm buffer", allocs)
	}
	if got := g.AppendRandomNeighbors([]int{-5}, 3, 1, src); len(got) != 2 || got[0] != -5 {
		t.Fatalf("append semantics broken: %v", got)
	}
}

func TestAttachPreferential(t *testing.T) {
	g := MustPA(200, 2, 7)
	src := rng.New(11)
	for k := 0; k < 50; k++ {
		u := AttachPreferential(g, 2, src, nil)
		if u != 200+k {
			t.Fatalf("new node id %d, want %d", u, 200+k)
		}
		if d := g.Degree(u); d != 2 {
			t.Fatalf("join %d got degree %d, want 2", u, d)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	// Replays are bit-identical from the same seed.
	g1, g2 := MustPA(100, 2, 3), MustPA(100, 2, 3)
	s1, s2 := rng.New(5), rng.New(5)
	for k := 0; k < 20; k++ {
		AttachPreferential(g1, 2, s1, nil)
		AttachPreferential(g2, 2, s2, nil)
	}
	e1, e2 := g1.Edges(), g2.Edges()
	if len(e1) != len(e2) {
		t.Fatalf("replay edge counts differ: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("replay edge %d differs: %v vs %v", i, e1[i], e2[i])
		}
	}
}

func TestAttachPreferentialEligibleFilter(t *testing.T) {
	g := MustPA(50, 2, 9)
	down := map[int]bool{0: true, 1: true, 2: true}
	src := rng.New(13)
	for k := 0; k < 30; k++ {
		u := AttachPreferential(g, 3, src, func(v int) bool { return !down[v] })
		for _, v := range g.Neighbors(u) {
			if down[v] {
				t.Fatalf("join %d attached to excluded node %d", u, v)
			}
		}
	}

	// Hubs attract joins: the max-degree node should gather more new edges
	// than a typical leaf over many joins.
	degMax := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > degMax {
			degMax = d
		}
	}
	if degMax < 6 {
		t.Fatalf("preferential joins did not concentrate on hubs (max degree %d)", degMax)
	}
}

func TestAttachPreferentialDegenerate(t *testing.T) {
	// Empty overlay: first join stays isolated, second bootstraps an edge.
	g := New(1)
	src := rng.New(1)
	u := AttachPreferential(g, 2, src, nil)
	if g.Degree(u) != 1 { // attaches to the lone isolated node 0
		t.Fatalf("bootstrap join degree %d, want 1", g.Degree(u))
	}
	// All candidates excluded: the newcomer stays isolated.
	v := AttachPreferential(g, 2, src, func(int) bool { return false })
	if g.Degree(v) != 0 {
		t.Fatalf("fully excluded join got degree %d", g.Degree(v))
	}
	// m larger than the candidate pool: connects to everything available.
	w := AttachPreferential(g, 99, src, nil)
	if g.Degree(w) != 2 {
		t.Fatalf("m>candidates join degree %d, want 2", g.Degree(w))
	}
}
