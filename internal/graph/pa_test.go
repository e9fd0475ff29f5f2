package graph

import (
	"fmt"
	"slices"
	"testing"

	"diffgossip/internal/rng"
)

// referencePA is the incremental preferential-attachment build: every edge
// goes through AddEdge as it is drawn and duplicate targets are found in a
// map. PreferentialAttachment must give exactly this graph, neighbour order
// included, because the gossip engines draw neighbours by list index.
func referencePA(n, m int, seed uint64) *Graph {
	src := rng.New(seed)
	g := New(n)
	endpoints := make([]int, 0, 2*m*n)
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			if err := g.AddEdge(u, v); err != nil {
				panic(err)
			}
			endpoints = append(endpoints, u, v)
		}
	}
	targets := make(map[int]struct{}, m)
	ordered := make([]int, 0, m)
	for u := m + 1; u < n; u++ {
		clear(targets)
		ordered = ordered[:0]
		for len(targets) < m {
			t := endpoints[src.Intn(len(endpoints))]
			if _, dup := targets[t]; dup {
				continue
			}
			targets[t] = struct{}{}
			ordered = append(ordered, t)
		}
		for _, t := range ordered {
			if err := g.AddEdge(u, t); err != nil {
				panic(err)
			}
			endpoints = append(endpoints, u, t)
		}
	}
	return g
}

// TestPAMatchesIncrementalBuild: the generator gives every node the same
// neighbours, in the same order, as the incremental build, at M = 1, at
// N = M+1 (the seed clique alone) and at the paper's largest N.
func TestPAMatchesIncrementalBuild(t *testing.T) {
	cases := []struct {
		n, m int
		seed uint64
	}{
		{2, 1, 1},
		{50, 1, 3},
		{4, 3, 5},
		{300, 3, 7},
		{1000, 2, 11},
		{500, 6, 13},
		{50000, 2, 42},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("N=%d/M=%d/seed=%d", c.n, c.m, c.seed), func(t *testing.T) {
			got := MustPA(c.n, c.m, c.seed)
			want := referencePA(c.n, c.m, c.seed)
			if got.N() != want.N() || got.M() != want.M() {
				t.Fatalf("N, M = %d, %d; want %d, %d", got.N(), got.M(), want.N(), want.M())
			}
			for u := 0; u < want.N(); u++ {
				if !slices.Equal(got.Neighbors(u), want.Neighbors(u)) {
					t.Fatalf("node %d: neighbours %v, want %v", u, got.Neighbors(u), want.Neighbors(u))
				}
			}
		})
	}
}

// TestPAViewsDoNotAlias: growing one node's list of a generated graph, by
// AddEdge or by AttachPreferential, leaves every other node's list as it
// was.
func TestPAViewsDoNotAlias(t *testing.T) {
	g := MustPA(400, 3, 17)
	model := make([][]int, g.N())
	for u := range model {
		model[u] = slices.Clone(g.Neighbors(u))
	}
	check := func(step string) {
		t.Helper()
		if g.N() != len(model) {
			t.Fatalf("%s: N = %d, want %d", step, g.N(), len(model))
		}
		for u := range model {
			if !slices.Equal(g.Neighbors(u), model[u]) {
				t.Fatalf("%s: node %d: neighbours %v, want %v", step, u, g.Neighbors(u), model[u])
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	src := rng.New(23)
	for added := 0; added < 200; {
		u, v := src.Intn(g.N()), src.Intn(g.N())
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if err := g.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
		model[u] = append(model[u], v)
		model[v] = append(model[v], u)
		added++
		check(fmt.Sprintf("AddEdge(%d,%d)", u, v))
	}
	for k := 0; k < 50; k++ {
		w := AttachPreferential(g, 3, src, nil)
		for _, x := range g.Neighbors(w) {
			model[x] = append(model[x], w)
		}
		model = append(model, slices.Clone(g.Neighbors(w)))
		check(fmt.Sprintf("AttachPreferential #%d", k))
	}
}

// TestEdgeCountTracksEdges: M equals the number of listed edges after every
// way a graph is built or grown.
func TestEdgeCountTracksEdges(t *testing.T) {
	check := func(step string, g *Graph) {
		t.Helper()
		if got, want := g.M(), len(g.Edges()); got != want {
			t.Fatalf("%s: M = %d, %d edges listed", step, got, want)
		}
	}
	g := MustPA(200, 3, 5)
	check("PA", g)
	v := g.N() - 1
	for g.HasEdge(0, v) {
		v--
	}
	if err := g.AddEdge(0, v); err != nil {
		t.Fatal(err)
	}
	check("AddEdge", g)
	g.AddNode()
	check("AddNode", g)
	if err := g.AddEdge(200, 7); err != nil {
		t.Fatal(err)
	}
	check("AddEdge to a new node", g)
	AttachPreferential(g, 2, rng.New(1), nil)
	check("AttachPreferential", g)
	c := g.Clone()
	check("Clone", c)
	if err := c.AddEdge(200, 8); err != nil {
		t.Fatal(err)
	}
	check("AddEdge on a clone", c)
	check("original after the clone grew", g)
	f, err := FromEdges(6, [][2]int{{0, 1}, {1, 2}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	check("FromEdges", f)
	check("New", New(3))
	check("zero value", &Graph{})
}
