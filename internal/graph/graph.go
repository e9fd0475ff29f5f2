// Package graph provides the network substrate for the differential gossip
// simulator: an undirected simple graph with adjacency lists, a preferential
// attachment (Barabási–Albert) generator producing the power-law topologies
// the paper evaluates on, and structural analysis helpers (degree
// distribution, power-law exponent fit, BFS, components, diameter).
package graph

import (
	"fmt"
	"sort"

	"diffgossip/internal/rng"
)

// Graph is an undirected simple graph on nodes 0..N-1. The zero value is an
// empty graph; use New to pre-size.
type Graph struct {
	adj [][]int
	m   int // edge count
}

// New returns a graph with n isolated nodes.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{adj: make([][]int, n)}
}

// FromEdges builds a graph on n nodes from an edge list. Duplicate and
// self-loop edges are rejected.
func FromEdges(n int, edges [][2]int) (*Graph, error) {
	g := New(n)
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// AddNode appends an isolated node and returns its id.
func (g *Graph) AddNode() int {
	g.adj = append(g.adj, nil)
	return len(g.adj) - 1
}

// AddEdge inserts the undirected edge (u,v). It returns an error for
// out-of-range endpoints, self loops, and duplicate edges.
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, len(g.adj))
	}
	if u == v {
		return fmt.Errorf("graph: self loop at %d", u)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.m++
	return nil
}

// HasEdge reports whether (u,v) is present.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return false
	}
	// Scan the shorter list.
	a, b := u, v
	if len(g.adj[b]) < len(g.adj[a]) {
		a, b = b, a
	}
	for _, w := range g.adj[a] {
		if w == b {
			return true
		}
	}
	return false
}

// Neighbors returns the adjacency list of u. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Neighbors(u int) []int { return g.adj[u] }

// Degree returns deg(u).
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// Degrees returns the degree sequence indexed by node.
func (g *Graph) Degrees() []int {
	out := make([]int, len(g.adj))
	for i, nbrs := range g.adj {
		out[i] = len(nbrs)
	}
	return out
}

// Edges returns every undirected edge once, with u < v, sorted.
func (g *Graph) Edges() [][2]int {
	var out [][2]int
	for u, nbrs := range g.adj {
		for _, v := range nbrs {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	c := New(len(g.adj))
	for u, nbrs := range g.adj {
		c.adj[u] = append([]int(nil), nbrs...)
	}
	c.m = g.m
	return c
}

// Validate checks structural invariants: symmetric adjacency, no self loops,
// no duplicates, indices in range. It is used by tests and by generators.
func (g *Graph) Validate() error {
	for u, nbrs := range g.adj {
		seen := make(map[int]bool, len(nbrs))
		for _, v := range nbrs {
			if v < 0 || v >= len(g.adj) {
				return fmt.Errorf("graph: node %d has out-of-range neighbour %d", u, v)
			}
			if v == u {
				return fmt.Errorf("graph: self loop at %d", u)
			}
			if seen[v] {
				return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
			}
			seen[v] = true
			found := false
			for _, w := range g.adj[v] {
				if w == u {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("graph: asymmetric edge (%d,%d)", u, v)
			}
		}
	}
	return nil
}

// AvgNeighborDegree returns the mean degree of u's neighbours, or 0 when u is
// isolated. Differential gossip sizes each node's push fan-out by the ratio
// of its own degree to this quantity.
func (g *Graph) AvgNeighborDegree(u int) float64 {
	nbrs := g.adj[u]
	if len(nbrs) == 0 {
		return 0
	}
	sum := 0
	for _, v := range nbrs {
		sum += len(g.adj[v])
	}
	return float64(sum) / float64(len(nbrs))
}

// DifferentialK returns the paper's per-node push fan-out
// k_i = round(deg_i / avgNeighborDeg_i) clamped below at 1 (§4.1.1: the ratio
// is rounded to the nearest integer when k >= 1, and taken as 1 otherwise).
func (g *Graph) DifferentialK(u int) int {
	avg := g.AvgNeighborDegree(u)
	if avg == 0 {
		return 1
	}
	k := float64(g.Degree(u)) / avg
	if k < 1 {
		return 1
	}
	// Round half up, matching the paper's "round off to nearest integer".
	return int(k + 0.5)
}

// DifferentialKs returns DifferentialK for every node.
func (g *Graph) DifferentialKs() []int {
	out := make([]int, g.N())
	for u := range out {
		out[u] = g.DifferentialK(u)
	}
	return out
}

// RandomNeighbors returns k neighbours of u chosen uniformly at random
// without replacement (all of them if k >= deg(u)).
func (g *Graph) RandomNeighbors(u, k int, src *rng.Source) []int {
	if len(g.adj[u]) == 0 || k <= 0 {
		return nil
	}
	c := k
	if d := len(g.adj[u]); c > d {
		c = d
	}
	return g.AppendRandomNeighbors(make([]int, 0, c), u, k, src)
}

// AppendRandomNeighbors appends k neighbours of u chosen uniformly at random
// without replacement (all of them if k >= deg(u)) to dst and returns the
// extended slice. It consumes exactly the same draws as RandomNeighbors, so
// engines can switch between the two without perturbing a seeded run, and it
// allocates nothing when dst has enough capacity — the gossip hot path calls
// it once per active node per step with a reused scratch buffer.
func (g *Graph) AppendRandomNeighbors(dst []int, u, k int, src *rng.Source) []int {
	nbrs := g.adj[u]
	if len(nbrs) == 0 || k <= 0 {
		return dst
	}
	base := len(dst)
	dst = src.SampleInto(dst, len(nbrs), k)
	for i := base; i < len(dst); i++ {
		dst[i] = nbrs[dst[i]]
	}
	return dst
}
