package graph

import (
	"fmt"
	"math/bits"
	"slices"

	"diffgossip/internal/rng"
)

// PAConfig parameterises the preferential attachment generator.
type PAConfig struct {
	// N is the final number of nodes. Must be > M.
	N int
	// M is the number of edges each arriving node creates (the paper's m).
	// The paper's analysis requires m >= 2 so that the graph is connected
	// with high probability and differential push spreads in O((log2 N)^2).
	M int
	// Seed drives the generator deterministically.
	Seed uint64
}

// PreferentialAttachment grows a power-law graph G^m_N by the PA process the
// paper cites ([11] Barabási–Albert, [12] Bollobás et al.): the graph starts
// from a small connected seed clique of m+1 nodes, and each subsequent node
// joins with m edges whose endpoints are chosen with probability proportional
// to current degree. Multi-edges are resolved by resampling, so the result is
// a connected simple graph with a d^-gamma degree tail (gamma ≈ 3 for pure
// BA; Gnutella's measured 2.3 is in the same regime for gossip purposes).
func PreferentialAttachment(cfg PAConfig) (*Graph, error) {
	if cfg.M < 1 {
		return nil, fmt.Errorf("graph: PA requires m >= 1, got %d", cfg.M)
	}
	if cfg.N <= cfg.M {
		return nil, fmt.Errorf("graph: PA requires n > m, got n=%d m=%d", cfg.N, cfg.M)
	}
	src := rng.New(cfg.Seed)

	// Repeated-endpoint list: node u appears deg(u) times, so sampling a
	// uniform element of the list samples a node proportionally to degree.
	// It holds every edge as a pair, in the order the edges are made.
	endpoints := make([]int, 0, 2*cfg.M*cfg.N)

	// Seed clique on nodes 0..m ensures every early node has degree >= m and
	// the graph is connected from the start.
	for u := 0; u <= cfg.M; u++ {
		for v := u + 1; v <= cfg.M; v++ {
			endpoints = append(endpoints, u, v)
		}
	}

	ordered := make([]int, 0, cfg.M)
	for u := cfg.M + 1; u < cfg.N; u++ {
		ordered = ordered[:0]
		for len(ordered) < cfg.M {
			t := endpoints[src.Intn(len(endpoints))]
			if slices.Contains(ordered, t) {
				continue // resample duplicates
			}
			ordered = append(ordered, t)
		}
		for _, t := range ordered {
			endpoints = append(endpoints, u, t)
		}
	}
	return fromEdgeList(cfg.N, endpoints), nil
}

// fromEdgeList builds the graph on n nodes whose edges are the consecutive
// pairs (pairs[0], pairs[1]), (pairs[2], pairs[3]), …, which must be
// distinct and free of self loops. It counts degrees, takes their prefix
// sum and fills one backing array in pair order, so each node's neighbours
// come in the order AddEdge one pair at a time would give. Every list is a
// full-capacity view of that array: growing one node's list later copies
// that list alone.
func fromEdgeList(n int, pairs []int) *Graph {
	off := make([]int, n+1)
	for _, u := range pairs {
		off[u+1]++
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	flat := make([]int, len(pairs))
	next := slices.Clone(off[:n])
	for k := 0; k < len(pairs); k += 2 {
		u, v := pairs[k], pairs[k+1]
		flat[next[u]] = v
		next[u]++
		flat[next[v]] = u
		next[v]++
	}
	g := &Graph{adj: make([][]int, n), m: len(pairs) / 2}
	for u := range g.adj {
		g.adj[u] = flat[off[u]:off[u+1]:off[u+1]]
	}
	return g
}

// AttachPreferential grows g by one node wired with up to m edges whose
// endpoints are drawn with probability proportional to current degree —
// the same arrival process PreferentialAttachment uses — so joins in a churn
// scenario preserve the overlay's power-law shape. eligible, when non-nil,
// restricts candidate endpoints (a live-membership filter: a newcomer cannot
// discover departed peers); duplicates are resolved by resampling. When
// fewer than m distinct eligible endpoints with positive degree exist, every
// one of them is used; with none, the newcomer falls back to uniform choice
// among eligible isolated nodes, and failing that stays isolated. Returns
// the new node's id.
func AttachPreferential(g *Graph, m int, src *rng.Source, eligible func(int) bool) int {
	u := g.AddNode()
	if m < 1 {
		return u
	}
	ok := func(v int) bool { return v != u && (eligible == nil || eligible(v)) }

	// Candidate mass: eligible nodes weighted by degree.
	total := 0
	candidates := 0
	isolated := -1
	isolatedCount := 0
	for v := 0; v < u; v++ {
		if !ok(v) {
			continue
		}
		if d := g.Degree(v); d > 0 {
			total += d
			candidates++
		} else {
			isolatedCount++
			isolated = v
		}
	}
	if candidates == 0 {
		// Degenerate overlay: no eligible node has an edge yet. Bootstrap
		// with one uniform edge to an eligible isolated node if any exists.
		if isolatedCount > 0 {
			pick := src.Intn(isolatedCount)
			for v := 0; v < u; v++ {
				if ok(v) && g.Degree(v) == 0 {
					if pick == 0 {
						isolated = v
						break
					}
					pick--
				}
			}
			g.AddEdge(u, isolated) //nolint:errcheck // endpoints valid by construction
		}
		return u
	}
	if m > candidates {
		m = candidates
	}
	for g.Degree(u) < m {
		// Degree-proportional draw by prefix walk over the eligible mass.
		// O(N) per draw is fine at event rate; duplicates resample.
		r := src.Intn(total)
		t := -1
		for v := 0; v < u; v++ {
			if !ok(v) {
				continue
			}
			if d := g.Degree(v); d > 0 {
				if r < d {
					t = v
					break
				}
				r -= d
			}
		}
		if t < 0 || g.HasEdge(u, t) {
			continue
		}
		g.AddEdge(u, t) //nolint:errcheck // endpoints validated above
		total++         // the target's degree just grew; keep the mass exact
	}
	return u
}

// MustPA is PreferentialAttachment that panics on config error; convenient in
// tests and benchmarks where the config is a literal.
func MustPA(n, m int, seed uint64) *Graph {
	g, err := PreferentialAttachment(PAConfig{N: n, M: m, Seed: seed})
	if err != nil {
		panic(err)
	}
	return g
}

// Ring returns a cycle on n nodes; a useful worst-ish case for push gossip
// and a simple fixture for tests.
func Ring(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		if err := g.AddEdge(u, (u+1)%n); err != nil && n > 2 {
			panic(err)
		}
	}
	return g
}

// Circulant returns the k-node circulant graph linking node i to i±1, i±2,
// i±4, … (every power of two below k): degree about 2·log₂k and diameter
// O(log k). Each adjacency list comes in the order adding the edges
// (i, (i+d) mod k) one at a time would give — d = 1, 2, 4, … outermost,
// i = 0..k-1 inside, a pair already present skipped — without a HasEdge scan
// per pair.
func Circulant(k int) *Graph {
	pairs := make([]int, 0, 2*k*bits.Len(uint(max(k-1, 0))))
	for d := 1; d < k; d *= 2 {
		// Distance d repeats every edge of distance k−d, an earlier power of
		// two when k−d < d. At d = k/2 each edge comes up twice in the sweep,
		// first at i < d.
		if r := k - d; r < d && r&(r-1) == 0 {
			continue
		}
		end := k
		if 2*d == k {
			end = d
		}
		for i := 0; i < end; i++ {
			pairs = append(pairs, i, (i+d)%k)
		}
	}
	return fromEdgeList(k, pairs)
}

// Complete returns the complete graph K_n, the topology assumed by the
// push-sum analysis in Kempe et al. that the paper builds on.
func Complete(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if err := g.AddEdge(u, v); err != nil {
				panic(err)
			}
		}
	}
	return g
}

// Star returns a star with node 0 at the centre — the extreme power-node
// case motivating differential push.
func Star(n int) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		if err := g.AddEdge(0, v); err != nil {
			panic(err)
		}
	}
	return g
}

// ErdosRenyi returns a G(n,p) random graph, used as a non-power-law contrast
// topology in ablation benchmarks.
func ErdosRenyi(n int, p float64, seed uint64) *Graph {
	src := rng.New(seed)
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if src.Bool(p) {
				if err := g.AddEdge(u, v); err != nil {
					panic(err)
				}
			}
		}
	}
	return g
}
