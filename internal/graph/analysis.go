package graph

import (
	"math"
	"sort"
)

// BFS returns the hop distance from src to every node; unreachable nodes get
// -1.
func (g *Graph) BFS(src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Components returns the connected components as slices of node ids, largest
// first.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.N())
	var comps [][]int
	for s := 0; s < g.N(); s++ {
		if seen[s] {
			continue
		}
		var comp []int
		queue := []int{s}
		seen[s] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			comp = append(comp, u)
			for _, v := range g.adj[u] {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool { return len(comps[i]) > len(comps[j]) })
	return comps
}

// Connected reports whether the graph has a single component (and is
// non-empty).
func (g *Graph) Connected() bool {
	if g.N() == 0 {
		return false
	}
	comps := g.Components()
	return len(comps) == 1
}

// Eccentricity returns the maximum finite BFS distance from u.
func (g *Graph) Eccentricity(u int) int {
	ecc := 0
	for _, d := range g.BFS(u) {
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// DiameterApprox lower-bounds the diameter with a double BFS sweep: BFS from
// an arbitrary node, then BFS from the farthest node found. On power-law
// graphs this is typically exact or off by one.
func (g *Graph) DiameterApprox() int {
	if g.N() == 0 {
		return 0
	}
	d0 := g.BFS(0)
	far, best := 0, 0
	for u, d := range d0 {
		if d > best {
			far, best = u, d
		}
	}
	d1 := g.BFS(far)
	best = 0
	for _, d := range d1 {
		if d > best {
			best = d
		}
	}
	return best
}

// DegreeHistogram returns counts[d] = number of nodes with degree d.
func (g *Graph) DegreeHistogram() []int {
	maxDeg := 0
	for _, nbrs := range g.adj {
		if len(nbrs) > maxDeg {
			maxDeg = len(nbrs)
		}
	}
	counts := make([]int, maxDeg+1)
	for _, nbrs := range g.adj {
		counts[len(nbrs)]++
	}
	return counts
}

// MeanDegree returns the average degree 2M/N.
func (g *Graph) MeanDegree() float64 {
	if g.N() == 0 {
		return 0
	}
	return 2 * float64(g.M()) / float64(g.N())
}

// MaxDegree returns the largest degree and one node achieving it.
func (g *Graph) MaxDegree() (deg, node int) {
	for u, nbrs := range g.adj {
		if len(nbrs) > deg {
			deg, node = len(nbrs), u
		}
	}
	return deg, node
}

// PowerLawExponent estimates gamma in P(d) ~ d^-gamma by the Clauset–Shalizi–
// Newman discrete MLE with the given minimum degree:
//
//	gamma ≈ 1 + n / Σ ln(d_i / (dmin - 0.5))
//
// For PA graphs with m >= 2 the estimate should land near 3; the paper cites
// 2.3 for measured Gnutella topologies.
func (g *Graph) PowerLawExponent(dmin int) float64 {
	if dmin < 1 {
		dmin = 1
	}
	n := 0
	sum := 0.0
	for _, nbrs := range g.adj {
		d := len(nbrs)
		if d >= dmin {
			n++
			sum += math.Log(float64(d) / (float64(dmin) - 0.5))
		}
	}
	if n == 0 || sum == 0 {
		return math.NaN()
	}
	return 1 + float64(n)/sum
}

// AssortativityByDegree returns the Pearson correlation of degrees across
// edges (Newman's r). PA graphs are weakly disassortative; the metric is
// exposed for the network-inspection CLI.
func (g *Graph) AssortativityByDegree() float64 {
	var sx, sy, sxx, syy, sxy float64
	n := 0.0
	for _, nbrs := range g.adj {
		du := float64(len(nbrs))
		for _, v := range nbrs {
			dv := float64(len(g.adj[v]))
			sx += du
			sy += dv
			sxx += du * du
			syy += dv * dv
			sxy += du * dv
			n++
		}
	}
	if n == 0 {
		return 0
	}
	num := sxy/n - (sx/n)*(sy/n)
	den := math.Sqrt(sxx/n-(sx/n)*(sx/n)) * math.Sqrt(syy/n-(sy/n)*(sy/n))
	if den == 0 {
		return 0
	}
	return num / den
}
