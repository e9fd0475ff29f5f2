package core

import (
	"diffgossip/internal/gossip"
	"diffgossip/internal/graph"
	"diffgossip/internal/trust"
)

// GlobalSingle runs the paper's Algorithm 1: global reputation aggregation
// for the single subject node j. Every node i holding direct-interaction
// trust t_ij starts with gossip pair (t_ij, 1); everyone else with (0, 0).
// Differential push-sum then drives every node's ratio to
//
//	R_j = Σ_i t_ij / #raters(j),
//
// the subject's mean direct trust over its raters.
func GlobalSingle(g *graph.Graph, t *trust.Matrix, j int, p Params) (*SingleResult, error) {
	p = p.withDefaults()
	if err := p.validate(g, t); err != nil {
		return nil, err
	}
	n := g.N()
	y0 := make([]float64, n)
	g0 := make([]float64, n)
	for i := 0; i < n; i++ {
		if v, ok := t.Get(i, j); ok {
			y0[i] = v
			g0[i] = 1
		}
	}
	e, err := gossip.NewEngine(p.gossipConfig(g), y0, g0)
	if err != nil {
		return nil, err
	}
	res := e.Run()
	return &SingleResult{
		Subject:   j,
		PerNode:   res.Estimates,
		Steps:     res.Steps,
		Converged: res.Converged,
		Messages:  res.Messages,
	}, nil
}

// GCLRSingle runs the paper's Algorithm 2: globally calibrated local
// reputation of the single subject j. The protocol has three phases:
//
//  1. Feedback push: every node sends its direct feedback about j to all
//     neighbours (charged to Messages.Setup), so each node i can compute
//     ŷ_ij = Σ_{k ∈ NS_i} (w_ik − 1) · t_kj with w_ik = a^(b·t_ik).
//  2. Sum gossip: the trio (y, g, count) starts as (t_ij, 0, 1) at raters and
//     (0, 0, 0) elsewhere, except the root (paper: node 1) whose g is 1.
//     The ratios converge to Σ_i t_ij and the rater count N_d.
//  3. Combination, eq. (6): each node outputs
//     Rep_ij = (ŷ_ij + y/g) / (Σ_k (w_ik − 1) + count/g).
func GCLRSingle(g *graph.Graph, t *trust.Matrix, j int, p Params) (*SingleResult, error) {
	p = p.withDefaults()
	if err := p.validate(g, t); err != nil {
		return nil, err
	}
	n := g.N()
	y0 := make([]float64, n)
	g0 := make([]float64, n)
	c0 := make([]float64, n)
	g0[p.Root] = 1
	col, colVals := t.RatersOfInto(j, nil, nil)
	for x, i := range col {
		y0[i] = colVals[x]
		c0[i] = 1
	}
	e, err := gossip.NewEngine(p.gossipConfig(g), y0, g0)
	if err != nil {
		return nil, err
	}
	if err := e.EnableCountGossip(c0); err != nil {
		return nil, err
	}
	// Phase 1 cost: every node pushes its feedback about j to each
	// neighbour (one message per directed edge).
	e.ChargeSetup(2 * g.M())
	res := e.Run()

	out := &SingleResult{
		Subject:   j,
		PerNode:   make([]float64, n),
		Counts:    res.Counts,
		Steps:     res.Steps,
		Converged: res.Converged,
		Messages:  res.Messages,
	}
	var row []int
	var rowVals []float64
	for i := 0; i < n; i++ {
		row, rowVals = t.RowInto(i, row[:0], rowVals[:0])
		out.PerNode[i] = combineGCLR(p.Weights, row, rowVals, col, colVals, res.Estimates[i], res.Counts[i])
	}
	return out, nil
}

// combineGCLR applies eq. (6) at node i: fold the feedback of every node i
// has interacted with (weighted by confidence minus the baseline weight 1)
// into the gossiped sum and rater count. The paper defines the neighbour set
// NS_i by interaction, not overlay adjacency, so the weighted set is i's
// trust row; the walk starts at (0, 0) and the estimates are added after it.
func combineGCLR(w trust.WeightParams, row []int, rowVals []float64, col []int, colVals []float64, sumEst, countEst float64) float64 {
	yhat, wsum := w.Calibrate(row, rowVals, col, colVals, 0, 0)
	den := wsum + countEst
	if den <= 0 {
		return 0
	}
	return (yhat + sumEst) / den
}
