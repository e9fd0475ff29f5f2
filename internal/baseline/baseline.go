// Package baseline implements the reputation-aggregation schemes the paper
// positions Differential Gossip Trust against in §2, so that the comparison
// experiments can run head-to-head on the same substrate:
//
//   - EigenTrust [13]: power iteration over the normalised trust matrix with
//     pre-trusted peers — a centralised-fixed-point scheme computing one
//     global reputation per node.
//   - PowerTrust [16]: reputation-weighted aggregation of local scores; the
//     weight of an opinion is the opining node's own (previous-round) global
//     reputation.
//   - GossipTrust [17]: plain push-sum gossip of weighted local scores — the
//     "normal push" aggregation whose step counts Figure 3 compares against
//     (the gossip mechanics themselves live in internal/gossip as
//     gossip.NormalPush; this package provides its fixed point).
//
// All three produce global reputation vectors (the paper's critique: a
// single value per node, identical at every observer), which is exactly what
// the GCLR variants generalise.
package baseline

import (
	"fmt"
	"math"

	"diffgossip/internal/trust"
)

// EigenTrustConfig parameterises EigenTrust power iteration.
type EigenTrustConfig struct {
	// PreTrusted is the set of a-priori trusted peers (EigenTrust's P).
	// When empty, the uniform distribution is used.
	PreTrusted []int
	// Alpha blends the pre-trust distribution into every iteration
	// (EigenTrust's a, typically 0.1–0.2). It also guarantees convergence
	// by making the chain irreducible.
	Alpha float64
	// MaxIter bounds the power iteration (default 200).
	MaxIter int
	// Tol is the L1 stopping tolerance (default 1e-9).
	Tol float64
}

// EigenTrustResult reports the fixed point and its cost.
type EigenTrustResult struct {
	// Reputation is the global trust vector (sums to 1).
	Reputation []float64
	// Iterations is the number of power-iteration steps used.
	Iterations int
	// Converged reports whether Tol was reached before MaxIter.
	Converged bool
}

// EigenTrust computes the EigenTrust global reputation vector for the local
// trust matrix m: the principal eigenvector of the column-normalised trust
// matrix, blended with the pre-trust distribution.
func EigenTrust(m *trust.Matrix, cfg EigenTrustConfig) (*EigenTrustResult, error) {
	n := m.N()
	if n == 0 {
		return nil, fmt.Errorf("baseline: empty matrix")
	}
	if cfg.Alpha < 0 || cfg.Alpha > 1 {
		return nil, fmt.Errorf("baseline: alpha %v out of [0,1]", cfg.Alpha)
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 200
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-9
	}

	// Pre-trust distribution p.
	p := make([]float64, n)
	if len(cfg.PreTrusted) == 0 {
		for i := range p {
			p[i] = 1 / float64(n)
		}
	} else {
		for _, i := range cfg.PreTrusted {
			if i < 0 || i >= n {
				return nil, fmt.Errorf("baseline: pre-trusted peer %d out of range", i)
			}
			p[i] = 1 / float64(len(cfg.PreTrusted))
		}
	}

	// Row-normalised local trust: c_ij = t_ij / Σ_j t_ij, summed in ascending
	// j so every run gives the same bits. Rows with no outgoing trust fall
	// back to the pre-trust distribution, as the EigenTrust paper prescribes.
	rowIDs := make([][]int, n)
	rowVals := make([][]float64, n)
	rowSum := make([]float64, n)
	for i := 0; i < n; i++ {
		rowIDs[i], rowVals[i] = m.RowInto(i, nil, nil)
		for _, v := range rowVals[i] {
			rowSum[i] += v
		}
	}

	t := append([]float64(nil), p...)
	next := make([]float64, n)
	it := 0
	for ; it < cfg.MaxIter; it++ {
		for j := range next {
			next[j] = 0
		}
		for i := 0; i < n; i++ {
			if rowSum[i] == 0 {
				// Undefined row: this peer trusts the pre-trusted set.
				for j, pj := range p {
					next[j] += t[i] * pj
				}
				continue
			}
			for k, j := range rowIDs[i] {
				next[j] += t[i] * rowVals[i][k] / rowSum[i]
			}
		}
		delta := 0.0
		for j := range next {
			next[j] = (1-cfg.Alpha)*next[j] + cfg.Alpha*p[j]
			delta += math.Abs(next[j] - t[j])
		}
		t, next = next, t
		if delta <= cfg.Tol {
			it++
			break
		}
	}
	return &EigenTrustResult{
		Reputation: t,
		Iterations: it,
		Converged:  it < cfg.MaxIter || cfg.MaxIter == 0,
	}, nil
}

// PowerTrust computes the PowerTrust-style global reputation: iterate
//
//	R_j ← Σ_i R_i · t_ij / Σ_i R_i·[i rated j]
//
// starting from the uniform vector — each opinion weighted by the opining
// node's own reputation. rounds is the number of refinement rounds
// (PowerTrust converges in a handful; default 10).
func PowerTrust(m *trust.Matrix, rounds int) ([]float64, error) {
	n := m.N()
	if n == 0 {
		return nil, fmt.Errorf("baseline: empty matrix")
	}
	if rounds <= 0 {
		rounds = 10
	}
	rep := make([]float64, n)
	for i := range rep {
		rep[i] = 0.5
	}
	num := make([]float64, n)
	den := make([]float64, n)
	var ids []int
	var vals []float64
	for r := 0; r < rounds; r++ {
		for j := range num {
			num[j], den[j] = 0, 0
		}
		for i := 0; i < n; i++ {
			ids, vals = m.RowInto(i, ids[:0], vals[:0])
			for k, j := range ids {
				num[j] += rep[i] * vals[k]
				den[j] += rep[i]
			}
		}
		for j := range rep {
			if den[j] > 0 {
				rep[j] = num[j] / den[j]
			}
			// No weighted opinions about j: keep the previous value
			// (the 0.5 prior on the first round) — zeroing unrated
			// nodes would also zero the weight of their opinions and
			// collapse the iteration.
		}
	}
	return rep, nil
}

// GossipTrustFixedPoint returns the value plain push-sum gossip (GossipTrust)
// converges to for each subject: the unweighted mean of local scores over the
// subject's raters — identical at every observer, which is precisely the
// "global value" assumption the paper challenges.
func GossipTrustFixedPoint(m *trust.Matrix) []float64 {
	n := m.N()
	out := make([]float64, n)
	for j := 0; j < n; j++ {
		out[j] = m.ColumnRaterMean(j)
	}
	return out
}
