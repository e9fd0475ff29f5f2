package trust

import (
	"fmt"
	"math"
	"slices"
)

// WeightParams holds the per-node parameters of the paper's confidence
// weight, eq. (2): w_ij = a_i^(b_ij · t_ij).
//
// A is the node's base (a_i >= 1), tunable by the overall quality of service
// it receives from the network; B is the per-neighbour exponent scale b_ij.
// The paper treats both as constants per node, which we default to here, but
// the API accepts per-edge overrides so the "dynamically adjusted" extension
// the paper mentions is expressible.
type WeightParams struct {
	A float64 // base a_i; must be >= 1 so that w >= 1 always
	B float64 // default exponent scale b_ij
}

// DefaultWeightParams mirrors the constants used throughout the experiments:
// a = 10, b = 1, giving w ∈ [1,10] as trust goes 0 → 1.
var DefaultWeightParams = WeightParams{A: 10, B: 1}

// Validate rejects parameter settings that would break the invariant
// w_ij >= 1 on which the collusion analysis (eq. 17) depends.
func (p WeightParams) Validate() error {
	if p.A < 1 || math.IsNaN(p.A) || math.IsInf(p.A, 0) {
		return fmt.Errorf("trust: weight base a=%v must be >= 1", p.A)
	}
	if p.B < 0 || math.IsNaN(p.B) || math.IsInf(p.B, 0) {
		return fmt.Errorf("trust: weight scale b=%v must be >= 0", p.B)
	}
	return nil
}

// Weight returns w = a^(b·t) for a single trust value.
func (p WeightParams) Weight(t float64) float64 {
	return math.Pow(p.A, p.B*t)
}

// Calibrate is the one evaluation of eq. (6)'s weighted sums. It walks an
// observer's trust row (k, t_ok) in ascending k, merge-joins subject j's
// ascending raters, and folds each neighbour into (num, den) from the pair
// the caller starts it at: w − 1 = a^(b·t_ok) − 1 into den always, and
// (w − 1)·t_kj into num when k rated j. The row fixes the summation order.
func (p WeightParams) Calibrate(row []int, rowVals []float64, col []int, colVals []float64, num, den float64) (float64, float64) {
	x := 0 // col[:x] holds the raters below the current neighbour
	for r, k := range row {
		w := p.Weight(rowVals[r]) - 1
		d, rated := slices.BinarySearch(col[x:], k)
		if x += d; rated {
			num += w * colVals[x]
		}
		den += w
	}
	return num, den
}
