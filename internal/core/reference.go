package core

import (
	"fmt"

	"diffgossip/internal/trust"
)

// errSize builds the mismatch error shared by the report-based entry points.
func errSize(reported, honest *trust.Matrix) error {
	return fmt.Errorf("core: reported matrix size %d does not match honest matrix size %d",
		sizeOf(reported), sizeOf(honest))
}

// GlobalRef computes, without gossip, the exact fixed point Algorithm 1
// converges to for subject j: the mean direct trust over j's raters. Any
// trust.Reader qualifies — the live matrix, a frozen shard column set, or
// the service's stitched view.
func GlobalRef(t trust.Reader, j int) float64 {
	sum, cnt := t.ColumnSum(j)
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// GCLRRef computes, without gossip, the exact fixed point Algorithm 2
// converges to at observer node i for subject j: eq. (6) with the rater-count
// denominator N_d of the algorithm box, Calibrate over i's whole trust row
// started at (Σ_k t_kj, N_d) and divided out (0 when both sums are empty).
func GCLRRef(t trust.Reader, i, j int, p Params) float64 {
	p = p.withDefaults()
	row, rowVals := t.RowInto(i, nil, nil)
	col, colVals := t.RatersOfInto(j, nil, nil)
	sum, raters := t.ColumnSum(j)
	num, den := p.Weights.Calibrate(row, rowVals, col, colVals, sum, float64(raters))
	if den == 0 {
		return 0
	}
	return num / den
}
