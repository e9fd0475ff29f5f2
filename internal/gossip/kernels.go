package gossip

import "math"

// This file holds the flat-row kernels behind VectorEngine.accumulate. Each
// kernel is a single bounds-check-friendly sweep over whole contiguous rows.
// Arithmetic order matches the original three-pass axpy formulation exactly, so results
// are bit-identical to it.
//
// Every accumulate step wraps its product in an explicit float64 conversion:
// the Go spec permits an implementation to contract acc += a*b into a fused
// multiply-add (even across statements), which would change result bits on
// FMA platforms such as arm64; an explicit conversion is the spec's one
// guaranteed fusion barrier. With the products pinned to their individually
// rounded values, engine results are identical on every platform and to the
// unfused axpy baseline.

// mulRow3 initialises y[j] = ys[j]·f, g[j] = gs[j]·f and c[j] = cs[j]·f in
// one sweep, replacing a zeroing pass followed by an accumulation pass.
func mulRow3(y, g, c, ys, gs, cs []float64, f float64) {
	y = y[:len(ys)]
	g = g[:len(ys)]
	c = c[:len(ys)]
	gs = gs[:len(ys)]
	cs = cs[:len(ys)]
	for j, v := range ys {
		y[j] = v * f
		g[j] = gs[j] * f
		c[j] = cs[j] * f
	}
}

// mulAddRow3 accumulates the three masses of one share in one sweep.
func mulAddRow3(y, g, c, ys, gs, cs []float64, f float64) {
	y = y[:len(ys)]
	g = g[:len(ys)]
	c = c[:len(ys)]
	gs = gs[:len(ys)]
	cs = cs[:len(ys)]
	for j, v := range ys {
		y[j] += float64(v * f)
		g[j] += float64(gs[j] * f)
		c[j] += float64(cs[j] * f)
	}
}

// scanRow is the convergence scan: r = y/g per subject (Sentinel at zero
// weight), the L1 distance to the previous ratios, and the
// all-subjects-weighted flag.
func scanRow(y, g, prevR []float64) (float64, bool) {
	g = g[:len(y)]
	prevR = prevR[:len(y)]
	l1 := 0.0
	hasWeight := true
	for j, yv := range y {
		r := Sentinel
		if gv := g[j]; gv != 0 {
			r = yv / gv
		} else {
			hasWeight = false
		}
		l1 += math.Abs(r - prevR[j])
		prevR[j] = r
	}
	return l1, hasWeight
}
