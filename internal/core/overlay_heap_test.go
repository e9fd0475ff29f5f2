package core

import (
	"runtime"
	"testing"

	"diffgossip/internal/graph"
	"diffgossip/internal/rng"
	"diffgossip/internal/trust"
)

// TestSparseOverlaysNotRetained: sparse campaigns over subjects with 2..300
// raters build an overlay for every rater count, and none is reachable once
// the call returns — so a service whose rater counts drift from epoch to
// epoch does not accumulate them. (A process-wide cache keyed by rater count
// once held +560 MB for k = 2..2000.) The bound is an eighth of what the
// overlays themselves occupy, so a leak of them cannot pass.
func TestSparseOverlaysNotRetained(t *testing.T) {
	const n, maxK = 1200, 300 // 300 raters is within 0.25·N: every campaign is sparse
	g := graph.MustPA(n, 2, 21)
	src := rng.New(22)
	var subjects []int
	var cells []trust.Cell
	overlays := 0 // bytes: the adjacency backing plus one slice header per node
	for k := 2; k <= maxK; k++ {
		j := len(subjects)
		subjects = append(subjects, j)
		for _, i := range src.Sample(n, k) {
			cells = append(cells, trust.Cell{Rater: i, Subject: j, Value: src.Float64()})
		}
		overlays += 16*graph.Circulant(k).M() + 24*k
	}
	cols, err := trust.NewColumns(n, subjects)
	if err != nil {
		t.Fatal(err)
	}
	if cols, _, err = cols.With(cells); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := GlobalSubjectsAtRoot(g, cols, subjects, sparseParams(1e-3, 23))
	if err != nil {
		t.Fatal(err)
	}
	if res.Computed != len(subjects) || res.TotalSteps == 0 {
		t.Fatalf("computed %d of %d campaigns in %d steps", res.Computed, len(subjects), res.TotalSteps)
	}
	res = nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(cols)
	kept := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("live heap after the call: %+d B (the %d overlays occupy %d B)", kept, maxK-1, overlays)
	if kept > int64(overlays/8) {
		t.Fatalf("the call left %d B live, want ≤ %d: overlays outlive their campaigns", kept, overlays/8)
	}
}
