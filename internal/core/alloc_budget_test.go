//go:build !race

package core

import (
	"runtime"
	"testing"
)

// TestGCLRAllAllocBudget pins, as hardware-independent counts, what one
// variant-4 run allocates at N = 400: at most 10.5 N² float64s (it measures
// about 10.2: the engine's seven blocks and three N×N results) and 600
// mallocs (about 500), since every N×N matrix is one block. While
// GCLRAllFromReports built its start as three N×N matrices of N rows each,
// for the engine to copy, the same run allocated 13.2 N² float64s in about
// 2,100 mallocs. (The race detector changes allocation sizes, so the file
// is built without it.)
func TestGCLRAllAllocBudget(t *testing.T) {
	const n = 400
	g, tm := denseWorkload(t, n, 0.2, 90)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	bytes, mallocs := ms.TotalAlloc, ms.Mallocs
	res, err := GCLRAll(g, tm, params(1e-4, 91))
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	bytes, mallocs = ms.TotalAlloc-bytes, ms.Mallocs-mallocs
	if !res.Converged {
		t.Fatal("GCLRAll did not converge")
	}
	perN2 := float64(bytes) / 8 / (n * n)
	t.Logf("one GCLRAll at N = %d: %.2f N² float64s, %d mallocs", n, perN2, mallocs)
	if perN2 > 10.5 || mallocs > 600 {
		t.Fatalf("one GCLRAll allocated %.2f N² float64s in %d mallocs, budget 10.5 N² and 600", perN2, mallocs)
	}
}
