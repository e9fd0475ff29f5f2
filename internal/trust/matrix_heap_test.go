//go:build !race

package trust

import (
	"runtime"
	"testing"

	"diffgossip/internal/rng"
)

// TestMatrixHeapPerEntry pins the live heap a Matrix holds per entry at the
// paper-scale fixture of the lib-aggregate benchmark: N = 50,000, 24 subjects
// with 5,000 raters each, so most rows hold two or three entries. Sorted
// slice rows hold about 29 B/entry with the row headers counted; one map per
// row held about 77. (The race detector changes allocation sizes, so the
// file is built without it.)
func TestMatrixHeapPerEntry(t *testing.T) {
	const n, subjects, raters = 50000, 24, 5000
	src := rng.New(3)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := NewMatrix(n)
	for j := 0; j < subjects; j++ {
		for _, r := range src.Sample(n, raters) {
			if err := m.Set(r, j, src.Float64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perEntry := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (subjects * raters)
	runtime.KeepAlive(m)
	t.Logf("matrix holds %.1f B/entry", perEntry)
	if perEntry > 32 {
		t.Fatalf("matrix holds %.1f B/entry, want ≤ 32", perEntry)
	}
}
