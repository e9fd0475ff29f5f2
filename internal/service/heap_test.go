//go:build !race

package service

import (
	"runtime"
	"testing"

	"diffgossip/internal/core"
)

// TestServiceHeapPerCell pins, as a count, the live heap a service holds per
// rated cell at the epoch-dirty5 benchmark's shape (N = 2,500, 48 raters per
// subject, 20 shards) after one epoch: the published columns with each cell's
// last-writer-wins stamp, and nothing else per cell. A service that also kept
// a map from every cell ever rated to its stamp held about 132 B/cell. (The
// race detector changes allocation sizes, so the file is built without it.)
func TestServiceHeapPerCell(t *testing.T) {
	const n, raters, shards = 2500, 48, 20
	g := testGraph(t, n, 7)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := newTestService(t, n, Config{
		Graph:       g,
		Params:      core.Params{Epsilon: 1e-4, Seed: 11, Workers: -1},
		Shards:      shards,
		FoldWorkers: -1,
	})
	rateAll(t, s, n, raters)
	mustEpoch(t, s)
	runtime.GC()
	runtime.ReadMemStats(&after)
	perCell := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (n * raters)
	runtime.KeepAlive(s)
	t.Logf("service holds %.1f B/cell", perCell)
	if perCell > 64 {
		t.Fatalf("service holds %.1f B/cell, want ≤ 64", perCell)
	}
}
