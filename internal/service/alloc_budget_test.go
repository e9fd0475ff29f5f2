//go:build !race

package service

import (
	"runtime"
	"testing"

	"diffgossip/internal/core"
	"diffgossip/internal/rng"
)

// TestDirtyEpochAllocBudget pins, as a hardware-independent count, that a
// 5%-dirty epoch allocates in proportion to what was re-rated: at the
// epoch-dirty5 benchmark's shape (N = 2,500, 48 raters per subject, 20
// shards, 125 re-ratings of existing cells) one RunEpoch stays under 2.5 MB
// (it measures about 1.8 MB). A fold that only re-rates copies each dirty
// shard's values and keeps its rater lists and row index; while every fold
// copied the rater ids too and rebuilt the row index the same epoch
// allocated about 4.3 MB, and before folds were subject-granular and the
// service stopped building an N-wide result column per campaign about 57 MB.
// (The race detector changes allocation sizes, so the file is built without
// it.)
func TestDirtyEpochAllocBudget(t *testing.T) {
	const n, raters, shards, dirty = 2500, 48, 20, 125
	const budget = 5 << 19
	s := newTestService(t, n, Config{
		Graph:       testGraph(t, n, 7),
		Params:      core.Params{Epsilon: 1e-4, Seed: 11, Workers: -1},
		Shards:      shards,
		FoldWorkers: -1,
	})
	rateAll(t, s, n, raters)
	mustEpoch(t, s)

	src := rng.New(5)
	var ms runtime.MemStats
	for round := 0; round < 3; round++ {
		for _, j := range src.Sample(n, dirty) {
			if _, err := s.Submit((j+1+src.Intn(raters))%n, j, src.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		before := s.FoldedSubjects()
		runtime.ReadMemStats(&ms)
		alloc := ms.TotalAlloc
		v := mustEpoch(t, s)
		runtime.ReadMemStats(&ms)
		alloc = ms.TotalAlloc - alloc
		if got := s.FoldedSubjects() - before; got != dirty || v.TotalSteps() == 0 {
			t.Fatalf("round %d ran %d campaigns in %d steps, want %d re-rated subjects", round, got, v.TotalSteps(), dirty)
		}
		if alloc > budget {
			t.Fatalf("round %d: a 5%%-dirty epoch allocated %d bytes, budget %d", round, alloc, budget)
		}
		t.Logf("round %d: %d bytes, %d campaign steps", round, alloc, v.TotalSteps())
	}
}
