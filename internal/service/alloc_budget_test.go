//go:build !race

package service

import (
	"runtime"
	"testing"

	"diffgossip/internal/core"
	"diffgossip/internal/rng"
	"diffgossip/internal/trust"
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

// TestPersonalReadAllocs pins the personalised read at two allocations, its
// merged row's ids and values, at 20 shards: the row is merged from the
// shards' rows without a sort, and the subject's column is read in place.
// While every read gathered the shards' rows into a growing slice, sorted
// it and looked each neighbour's two values up across shards, a read at the
// http-mixed benchmark's shape (N = 2,000, 48 raters per subject) took 7.
func TestPersonalReadAllocs(t *testing.T) {
	_, v, pairs := personalFixture(t, 400, 24, 20)
	k := 0
	allocs := testing.AllocsPerRun(200, func() {
		pair := pairs[k%len(pairs)]
		k++
		if _, err := v.Personal(pair[0], pair[1], trust.DefaultWeightParams); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("View.Personal made %v allocations per read, want at most 2", allocs)
	}
	t.Logf("%v allocations per read", allocs)
}
