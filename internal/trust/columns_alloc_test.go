//go:build !race

package trust

import (
	"runtime"
	"slices"
	"testing"

	"diffgossip/internal/rng"
)

// TestColumnsWithAllocsFlat: With allocates a fixed number of times however
// many raters a call touches — no per-rater structure is cloned.
func TestColumnsWithAllocsFlat(t *testing.T) {
	const n = 2500
	subjects, cells := shardFixture(n, 0, 20, 48, rng.New(5))
	c := buildColumns(t, n, subjects, cells)
	allocs := func(cells []Cell) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, _, err := c.With(cells); err != nil {
				t.Fatal(err)
			}
		})
	}
	one := allocs([]Cell{{Rater: 1, Subject: subjects[0], Value: 0.5}})
	many := make([]Cell, 64)
	for k := range many {
		many[k] = Cell{Rater: 37 * k, Subject: subjects[k%len(subjects)], Value: 0.25}
	}
	if got := allocs(many); got != one {
		t.Fatalf("With allocates %v times for 64 raters, %v for one", got, one)
	}
}

// TestColumnsWithRerateAllocs pins the re-rate path: a call whose every write
// re-rates an unstamped cell the receiver holds allocates rerateAllocs times
// however many cells it re-rates (the result, the call's updates, the stamps
// table, the value backing, its offsets and views, the won list) and fewer
// than a call that adds one pair, which also merges the rater backing and
// rebuilds the row index.
func TestColumnsWithRerateAllocs(t *testing.T) {
	const n, rerateAllocs = 2500, 7
	subjects, cells := shardFixture(n, 0, 20, 48, rng.New(5))
	c := buildColumns(t, n, subjects, cells)
	allocs := func(cells []Cell) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, _, err := c.With(cells); err != nil {
				t.Fatal(err)
			}
		})
	}
	rerate := make([]Cell, 64)
	for k := range rerate {
		rerate[k] = cells[(37*k)%len(cells)]
		rerate[k].Value = 0.25
	}
	for _, m := range []int{1, 6, 64} {
		if got := allocs(rerate[:m]); got != rerateAllocs {
			t.Errorf("re-rating %d cells allocates %v times, want %d", m, got, rerateAllocs)
		}
	}
	grow := append(slices.Clone(rerate[:6]), Cell{Rater: 1, Subject: subjects[0], Value: 0.5})
	if _, ok := c.Get(1, subjects[0]); ok {
		t.Fatal("fixture already holds the new pair")
	}
	if got := allocs(grow); got <= rerateAllocs {
		t.Errorf("a call adding a pair allocates %v times, want more than the re-rate path's %d", got, rerateAllocs)
	}
}

// TestColumnsHeapPerCell pins the frozen columns' live heap per stored cell
// at the service's shape: 20 shards, 48 raters per subject, N = 2,500. The
// flat layout is about 29 B/cell (three 8-byte arrays plus the row offsets);
// per-row maps beside the columns would be about three times that.
func TestColumnsHeapPerCell(t *testing.T) {
	const n, shards, per = 2500, 20, 48
	type input struct {
		subjects []int
		cells    []Cell
	}
	src := rng.New(9)
	in := make([]input, shards)
	for sh := range in {
		in[sh].subjects, in[sh].cells = shardFixture(n, sh, shards, per, src)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cols := make([]*Columns, shards)
	for sh, x := range in {
		cols[sh] = buildColumns(t, n, x.subjects, x.cells)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(in)
	perCell := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (n * per)
	runtime.KeepAlive(cols)
	t.Logf("columns hold %.1f B/cell", perCell)
	if perCell > 40 {
		t.Fatalf("columns hold %.1f B/cell, want ≤ 40", perCell)
	}
}
