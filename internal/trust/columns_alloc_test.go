//go:build !race

package trust

import (
	"runtime"
	"slices"
	"testing"

	"diffgossip/internal/rng"
)

// shardFixture returns shard sh of shards over n nodes as NewColumns input:
// the subjects j ≡ sh (mod shards), ascending, each rated by per distinct
// random raters.
func shardFixture(n, sh, shards, per int, src *rng.Source) (subjects []int, raters [][]int, vals [][]float64) {
	for j := sh; j < n; j += shards {
		ids := make([]int, 0, per)
		for len(ids) < per {
			if i := src.Intn(n); !slices.Contains(ids, i) {
				ids = append(ids, i)
			}
		}
		slices.Sort(ids)
		vs := make([]float64, per)
		for k := range vs {
			vs[k] = src.Float64()
		}
		subjects = append(subjects, j)
		raters = append(raters, ids)
		vals = append(vals, vs)
	}
	return subjects, raters, vals
}

// TestColumnsWithAllocsFlat: With allocates a fixed number of times however
// many raters a call touches — no per-rater structure is cloned.
func TestColumnsWithAllocsFlat(t *testing.T) {
	const n = 2500
	subjects, raters, vals := shardFixture(n, 0, 20, 48, rng.New(5))
	c, err := NewColumns(n, subjects, raters, vals)
	if err != nil {
		t.Fatal(err)
	}
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

// TestColumnsHeapPerCell pins the frozen columns' live heap per stored cell
// at the service's shape: 20 shards, 48 raters per subject, N = 2,500. The
// flat layout is about 29 B/cell (three 8-byte arrays plus the row offsets);
// per-row maps beside the columns would be about three times that.
func TestColumnsHeapPerCell(t *testing.T) {
	const n, shards, per = 2500, 20, 48
	type input struct {
		subjects []int
		raters   [][]int
		vals     [][]float64
	}
	src := rng.New(9)
	in := make([]input, shards)
	for sh := range in {
		in[sh].subjects, in[sh].raters, in[sh].vals = shardFixture(n, sh, shards, per, src)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cols := make([]*Columns, shards)
	for sh, x := range in {
		var err error
		if cols[sh], err = NewColumns(n, x.subjects, x.raters, x.vals); err != nil {
			t.Fatal(err)
		}
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
