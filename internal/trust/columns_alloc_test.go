//go:build !race

package trust

import (
	"runtime"
	"testing"

	"diffgossip/internal/rng"
)

// shardFixture returns shard sh of shards over n nodes: the subjects
// j ≡ sh (mod shards), ascending, and cells rating each by per distinct
// random raters, unstamped.
func shardFixture(n, sh, shards, per int, src *rng.Source) (subjects []int, cells []Cell) {
	for j := sh; j < n; j += shards {
		subjects = append(subjects, j)
		for _, i := range src.Sample(n, per) {
			cells = append(cells, Cell{Rater: i, Subject: j, Value: src.Float64()})
		}
	}
	return subjects, cells
}

// buildColumns is NewColumns(n, subjects).With(cells).
func buildColumns(t testing.TB, n int, subjects []int, cells []Cell) *Columns {
	t.Helper()
	c, err := NewColumns(n, subjects)
	if err != nil {
		t.Fatal(err)
	}
	if c, _, err = c.With(cells); err != nil {
		t.Fatal(err)
	}
	return c
}

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
