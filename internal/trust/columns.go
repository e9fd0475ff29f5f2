package trust

import (
	"fmt"
	"sort"
)

// Reader is the read-only surface the reputation evaluations
// (WeightedColumn, the GCLR references, the service's query path) need from
// trust state. Matrix implements it; so do the frozen per-shard Columns and
// the composite view the sharded service stitches from them, which is how
// one evaluation path serves both the monolithic and the sharded pipeline.
type Reader interface {
	// N is the node-id bound.
	N() int
	// Get returns t_ij and whether the entry exists.
	Get(i, j int) (float64, bool)
	// Value returns t_ij, or 0 when absent.
	Value(i, j int) float64
	// ColumnSum returns (Σ_i t_ij, raterCount) for column j.
	ColumnSum(j int) (float64, int)
	// InteractedWith returns the sorted ids node i holds direct trust about.
	InteractedWith(i int) []int
}

var (
	_ Reader = (*Matrix)(nil)
	_ Reader = (*Columns)(nil)
)

// Columns is a frozen, column-major slice of a trust matrix: the direct
// trust data for a subset of subjects, indexed both by column (rater lists
// in ascending order, as the gossip fold consumes them) and by row (so
// GCLR-style evaluations can walk an observer's ratings without scanning
// every column). The sharded service publishes one Columns per shard
// snapshot; like a cloned Matrix it is immutable after construction, so any
// number of readers may share it without locks.
//
// Reads for subjects outside the subset report "no entry" — the composite
// view dispatches each subject to the shard that owns it.
//
// Storage is compressed-sparse-column: all rater ids live in one flat []int
// and all values in one flat []float64, with the per-slot slices as
// contiguous subslice views into them. A shard's whole column set is then
// two allocations plus the views, entries of neighbouring subjects share
// cache lines, and total memory scales with the number of ratings — never
// with N×subjects.
type Columns struct {
	n        int
	subjects []int
	slot     map[int]int       // subject -> position in subjects
	raters   [][]int           // per slot, ascending; views into one flat backing
	vals     [][]float64       // aligned with raters; views into one flat backing
	rows     []map[int]float64 // rows[i][j] = t_ij restricted to subjects; nil when empty
}

// ColumnsOf freezes the given subject columns of m. The subjects must be
// distinct and in range; their order is preserved.
func ColumnsOf(m *Matrix, subjects []int) (*Columns, error) {
	c, err := newColumnsShell(m.n, subjects)
	if err != nil {
		return nil, err
	}
	// Accumulate every column into one flat backing, then carve the per-slot
	// views — the CSC layout. Appends may reallocate the backing mid-build,
	// so the views are taken only after the last column lands.
	var ids []int
	var vals []float64
	offs := make([]int, len(c.subjects)+1)
	for s, j := range c.subjects {
		ids, vals = m.RatersOfInto(j, ids, vals)
		offs[s+1] = len(ids)
	}
	c.attachFlat(ids, vals, offs)
	c.buildRows()
	return c, nil
}

// attachFlat carves the per-slot column views out of one flat (ids, vals)
// backing, slot s owning [offs[s], offs[s+1]). Full-capacity slicing keeps a
// stray append on one view from clobbering its neighbour.
func (c *Columns) attachFlat(ids []int, vals []float64, offs []int) {
	for s := range c.subjects {
		lo, hi := offs[s], offs[s+1]
		c.raters[s] = ids[lo:hi:hi]
		c.vals[s] = vals[lo:hi:hi]
	}
}

// NewColumns assembles a frozen Columns from raw per-subject rater lists —
// the decode path of the shard-snapshot wire format. Each raters[s] must be
// strictly ascending with values in [0,1]; the entries are compacted into
// the flat CSC backing, so the input slices stay the caller's.
func NewColumns(n int, subjects []int, raters [][]int, vals [][]float64) (*Columns, error) {
	c, err := newColumnsShell(n, subjects)
	if err != nil {
		return nil, err
	}
	if len(raters) != len(subjects) || len(vals) != len(subjects) {
		return nil, fmt.Errorf("trust: columns payload has %d/%d columns, want %d", len(raters), len(vals), len(subjects))
	}
	total := 0
	for s := range subjects {
		ids, vs := raters[s], vals[s]
		if len(ids) != len(vs) {
			return nil, fmt.Errorf("trust: column %d has %d raters but %d values", subjects[s], len(ids), len(vs))
		}
		prev := -1
		for k, i := range ids {
			if i < 0 || i >= n {
				return nil, fmt.Errorf("trust: column %d rater %d out of range [0,%d)", subjects[s], i, n)
			}
			if i <= prev {
				return nil, fmt.Errorf("trust: column %d raters not strictly ascending", subjects[s])
			}
			if vs[k] < 0 || vs[k] > 1 || vs[k] != vs[k] {
				return nil, fmt.Errorf("trust: column %d value %v out of [0,1]", subjects[s], vs[k])
			}
			prev = i
		}
		total += len(ids)
	}
	flatIDs := make([]int, 0, total)
	flatVals := make([]float64, 0, total)
	offs := make([]int, len(subjects)+1)
	for s := range subjects {
		flatIDs = append(flatIDs, raters[s]...)
		flatVals = append(flatVals, vals[s]...)
		offs[s+1] = len(flatIDs)
	}
	c.attachFlat(flatIDs, flatVals, offs)
	c.buildRows()
	return c, nil
}

// Cell is one trust write: t_{Rater,Subject} = Value.
type Cell struct {
	Rater, Subject int
	Value          float64
}

// With returns the column set that results from applying cells, in order, to
// c — Matrix.Set's semantics: the last write to a (rater, subject) pair wins,
// and a 0 value is an entry, not a deletion. c itself is not modified, so
// readers holding it stay lock-free; the result shares c's subject index and
// every untouched rater's row map, and copies the flat backing once with the
// updated raters merged into their slots' sorted lists. An empty cells
// returns c. A cell for an uncovered subject, an out-of-range rater or a
// value outside [0,1] is an error.
func (c *Columns) With(cells []Cell) (*Columns, error) {
	if len(cells) == 0 {
		return c, nil
	}
	type update struct {
		slot, rater int
		val         float64
	}
	ups := make([]update, len(cells))
	for k, cl := range cells {
		s, ok := c.slot[cl.Subject]
		if !ok {
			return nil, fmt.Errorf("trust: subject %d not in this column set", cl.Subject)
		}
		if cl.Rater < 0 || cl.Rater >= c.n {
			return nil, fmt.Errorf("trust: column %d rater %d out of range [0,%d)", cl.Subject, cl.Rater, c.n)
		}
		if !(cl.Value >= 0 && cl.Value <= 1) { // rejects NaN too
			return nil, fmt.Errorf("trust: column %d value %v out of [0,1]", cl.Subject, cl.Value)
		}
		ups[k] = update{s, cl.Rater, cl.Value}
	}
	// Order by (slot, rater) for the merge; the stable sort keeps writes to
	// one pair in call order, so the last of each run is the winner.
	sort.SliceStable(ups, func(a, b int) bool {
		if ups[a].slot != ups[b].slot {
			return ups[a].slot < ups[b].slot
		}
		return ups[a].rater < ups[b].rater
	})

	out := &Columns{
		n:        c.n,
		subjects: c.subjects,
		slot:     c.slot,
		raters:   make([][]int, len(c.subjects)),
		vals:     make([][]float64, len(c.subjects)),
		rows:     append([]map[int]float64(nil), c.rows...),
	}
	total := c.NumEntries() + len(ups)
	ids := make([]int, 0, total)
	vals := make([]float64, 0, total)
	offs := make([]int, len(c.subjects)+1)
	cloned := make(map[int]bool)
	u := 0
	for s, j := range c.subjects {
		oldIDs, oldVals := c.raters[s], c.vals[s]
		x := 0
		for ; u < len(ups) && ups[u].slot == s; u++ {
			i, v := ups[u].rater, ups[u].val
			if u+1 < len(ups) && ups[u+1].slot == s && ups[u+1].rater == i {
				continue // superseded within this call
			}
			lo := x
			for x < len(oldIDs) && oldIDs[x] < i {
				x++
			}
			ids = append(append(ids, oldIDs[lo:x]...), i)
			vals = append(append(vals, oldVals[lo:x]...), v)
			if x < len(oldIDs) && oldIDs[x] == i {
				x++ // overwritten
			}
			if !cloned[i] {
				cloned[i] = true
				out.rows[i] = make(map[int]float64, len(c.rows[i])+1)
				for subj, t := range c.rows[i] {
					out.rows[i][subj] = t
				}
			}
			out.rows[i][j] = v
		}
		ids = append(ids, oldIDs[x:]...)
		vals = append(vals, oldVals[x:]...)
		offs[s+1] = len(ids)
	}
	out.attachFlat(ids, vals, offs)
	return out, nil
}

func newColumnsShell(n int, subjects []int) (*Columns, error) {
	c := &Columns{
		n:        n,
		subjects: append([]int(nil), subjects...),
		slot:     make(map[int]int, len(subjects)),
		raters:   make([][]int, len(subjects)),
		vals:     make([][]float64, len(subjects)),
	}
	for s, j := range c.subjects {
		if j < 0 || j >= n {
			return nil, fmt.Errorf("trust: subject %d out of range [0,%d)", j, n)
		}
		if _, dup := c.slot[j]; dup {
			return nil, fmt.Errorf("trust: duplicate subject %d", j)
		}
		c.slot[j] = s
	}
	return c, nil
}

// buildRows derives the row index from the column data.
func (c *Columns) buildRows() {
	c.rows = make([]map[int]float64, c.n)
	for s, j := range c.subjects {
		for k, i := range c.raters[s] {
			if c.rows[i] == nil {
				c.rows[i] = make(map[int]float64)
			}
			c.rows[i][j] = c.vals[s][k]
		}
	}
}

// N returns the node-id bound.
func (c *Columns) N() int { return c.n }

// Subjects returns the frozen subject set in construction order. The caller
// must not mutate it.
func (c *Columns) Subjects() []int { return c.subjects }

// Covers reports whether subject j is part of this column set.
func (c *Columns) Covers(j int) bool {
	_, ok := c.slot[j]
	return ok
}

// Column returns subject j's rater ids (ascending) and values, or nils when
// j is not covered. The caller must not mutate the returned slices.
func (c *Columns) Column(j int) ([]int, []float64) {
	s, ok := c.slot[j]
	if !ok {
		return nil, nil
	}
	return c.raters[s], c.vals[s]
}

// ColumnAt returns slot s's data — the encode path's accessor.
func (c *Columns) ColumnAt(s int) (subject int, raters []int, vals []float64) {
	return c.subjects[s], c.raters[s], c.vals[s]
}

// Get returns t_ij and whether i has rated j (false for uncovered subjects).
func (c *Columns) Get(i, j int) (float64, bool) {
	if i < 0 || i >= c.n || c.rows[i] == nil {
		return 0, false
	}
	v, ok := c.rows[i][j]
	return v, ok
}

// Value returns t_ij, or 0 when absent or uncovered.
func (c *Columns) Value(i, j int) float64 {
	v, _ := c.Get(i, j)
	return v
}

// ColumnSum returns (Σ_i t_ij, raterCount) for column j (zeros when
// uncovered).
func (c *Columns) ColumnSum(j int) (float64, int) {
	s, ok := c.slot[j]
	if !ok {
		return 0, 0
	}
	sum := 0.0
	for _, v := range c.vals[s] {
		sum += v
	}
	return sum, len(c.raters[s])
}

// InteractedWith returns the sorted subjects (within this column set) node i
// holds direct trust about.
func (c *Columns) InteractedWith(i int) []int {
	if i < 0 || i >= c.n || c.rows[i] == nil {
		return nil
	}
	out := make([]int, 0, len(c.rows[i]))
	for j := range c.rows[i] {
		out = append(out, j)
	}
	sort.Ints(out)
	return out
}

// RatersOfInto appends subject j's raters and values (ascending) to the
// given slices — the frozen counterpart of Matrix.RatersOfInto, so either
// can seed a gossip fold. Uncovered subjects append nothing.
func (c *Columns) RatersOfInto(j int, ids []int, vals []float64) ([]int, []float64) {
	s, ok := c.slot[j]
	if !ok {
		return ids, vals
	}
	return append(ids, c.raters[s]...), append(vals, c.vals[s]...)
}

// RowOf returns node i's entries restricted to this column set as a shared
// map (nil when empty). The caller must not mutate it; the composite view
// uses it to stitch an observer's full row across shards.
func (c *Columns) RowOf(i int) map[int]float64 {
	if i < 0 || i >= c.n {
		return nil
	}
	return c.rows[i]
}

// NumEntries returns the number of stored (rater, subject) pairs.
func (c *Columns) NumEntries() int {
	total := 0
	for _, r := range c.raters {
		total += len(r)
	}
	return total
}
