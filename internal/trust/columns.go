package trust

import (
	"cmp"
	"fmt"
	"slices"
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
	// The slice may be shared with the receiver: the caller must not modify
	// it.
	InteractedWith(i int) []int
}

var (
	_ Reader = (*Matrix)(nil)
	_ Reader = (*Columns)(nil)
)

// Columns is a frozen, column-major slice of a trust matrix: the direct
// trust data for a strictly ascending subset of subjects, indexed both by
// column (rater lists in ascending order, as the gossip fold consumes them)
// and by row (so GCLR-style evaluations can walk an observer's ratings
// without scanning every column). The sharded service publishes one Columns
// per shard snapshot; like a cloned Matrix it is immutable after
// construction, so any number of readers may share it without locks.
//
// Reads for subjects outside the subset report "no entry" — the composite
// view dispatches each subject to the shard that owns it.
//
// Storage is flat arrays only, no maps. The columns are
// compressed-sparse-column: all rater ids live in one flat []int and all
// values in one flat []float64, with the per-slot slices as contiguous
// subslice views into them. The row index is compressed-sparse-row over the
// same cells: row i's subject ids, ascending, are
// rowSubj[rowStart[i]:rowStart[i+1]]; a value is found through its column.
// Total memory scales with the number of ratings plus one offset per node —
// never with N×subjects.
type Columns struct {
	n        int
	subjects []int       // strictly ascending
	raters   [][]int     // per slot, ascending; views into one flat backing
	vals     [][]float64 // aligned with raters; views into one flat backing
	rowStart []int       // n+1 offsets into rowSubj
	rowSubj  []int       // per row, ascending subject ids
}

// ColumnsOf freezes the given subject columns of m. The subjects must be
// strictly ascending and in range.
func ColumnsOf(m *Matrix, subjects []int) (*Columns, error) {
	c, err := newColumnsShell(m.n, subjects)
	if err != nil {
		return nil, err
	}
	// Accumulate every column into one flat backing; attachFlat carves the
	// views once the last column has landed, since appends may reallocate.
	var ids []int
	var vals []float64
	offs := make([]int, len(c.subjects)+1)
	for s, j := range c.subjects {
		ids, vals = m.RatersOfInto(j, ids, vals)
		offs[s+1] = len(ids)
	}
	c.attachFlat(ids, vals, offs)
	return c, nil
}

// attachFlat carves the per-slot column views out of one flat (ids, vals)
// backing, slot s owning [offs[s], offs[s+1]), and builds the row index in
// one counting pass — the one way every constructor ends. Full-capacity
// slicing keeps a stray append on one view from clobbering its neighbour.
func (c *Columns) attachFlat(ids []int, vals []float64, offs []int) {
	c.raters = make([][]int, len(c.subjects))
	c.vals = make([][]float64, len(c.subjects))
	for s := range c.subjects {
		lo, hi := offs[s], offs[s+1]
		c.raters[s] = ids[lo:hi:hi]
		c.vals[s] = vals[lo:hi:hi]
	}
	// After the prefix sum rowStart[i] is the end of row i; filling back to
	// front moves it down to the row's start and, the subjects being
	// ascending, leaves every row ascending.
	start := make([]int, c.n+1)
	for _, i := range ids {
		start[i]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	subj := make([]int, len(ids))
	for s := len(c.subjects) - 1; s >= 0; s-- {
		j := c.subjects[s]
		for _, i := range c.raters[s] {
			start[i]--
			subj[start[i]] = j
		}
	}
	c.rowStart, c.rowSubj = start, subj
}

// NewColumns assembles a frozen Columns from raw per-subject rater lists —
// the decode path of the shard-snapshot wire format. The subjects must be
// strictly ascending and each raters[s] strictly ascending with values in
// [0,1]; the entries are compacted into the flat backing, so the input
// slices stay the caller's.
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
// readers holding it stay lock-free; the result shares c's subject list,
// copies the flat backing once with the updated raters merged into their
// slots' sorted lists, and rebuilds the row index whole. An empty cells
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
		s, ok := c.slot(cl.Subject)
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
	slices.SortStableFunc(ups, func(a, b update) int {
		return cmp.Or(cmp.Compare(a.slot, b.slot), cmp.Compare(a.rater, b.rater))
	})

	total := c.NumEntries() + len(ups)
	ids := make([]int, 0, total)
	vals := make([]float64, 0, total)
	offs := make([]int, len(c.subjects)+1)
	u := 0
	for s := range c.subjects {
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
		}
		ids = append(ids, oldIDs[x:]...)
		vals = append(vals, oldVals[x:]...)
		offs[s+1] = len(ids)
	}
	out := &Columns{n: c.n, subjects: c.subjects}
	out.attachFlat(ids, vals, offs)
	return out, nil
}

// newColumnsShell validates and copies the subject list; attachFlat fills
// in the rest.
func newColumnsShell(n int, subjects []int) (*Columns, error) {
	for s, j := range subjects {
		if j < 0 || j >= n {
			return nil, fmt.Errorf("trust: subject %d out of range [0,%d)", j, n)
		}
		if s > 0 && j <= subjects[s-1] {
			return nil, fmt.Errorf("trust: subjects not strictly ascending at %d", j)
		}
	}
	return &Columns{n: n, subjects: slices.Clone(subjects)}, nil
}

// slot returns subject j's position in the subject list.
func (c *Columns) slot(j int) (int, bool) {
	return slices.BinarySearch(c.subjects, j)
}

// N returns the node-id bound.
func (c *Columns) N() int { return c.n }

// Subjects returns the frozen subject set, ascending. The caller must not
// mutate it.
func (c *Columns) Subjects() []int { return c.subjects }

// Covers reports whether subject j is part of this column set.
func (c *Columns) Covers(j int) bool {
	_, ok := c.slot(j)
	return ok
}

// Column returns subject j's rater ids (ascending) and values, or nils when
// j is not covered. The caller must not mutate the returned slices.
func (c *Columns) Column(j int) ([]int, []float64) {
	s, ok := c.slot(j)
	if !ok {
		return nil, nil
	}
	return c.raters[s], c.vals[s]
}

// ColumnAt returns slot s's data — the encode path's accessor.
func (c *Columns) ColumnAt(s int) (subject int, raters []int, vals []float64) {
	return c.subjects[s], c.raters[s], c.vals[s]
}

// Get returns t_ij and whether i has rated j (false for uncovered subjects):
// a binary search of the subject list, then of j's raters.
func (c *Columns) Get(i, j int) (float64, bool) {
	s, ok := c.slot(j)
	if !ok {
		return 0, false
	}
	k, ok := slices.BinarySearch(c.raters[s], i)
	if !ok {
		return 0, false
	}
	return c.vals[s][k], true
}

// Value returns t_ij, or 0 when absent or uncovered.
func (c *Columns) Value(i, j int) float64 {
	v, _ := c.Get(i, j)
	return v
}

// ColumnSum returns (Σ_i t_ij, raterCount) for column j (zeros when
// uncovered).
func (c *Columns) ColumnSum(j int) (float64, int) {
	s, ok := c.slot(j)
	if !ok {
		return 0, 0
	}
	sum := 0.0
	for _, v := range c.vals[s] {
		sum += v
	}
	return sum, len(c.raters[s])
}

// InteractedWith returns the ascending subjects (within this column set)
// node i holds direct trust about. The slice is shared with c: the caller
// must not modify it.
func (c *Columns) InteractedWith(i int) []int {
	if i < 0 || i >= c.n {
		return nil
	}
	lo, hi := c.rowStart[i], c.rowStart[i+1]
	return c.rowSubj[lo:hi:hi]
}

// RatersOfInto appends subject j's raters and values (ascending) to the
// given slices — the frozen counterpart of Matrix.RatersOfInto, so either
// can seed a gossip fold. Uncovered subjects append nothing.
func (c *Columns) RatersOfInto(j int, ids []int, vals []float64) ([]int, []float64) {
	s, ok := c.slot(j)
	if !ok {
		return ids, vals
	}
	return append(ids, c.raters[s]...), append(vals, c.vals[s]...)
}

// NumEntries returns the number of stored (rater, subject) pairs.
func (c *Columns) NumEntries() int { return len(c.rowSubj) }
