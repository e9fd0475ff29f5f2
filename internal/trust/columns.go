package trust

import (
	"cmp"
	"fmt"
	"slices"
)

// Reader is the read-only surface the reputation references (GlobalRef,
// GCLRRef) need from trust state: values only, never the stamps Columns keep
// for With. Matrix implements it; so do the frozen per-shard Columns and the
// composite view the sharded service stitches from them.
type Reader interface {
	// N is the node-id bound.
	N() int
	// ColumnSum returns (Σ_i t_ij, raterCount) for column j.
	ColumnSum(j int) (float64, int)
	// RatersOfInto appends subject j's raters and values t_ij, ascending by
	// rater, to ids and vals.
	RatersOfInto(j int, ids []int, vals []float64) ([]int, []float64)
	// RowInto appends the subjects node i rated and its values t_ij,
	// ascending by subject, to ids and vals: the row eq. (6) walks.
	RowInto(i int, ids []int, vals []float64) ([]int, []float64)
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
// Each cell also carries the Stamp of the write that set it, by which With
// settles last-writer-wins. Total memory scales with the number of ratings
// plus one offset per node — never with N×subjects.
type Columns struct {
	n        int
	subjects []int       // strictly ascending
	raters   [][]int     // per slot, ascending; views into one flat backing
	vals     [][]float64 // aligned with raters; views into one flat backing
	rowStart []int       // n+1 offsets into rowSubj
	rowSubj  []int       // per row, ascending subject ids
	stamps   [][]stamp   // aligned with raters, each slot its own allocation; nil holds none
	origins  []string    // the stamps' origin table; entry 0 is ""
}

// Stamp is the last-writer-wins coordinate of a cell write: rival writes to
// one (rater, subject) cell are ordered by (UnixNano, Origin, Seq) — ingest
// time, then the origin id and origin sequence number it replicates under —
// the same on every replica. The zero Stamp means none, older than any other.
type Stamp struct {
	UnixNano int64
	Origin   string
	Seq      uint64
}

// Before reports whether a is strictly older than b.
func (a Stamp) Before(b Stamp) bool {
	return b != (Stamp{}) && (a == (Stamp{}) ||
		cmp.Or(cmp.Compare(a.UnixNano, b.UnixNano), cmp.Compare(a.Origin, b.Origin), cmp.Compare(a.Seq, b.Seq)) < 0)
}

// stamp is a Stamp inside a column set, org indexing its origin table, so
// the zero stamp is the zero Stamp.
type stamp struct {
	ts  int64
	seq uint64
	org uint32
}

// public resolves st through c's origin table.
func (c *Columns) public(st stamp) Stamp {
	return Stamp{UnixNano: st.ts, Origin: c.origins[st.org], Seq: st.seq}
}

// stampAt returns the stamp of slot s's x-th cell.
func (c *Columns) stampAt(s, x int) stamp {
	if c.stamps[s] == nil {
		return stamp{}
	}
	return c.stamps[s][x]
}

// ColumnsOf freezes the given subject columns of m. The subjects must be
// strictly ascending and in range.
func ColumnsOf(m *Matrix, subjects []int) (*Columns, error) {
	c, err := newColumnsShell(m.n, slices.Clone(subjects))
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
// one counting pass — the way every constructor ends but a With that only
// re-rates, which keeps its receiver's raters and index.
func (c *Columns) attachFlat(ids []int, vals []float64, offs []int) {
	c.raters, c.vals = carve(ids, offs), carve(vals, offs)
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

// carve returns the views flat[offs[s]:offs[s+1]], one per slot. Full-capacity
// slicing keeps a stray append on one view from clobbering its neighbour.
func carve[T any](flat []T, offs []int) [][]T {
	views := make([][]T, len(offs)-1)
	for s := range views {
		lo, hi := offs[s], offs[s+1]
		views[s] = flat[lo:hi:hi]
	}
	return views
}

// NewColumns returns the column set over subjects with no cells, what a
// shard holds before its first fold; With adds cells. The subjects must be
// strictly ascending and in range.
func NewColumns(n int, subjects []int) (*Columns, error) {
	c, err := newColumnsShell(n, slices.Clone(subjects))
	if err != nil {
		return nil, err
	}
	c.attachFlat(nil, nil, make([]int, len(subjects)+1))
	return c, nil
}

// Cell is one trust write, t_{Rater,Subject} = Value, and its Stamp.
type Cell struct {
	Rater, Subject int
	Value          float64
	Stamp          Stamp
}

// With returns c with cells applied, settling last-writer-wins per (rater,
// subject) cell: a write wins unless its Stamp is Before the cell's, so an
// equal stamp wins again and a cell without one loses to every write. Of a
// call's writes to one cell the largest stamp counts, the later of equal
// ones (Matrix.Set's semantics for unstamped writes); a 0 value is an entry.
// won lists, ascending, the subjects with a winning write; with none, c
// itself returns. c is never modified, so its readers stay lock-free: the
// result shares c's subject list and untouched slots' stamps and copies the
// flat value backing once with the winners written in. When every write
// re-rates a cell c already holds, it shares c's rater lists and row index
// too; a call that adds a pair merges the rater backing afresh and rebuilds
// the row index. An uncovered subject, out-of-range rater or value outside
// [0,1] is an error.
func (c *Columns) With(cells []Cell) (*Columns, []int, error) {
	type update struct {
		slot, rater int
		x           int  // the rater's index in the slot's column, or where it would go
		hit         bool // the cell exists
		val         float64
		st          stamp
	}
	out := &Columns{n: c.n, subjects: c.subjects, stamps: slices.Clone(c.stamps), origins: c.origins}
	ups := make([]update, len(cells))
	rerate := true // every write hits a cell c holds
	for k, cl := range cells {
		s, ok := c.slot(cl.Subject)
		if !ok {
			return nil, nil, fmt.Errorf("trust: subject %d not in this column set", cl.Subject)
		}
		if cl.Rater < 0 || cl.Rater >= c.n {
			return nil, nil, fmt.Errorf("trust: column %d rater %d out of range [0,%d)", cl.Subject, cl.Rater, c.n)
		}
		if !(cl.Value >= 0 && cl.Value <= 1) { // rejects NaN too
			return nil, nil, fmt.Errorf("trust: column %d value %v out of [0,1]", cl.Subject, cl.Value)
		}
		org := slices.Index(out.origins, cl.Stamp.Origin)
		if org < 0 {
			org, out.origins = len(out.origins), append(slices.Clip(out.origins), cl.Stamp.Origin)
		}
		x, hit := slices.BinarySearch(c.raters[s], cl.Rater)
		ups[k] = update{s, cl.Rater, x, hit, cl.Value, stamp{cl.Stamp.UnixNano, cl.Stamp.Seq, uint32(org)}}
		rerate = rerate && hit
	}
	// Order by (slot, rater); the stable sort keeps writes to one cell in
	// call order, and each run carries its largest stamp to its last write,
	// which wins unless the cell's own stamp is newer. ups[:w] collects the
	// winners, one per cell, in order.
	slices.SortStableFunc(ups, func(a, b update) int {
		return cmp.Or(cmp.Compare(a.slot, b.slot), cmp.Compare(a.rater, b.rater))
	})
	older := func(a, b stamp) bool { return out.public(a).Before(out.public(b)) }
	w := 0
	for u, up := range ups {
		if u+1 < len(ups) && ups[u+1].slot == up.slot && ups[u+1].rater == up.rater {
			if older(ups[u+1].st, up.st) {
				ups[u+1] = up
			}
			continue
		}
		if up.hit && older(up.st, c.stampAt(up.slot, up.x)) {
			continue // the cell keeps its write
		}
		ups[w], w = up, w+1
	}
	if ups = ups[:w]; w == 0 {
		return c, nil, nil
	}

	// Merge the winners into a copy of the flat value backing, and of the
	// rater backing unless every write re-rates: then the cells, and with
	// them c's rater lists and row index, stay as they are.
	vals := make([]float64, 0, c.NumEntries()+w)
	var ids []int
	if !rerate {
		ids = make([]int, 0, c.NumEntries()+w)
	}
	offs := make([]int, len(c.subjects)+1)
	won := make([]int, 0, min(w, len(c.subjects)))
	u := 0
	for s := range c.subjects {
		oldIDs, oldVals, x, first := c.raters[s], c.vals[s], 0, u
		for ; u < w && ups[u].slot == s; u++ {
			up := ups[u]
			vals = append(append(vals, oldVals[x:up.x]...), up.val)
			if !rerate {
				ids = append(append(ids, oldIDs[x:up.x]...), up.rater)
			}
			if x = up.x; up.hit {
				x++ // overwritten
			}
		}
		vals = append(vals, oldVals[x:]...)
		if !rerate {
			ids = append(ids, oldIDs[x:]...)
		}
		offs[s+1] = len(vals)
		if u == first {
			continue
		}
		won = append(won, c.subjects[s])
		if c.stamps[s] == nil && !slices.ContainsFunc(ups[first:u], func(up update) bool { return up.st != stamp{} }) {
			continue
		}
		// The slot's own new stamps: the old cells', then the winners'.
		st, merged := make([]stamp, offs[s+1]-offs[s]), oldIDs
		if !rerate {
			merged = ids[offs[s]:]
		}
		if len(merged) == len(oldIDs) {
			copy(st, c.stamps[s]) // the same raters
		} else {
			for x, i := range oldIDs {
				k, _ := slices.BinarySearch(merged, i)
				st[k] = c.stampAt(s, x)
			}
		}
		for _, up := range ups[first:u] {
			k, _ := slices.BinarySearch(merged, up.rater)
			st[k] = up.st
		}
		out.stamps[s] = st
	}
	if rerate {
		out.raters, out.rowStart, out.rowSubj, out.vals = c.raters, c.rowStart, c.rowSubj, carve(vals, offs)
	} else {
		out.attachFlat(ids, vals, offs)
	}
	return out, won, nil
}

// newColumnsShell validates the subject list, which it keeps; attachFlat
// fills in the rest.
func newColumnsShell(n int, subjects []int) (*Columns, error) {
	for s, j := range subjects {
		if j < 0 || j >= n {
			return nil, fmt.Errorf("trust: subject %d out of range [0,%d)", j, n)
		}
		if s > 0 && j <= subjects[s-1] {
			return nil, fmt.Errorf("trust: subjects not strictly ascending at %d", j)
		}
	}
	return &Columns{n: n, subjects: subjects, stamps: make([][]stamp, len(subjects)), origins: noOrigins}, nil
}

// noOrigins is the origin table of a set no stamp has touched, shared: With
// appends to a clipped copy and DecodeColumns replaces it, so none writes it.
var noOrigins = []string{""}

// slot returns subject j's position in the subject list.
func (c *Columns) slot(j int) (int, bool) {
	return slices.BinarySearch(c.subjects, j)
}

// N returns the node-id bound.
func (c *Columns) N() int { return c.n }

// Subjects returns the frozen subject set, ascending. The caller must not
// mutate it.
func (c *Columns) Subjects() []int { return c.subjects }

// ColumnAt returns slot s's data, the cells' Stamps in a fresh slice (zero
// where a cell has none): what regrouping cells into another set needs.
func (c *Columns) ColumnAt(s int) (subject int, raters []int, vals []float64, stamps []Stamp) {
	stamps = make([]Stamp, len(c.raters[s]))
	for x := range stamps {
		stamps[x] = c.public(c.stampAt(s, x))
	}
	return c.subjects[s], c.raters[s], c.vals[s], stamps
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

// StampOf returns the Stamp of the write that set t_ij (zero for a cell
// without one) and whether i has rated j, found as Get finds the value.
func (c *Columns) StampOf(i, j int) (Stamp, bool) {
	s, ok := c.slot(j)
	if !ok {
		return Stamp{}, false
	}
	k, ok := slices.BinarySearch(c.raters[s], i)
	if !ok {
		return Stamp{}, false
	}
	return c.public(c.stampAt(s, k)), true
}

// Column returns subject j's ascending raters and their values, shared with
// c: the caller must not modify them.
func (c *Columns) Column(j int) ([]int, []float64) {
	s, ok := c.slot(j)
	if !ok {
		return nil, nil
	}
	return c.raters[s], c.vals[s]
}

// ColumnSum returns (Σ_i t_ij, raterCount) for column j (zeros when
// uncovered).
func (c *Columns) ColumnSum(j int) (float64, int) {
	_, vals := c.Column(j)
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum, len(vals)
}

// RatersOfInto appends subject j's raters and values (ascending) to the
// given slices — the frozen counterpart of Matrix.RatersOfInto, so either
// can seed a gossip fold. Uncovered subjects append nothing.
func (c *Columns) RatersOfInto(j int, ids []int, vals []float64) ([]int, []float64) {
	raters, v := c.Column(j)
	return append(ids, raters...), append(vals, v...)
}

// RowLen returns how many subjects of the set node i rated.
func (c *Columns) RowLen(i int) int {
	if i < 0 || i >= c.n {
		return 0
	}
	return c.rowStart[i+1] - c.rowStart[i]
}

// RowInto appends node i's ratings of the set's subjects, ascending, to ids
// and vals. The row index names the subjects and each value is read from
// its column, so a row index a re-rating With shared still finds this set's
// values. Out-of-range i appends nothing.
func (c *Columns) RowInto(i int, ids []int, vals []float64) ([]int, []float64) {
	if i < 0 || i >= c.n {
		return ids, vals
	}
	for _, j := range c.rowSubj[c.rowStart[i]:c.rowStart[i+1]] {
		v, _ := c.Get(i, j)
		ids, vals = append(ids, j), append(vals, v)
	}
	return ids, vals
}

// NumEntries returns the number of stored (rater, subject) pairs.
func (c *Columns) NumEntries() int { return len(c.rowSubj) }
