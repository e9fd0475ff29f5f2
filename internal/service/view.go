package service

import (
	"fmt"
	"slices"

	"diffgossip/internal/store"
	"diffgossip/internal/trust"
)

// View is the composite read surface of the sharded service: the per-shard
// snapshots current at construction, stitched into one queryable whole.
// Building one costs S atomic pointer loads and one small allocation — no
// locks — and the captured segments are immutable, so a View can be held
// and queried for as long as the caller likes while epochs keep publishing
// underneath.
//
// # Consistency
//
// A View is snapshot-consistent per shard: everything about subject j — its
// global reputation, rater count, frozen trust column, fold epoch and fold
// sequence number — comes from one immutable publication of shard
// ShardOf(j). Different shards may sit at different fold points (that is
// the price of never recomputing clean shards); cross-shard reads such as
// the personalised GCLR view therefore combine columns from possibly
// different epochs, each internally consistent, all within the gossip error
// envelope of their own fold. With a single shard this degrades to exactly
// the old globally-snapshot-consistent model.
type View struct {
	n    int
	segs []*store.ShardSnapshot
}

var _ trust.Reader = (*View)(nil)

// N returns the network size.
func (v *View) N() int { return v.n }

// Shards returns the subject-shard count.
func (v *View) Shards() int { return len(v.segs) }

// Shard returns the captured snapshot of one shard.
func (v *View) Shard(s int) *store.ShardSnapshot { return v.segs[s] }

// seg returns the shard snapshot owning subject j.
func (v *View) seg(j int) (*store.ShardSnapshot, error) {
	if j < 0 || j >= v.n {
		return nil, fmt.Errorf("service: subject %d out of range [0,%d)", j, v.n)
	}
	return v.segs[store.ShardOf(j, len(v.segs))], nil
}

// Epoch returns the newest fold epoch any shard has published — the
// service-wide epoch counter as of this View. A subject's own fold point is
// SubjectEpoch.
func (v *View) Epoch() uint64 {
	var max uint64
	for _, seg := range v.segs {
		if seg.Epoch > max {
			max = seg.Epoch
		}
	}
	return max
}

// Seq returns the newest folded ledger sequence number across shards.
// Feedback for subject j is visible once SubjectSeq(j) reaches the number
// Submit returned for it.
func (v *View) Seq() uint64 {
	var max uint64
	for _, seg := range v.segs {
		if seg.Seq > max {
			max = seg.Seq
		}
	}
	return max
}

// Converged reports whether every shard's last fold converged (vacuously
// true for shards that never folded).
func (v *View) Converged() bool {
	for _, seg := range v.segs {
		if !seg.Converged {
			return false
		}
	}
	return true
}

// Steps returns the slowest campaign step count among the newest epoch's
// folds (matching ElapsedNs — per-shard step counts from older folds are in
// each shard's own snapshot).
func (v *View) Steps() int {
	epoch := v.Epoch()
	max := 0
	for _, seg := range v.segs {
		if seg.Epoch == epoch && seg.Steps > max {
			max = seg.Steps
		}
	}
	return max
}

// TotalSteps returns the summed campaign step counts of the newest epoch's
// folds — the epoch's compute-cost meter, which grows with the subjects the
// epoch re-rated, not with the size of the shards they live in.
func (v *View) TotalSteps() int {
	epoch := v.Epoch()
	if epoch == 0 {
		return 0
	}
	total := 0
	for _, seg := range v.segs {
		if seg.Epoch == epoch {
			total += seg.TotalSteps
		}
	}
	return total
}

// ElapsedNs returns the total compute time of the newest epoch: the sum of
// fold durations over the shards published at Epoch().
func (v *View) ElapsedNs() int64 {
	epoch := v.Epoch()
	if epoch == 0 {
		return 0
	}
	var total int64
	for _, seg := range v.segs {
		if seg.Epoch == epoch {
			total += seg.ElapsedNs
		}
	}
	return total
}

// Reputation returns subject j's global reputation.
func (v *View) Reputation(j int) (float64, error) {
	seg, err := v.seg(j)
	if err != nil {
		return 0, err
	}
	return seg.Reputation(j)
}

// Raters returns subject j's distinct-rater count (0 on out-of-range, which
// Reputation reports as the error).
func (v *View) Raters(j int) int {
	seg, err := v.seg(j)
	if err != nil {
		return 0
	}
	return seg.RaterCount(j)
}

// SubjectEpoch returns subject j's own fold point epoch — the epoch of its
// shard's captured snapshot.
func (v *View) SubjectEpoch(j int) uint64 {
	if seg, err := v.seg(j); err == nil {
		return seg.Epoch
	}
	return 0
}

// SubjectSeq returns the ledger sequence number through which subject j's
// shard is folded; a Submit is visible once this reaches its returned seq.
func (v *View) SubjectSeq(j int) uint64 {
	if seg, err := v.seg(j); err == nil {
		return seg.Seq
	}
	return 0
}

// Personal returns the globally calibrated local (GCLR) view of subject as
// seen by rater over the stitched frozen columns: core.GCLRRef's eq. (6),
// with the subject's column read in place from the shard that owns it.
func (v *View) Personal(rater, subject int, p trust.WeightParams) (float64, error) {
	if rater < 0 || rater >= v.n || subject < 0 || subject >= v.n {
		return 0, fmt.Errorf("service: pair (%d,%d) out of range [0,%d)", rater, subject, v.n)
	}
	cols := v.segs[store.ShardOf(subject, len(v.segs))].Cols
	row, rowVals := v.RowInto(rater, nil, nil)
	col, colVals := cols.Column(subject)
	sum, raters := cols.ColumnSum(subject)
	if num, den := p.Calibrate(row, rowVals, col, colVals, sum, float64(raters)); den != 0 {
		return num / den, nil
	}
	return 0, nil
}

// --- trust.Reader over the stitched columns ---

// Get returns t_ij from the frozen column of j's shard.
func (v *View) Get(i, j int) (float64, bool) {
	if i < 0 || i >= v.n || j < 0 || j >= v.n {
		return 0, false
	}
	return v.segs[store.ShardOf(j, len(v.segs))].Cols.Get(i, j)
}

// ColumnSum returns (Σ_i t_ij, raterCount) for column j.
func (v *View) ColumnSum(j int) (float64, int) {
	if j < 0 || j >= v.n {
		return 0, 0
	}
	return v.segs[store.ShardOf(j, len(v.segs))].Cols.ColumnSum(j)
}

// RatersOfInto appends subject j's raters and values, ascending, from the
// frozen column of j's shard.
func (v *View) RatersOfInto(j int, ids []int, vals []float64) ([]int, []float64) {
	if j < 0 || j >= v.n {
		return ids, vals
	}
	return v.segs[store.ShardOf(j, len(v.segs))].Cols.RatersOfInto(j, ids, vals)
}

// RowInto appends rater i's ratings across all shards, ascending by subject,
// to ids and vals. The shards' rows are disjoint and ascending, so each is
// read into spare capacity past the whole row and merged backward into the
// rows before it, with no sort; the buffers grow once.
func (v *View) RowInto(i int, ids []int, vals []float64) ([]int, []float64) {
	l, most := 0, 0
	for _, seg := range v.segs {
		r := seg.Cols.RowLen(i)
		l, most = l+r, max(most, r)
	}
	base := len(ids)
	ids, vals = slices.Grow(ids, l+most), slices.Grow(vals, l+most)
	spare := base + l
	for _, seg := range v.segs {
		rIDs, rVals := seg.Cols.RowInto(i, ids[spare:spare], vals[spare:spare])
		a := len(ids)
		ids, vals = ids[:a+len(rIDs)], vals[:a+len(rIDs)]
		for x, y, p := a-1, len(rIDs)-1, len(ids)-1; y >= 0; p-- {
			if x >= base && ids[x] > rIDs[y] {
				ids[p], vals[p], x = ids[x], vals[x], x-1
			} else {
				ids[p], vals[p], y = rIDs[y], rVals[y], y-1
			}
		}
	}
	return ids, vals
}
