// Package trust provides the local-trust substrate of the reputation system:
// the sparse matrix of direct-interaction trust values t_ij ∈ [0,1], the
// transaction-driven estimator producing them, and the confidence weights
// w_ij = a_i^(b_ij·t_ij) (paper eq. 2) used by globally calibrated local
// reputation.
//
// The aggregation layer (internal/core) is agnostic to how t_ij is estimated;
// the paper delegates estimation to a separate BLUE-based scheme [20], and
// this package substitutes a beta-style transaction-ratio estimator with
// exponential discounting of stale evidence, which produces values with the
// same semantics (0 = no trust, 1 = full trust, monotone in service quality).
package trust

import (
	"fmt"
	"math"
	"slices"
)

// Matrix is the sparse N×N local trust matrix. Entry (i,j) is the trust node
// i places in node j from direct interaction only; absent entries mean "never
// transacted" and are treated as 0 by the aggregation algorithms (the paper's
// whitewashing-resistant default).
//
// Each row is a slice of (j, t_ij) pairs in ascending j. A node rates few
// peers, so a binary search over its short row finds an entry without any
// hashing, and the matrix holds 16 B per entry (plus append slack) and one
// slice header per node.
//
// # Concurrency
//
// Matrix is NOT goroutine-safe: no method may run concurrently with Set on
// the same matrix, and there is no internal locking. The two supported
// sharing patterns are
//
//   - single owner: the simulator engines and the service's epoch path own
//     one matrix each and mutate it from one goroutine at a time;
//   - frozen snapshot: Clone the matrix and never mutate the clone — any
//     number of goroutines may then call the read methods on it without
//     synchronisation (the service's frozen form is Columns).
//
// Clone is a deep copy: mutations on either side are invisible to the other.
type Matrix struct {
	n    int
	rows [][]entry // rows[i] ascending in j
}

// entry is one stored value t_ij of row i.
type entry struct {
	j int
	v float64
}

// search returns the position of subject j in row, or where it would be
// inserted, and whether it is there. It is a hand loop because
// slices.BinarySearchFunc's comparison callback made filling a
// 50,000-node matrix about 10 % slower.
func search(row []entry, j int) (int, bool) {
	lo, hi := 0, len(row)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if row[h].j < j {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(row) && row[lo].j == j
}

// NewMatrix returns an empty trust matrix over n nodes.
func NewMatrix(n int) *Matrix {
	if n < 0 {
		panic("trust: negative size")
	}
	return &Matrix{n: n, rows: make([][]entry, n)}
}

// N returns the matrix dimension.
func (m *Matrix) N() int { return m.n }

// Set records t_ij = v. It panics on out-of-range indices and rejects values
// outside [0,1], which are always bugs upstream.
func (m *Matrix) Set(i, j int, v float64) error {
	if i < 0 || i >= m.n || j < 0 || j >= m.n {
		panic(fmt.Sprintf("trust: index (%d,%d) out of range [0,%d)", i, j, m.n))
	}
	if v < 0 || v > 1 || math.IsNaN(v) {
		return fmt.Errorf("trust: value %v out of [0,1]", v)
	}
	row := m.rows[i]
	k, ok := search(row, j)
	if ok {
		row[k].v = v
		return nil
	}
	m.rows[i] = slices.Insert(row, k, entry{j, v})
	return nil
}

// Get returns t_ij and whether node i has any direct-interaction value for j.
func (m *Matrix) Get(i, j int) (float64, bool) {
	row := m.rows[i]
	if k, ok := search(row, j); ok {
		return row[k].v, true
	}
	return 0, false
}

// Value returns t_ij, or 0 when i has never transacted with j.
func (m *Matrix) Value(i, j int) float64 {
	v, _ := m.Get(i, j)
	return v
}

// RatersOfInto appends j's raters and their values to ids and vals and
// returns the extended slices, in ascending rater order (the row sweep
// yields sorted output by construction, so no sort pass runs). The raters
// are the set that starts a gossip round with weight 1 in Algorithm 1; the
// shard fold path gathers thousands of columns per epoch into reused
// buffers.
func (m *Matrix) RatersOfInto(j int, ids []int, vals []float64) ([]int, []float64) {
	for i, row := range m.rows {
		if k, ok := search(row, j); ok {
			ids = append(ids, i)
			vals = append(vals, row[k].v)
		}
	}
	return ids, vals
}

// RowInto appends node i's trust row to ids and vals, (j, t_ij) in ascending
// j: the row counterpart of RatersOfInto, which eq. (6) walks at observer i.
func (m *Matrix) RowInto(i int, ids []int, vals []float64) ([]int, []float64) {
	for _, e := range m.rows[i] {
		ids, vals = append(ids, e.j), append(vals, e.v)
	}
	return ids, vals
}

// InteractedWith returns the sorted ids of every node i holds direct trust
// about — the paper's neighbour set NS_i, since neighbourhood is defined by
// interaction (§3, §4.1.2). This is the set whose opinions receive
// confidence weights > 1 in the GCLR variants.
func (m *Matrix) InteractedWith(i int) []int {
	out := make([]int, len(m.rows[i]))
	for k, e := range m.rows[i] {
		out[k] = e.j
	}
	return out
}

// NumEntries returns the number of stored (i,j) pairs.
func (m *Matrix) NumEntries() int {
	total := 0
	for _, r := range m.rows {
		total += len(r)
	}
	return total
}

// Clone returns a deep copy sharing no state with the receiver: mutating
// either matrix never affects the other. The snapshot path relies on this —
// a clone handed to concurrent readers must stay frozen while the original
// keeps absorbing feedback (see the concurrency contract on Matrix).
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.n)
	for i, r := range m.rows {
		c.rows[i] = slices.Clone(r)
	}
	return c
}

// ColumnRaterMean returns the mean of column j over raters only — the value
// Algorithm 1's gossip converges to (Σ_i y_ij / Σ_i g_ij with g=1 for
// raters).
func (m *Matrix) ColumnRaterMean(j int) float64 {
	sum, cnt := m.ColumnSum(j)
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// ColumnSum returns (Σ_i t_ij, raterCount) for column j.
func (m *Matrix) ColumnSum(j int) (float64, int) {
	sum, cnt := 0.0, 0
	for _, row := range m.rows {
		if k, ok := search(row, j); ok {
			sum += row[k].v
			cnt++
		}
	}
	return sum, cnt
}
