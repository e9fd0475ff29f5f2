package trust

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"diffgossip/internal/rng"
)

func TestMatrixSetGet(t *testing.T) {
	m := NewMatrix(5)
	if err := m.Set(1, 2, 0.7); err != nil {
		t.Fatal(err)
	}
	v, ok := m.Get(1, 2)
	if !ok || v != 0.7 {
		t.Fatalf("Get(1,2) = %v,%v", v, ok)
	}
	if _, ok := m.Get(2, 1); ok {
		t.Fatal("matrix symmetric without being set")
	}
	if m.Value(4, 4) != 0 {
		t.Fatal("missing entry not zero")
	}
}

func TestMatrixRejectsBadValues(t *testing.T) {
	m := NewMatrix(3)
	for _, v := range []float64{-0.1, 1.1, math.NaN()} {
		if err := m.Set(0, 1, v); err == nil {
			t.Fatalf("Set accepted %v", v)
		}
	}
}

func TestMatrixPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range Set")
		}
	}()
	_ = NewMatrix(2).Set(0, 5, 0.5)
}

func TestRatersOf(t *testing.T) {
	m := NewMatrix(6)
	_ = m.Set(4, 2, 0.9)
	_ = m.Set(1, 2, 0.3)
	_ = m.Set(1, 3, 0.5)
	ids, vals := m.RatersOfInto(2, nil, nil)
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 4 {
		t.Fatalf("RatersOfInto(2) ids = %v", ids)
	}
	if vals[0] != 0.3 || vals[1] != 0.9 {
		t.Fatalf("RatersOfInto(2) vals = %v", vals)
	}
	if ids, _ := m.RatersOfInto(0, nil, nil); ids != nil {
		t.Fatalf("RatersOfInto(0) = %v, want none", ids)
	}
}

func TestColumnStats(t *testing.T) {
	m := NewMatrix(4)
	_ = m.Set(0, 3, 0.2)
	_ = m.Set(1, 3, 0.6)
	if got := m.ColumnRaterMean(3); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("ColumnRaterMean = %v, want 0.4", got)
	}
	sum, cnt := m.ColumnSum(3)
	if sum != 0.8 || cnt != 2 {
		t.Fatalf("ColumnSum = %v,%d", sum, cnt)
	}
	if m.ColumnRaterMean(0) != 0 {
		t.Fatal("empty column rater mean not 0")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := NewMatrix(3)
	_ = m.Set(0, 1, 0.5)
	c := m.Clone()
	_ = c.Set(0, 1, 0.9)
	if m.Value(0, 1) != 0.5 {
		t.Fatal("clone shares storage")
	}
	if c.NumEntries() != 1 || m.NumEntries() != 1 {
		t.Fatal("entry counts wrong")
	}
}

// TestCloneFrozenUnderOriginalMutation pins the snapshot-path half of the
// concurrency contract: after Clone, mutations of the ORIGINAL — updates and
// new rows — must be invisible to the clone.
func TestCloneFrozenUnderOriginalMutation(t *testing.T) {
	m := NewMatrix(4)
	_ = m.Set(0, 1, 0.5)
	_ = m.Set(2, 1, 0.3)
	c := m.Clone()
	_ = m.Set(0, 1, 0.9) // update an entry the clone holds
	_ = m.Set(3, 1, 0.7) // populate a row that was nil at clone time
	_ = m.Set(2, 0, 0.1) // insert before an entry the clone holds
	if c.Value(0, 1) != 0.5 || c.Value(2, 1) != 0.3 {
		t.Fatal("clone saw mutations of the original")
	}
	if _, ok := c.Get(3, 1); ok {
		t.Fatal("clone saw a row created after cloning")
	}
	if c.NumEntries() != 2 {
		t.Fatalf("clone has %d entries, want 2", c.NumEntries())
	}
	if got := c.ColumnRaterMean(1); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("clone ColumnRaterMean = %v, want 0.4", got)
	}
}

// TestCloneEmptyAndFull covers the edge shapes the epoch path produces: the
// empty boot matrix and a matrix with every row populated.
func TestCloneEmptyAndFull(t *testing.T) {
	if c := NewMatrix(0).Clone(); c.N() != 0 || c.NumEntries() != 0 {
		t.Fatal("empty clone wrong")
	}
	if c := NewMatrix(5).Clone(); c.N() != 5 || c.NumEntries() != 0 {
		t.Fatal("zero-entry clone wrong")
	}
	m := NewMatrix(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			_ = m.Set(i, j, float64(i+j)/8)
		}
	}
	c := m.Clone()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if c.Value(i, j) != m.Value(i, j) {
				t.Fatalf("clone differs at (%d,%d)", i, j)
			}
		}
	}
}

// TestCloneConcurrentReaders runs many readers over a frozen clone while the
// original keeps mutating — exactly the service's snapshot pattern. Run
// under -race (the CI race job does) this would catch any storage sharing.
func TestCloneConcurrentReaders(t *testing.T) {
	m := NewMatrix(16)
	for i := 0; i < 16; i++ {
		_ = m.Set(i, (i+1)%16, 0.5)
	}
	frozen := m.Clone()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				i, j := k%16, (k+1)%16
				frozen.Value(i, j)
				frozen.ColumnRaterMean(j)
				frozen.InteractedWith(i)
				frozen.RowInto(i, nil, nil)
				frozen.RatersOfInto(j, nil, nil)
			}
		}()
	}
	for k := 0; k < 500; k++ {
		_ = m.Set(k%16, k%7, 0.25) // mutate the original only
	}
	wg.Wait()
}

func TestRowCopy(t *testing.T) {
	m := NewMatrix(3)
	_ = m.Set(1, 0, 0.25)
	_, vals := m.RowInto(1, nil, nil)
	vals[0] = 0.99
	if m.Value(1, 0) != 0.25 {
		t.Fatal("RowInto returned the live row")
	}
}

func TestWeightParamsValidate(t *testing.T) {
	if err := DefaultWeightParams.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []WeightParams{{A: 0.5, B: 1}, {A: math.NaN(), B: 1}, {A: 2, B: -1}, {A: math.Inf(1), B: 1}}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("Validate accepted %+v", p)
		}
	}
}

func TestWeightBounds(t *testing.T) {
	p := DefaultWeightParams
	if w := p.Weight(0); w != 1 {
		t.Fatalf("Weight(0) = %v, want 1", w)
	}
	if w := p.Weight(1); math.Abs(w-10) > 1e-12 {
		t.Fatalf("Weight(1) = %v, want 10", w)
	}
}

func TestWeightMonotoneAndAtLeastOne(t *testing.T) {
	p := WeightParams{A: 7, B: 1.3}
	f := func(raw uint32) bool {
		t1 := float64(raw%1000) / 999
		t2 := float64((raw/1000)%1000) / 999
		w1, w2 := p.Weight(t1), p.Weight(t2)
		if w1 < 1 || w2 < 1 {
			return false
		}
		if t1 < t2 && w1 > w2 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// personal is eq. (6) at observer o for subject j over the whole of m, the
// way core.GCLRRef evaluates it.
func personal(m Reader, o, j int) float64 {
	row, rowVals := m.RowInto(o, nil, nil)
	col, colVals := m.RatersOfInto(j, nil, nil)
	return eq6(row, rowVals, col, colVals)
}

// eq6 is eq. (6) with the rater-count denominator over an observer's row
// and a subject's column.
func eq6(row []int, rowVals []float64, col []int, colVals []float64) float64 {
	sum := 0.0
	for _, v := range colVals {
		sum += v
	}
	num, den := DefaultWeightParams.Calibrate(row, rowVals, col, colVals, sum, float64(len(col)))
	if den == 0 {
		return 0
	}
	return num / den
}

func TestWeightedColumnBoostsTrustedOpinion(t *testing.T) {
	// Observer 0 fully trusts neighbour 1; neighbour 1 rates node 2 high
	// while everyone else rates it low. The weighted estimate must exceed
	// the unweighted mean.
	m := NewMatrix(6)
	_ = m.Set(0, 1, 1.0) // observer trusts 1
	_ = m.Set(1, 2, 1.0)
	for i := 3; i < 6; i++ {
		_ = m.Set(i, 2, 0.1)
	}
	weighted := personal(m, 0, 2)
	sum, cnt := m.ColumnSum(2)
	unweighted := sum / float64(cnt)
	if weighted <= unweighted {
		t.Fatalf("weighted %v <= unweighted %v", weighted, unweighted)
	}
	if weighted < 0 || weighted > 1 {
		t.Fatalf("weighted reputation %v out of [0,1]", weighted)
	}
	// Exactly eq. (6): (9·1 + 1.3) / (9 + 4).
	if want := (9*1.0 + (1.0 + 0.1 + 0.1 + 0.1)) / (9 + 4); math.Abs(weighted-want) > 1e-12 {
		t.Fatalf("weighted %v, eq. (6) gives %v", weighted, want)
	}
}

func TestWeightedColumnEmpty(t *testing.T) {
	m := NewMatrix(4)
	if got := personal(m, 0, 1); got != 0 {
		t.Fatalf("empty-matrix personal reputation = %v", got)
	}
	// An observer whose neighbours never rated j: the neighbours still
	// weigh in the denominator, and with no raters the value is 0.
	_ = m.Set(0, 2, 1)
	if got := personal(m, 0, 1); got != 0 {
		t.Fatalf("unrated subject's personal reputation = %v", got)
	}
}

func TestWeightedColumnStaysInUnitInterval(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 5 + int(seed%20)
		m := NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && src.Bool(0.4) {
					_ = m.Set(i, j, src.Float64())
				}
			}
		}
		v := personal(m, src.Intn(n), src.Intn(n))
		return v >= 0 && v <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCalibrateSkipsUnratedNeighbours pins the merge join against the
// per-neighbour form it replaces: every neighbour adds w − 1 to den, and
// (w − 1)·t_kj to num only where it rated j, over rows and columns that
// interleave, start and end on either side.
func TestCalibrateSkipsUnratedNeighbours(t *testing.T) {
	p := DefaultWeightParams
	src := rng.New(12)
	for trial := 0; trial < 500; trial++ {
		n := 2 + src.Intn(40)
		m := NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if src.Bool(0.3) {
					_ = m.Set(i, j, src.Float64())
				}
			}
		}
		o, j := src.Intn(n), src.Intn(n)
		num0, den0 := src.Float64(), float64(src.Intn(5))
		wantNum, wantDen := num0, den0
		for k := 0; k < n; k++ {
			if t, ok := m.Get(o, k); ok {
				w := p.Weight(t)
				wantNum += (w - 1) * m.Value(k, j)
				wantDen += w - 1
			}
		}
		row, rowVals := m.RowInto(o, nil, nil)
		col, colVals := m.RatersOfInto(j, nil, nil)
		if num, den := p.Calibrate(row, rowVals, col, colVals, num0, den0); num != wantNum || den != wantDen {
			t.Fatalf("trial %d: Calibrate = (%v, %v), want (%v, %v)", trial, num, den, wantNum, wantDen)
		}
	}
}

func TestEstimatorConfigValidation(t *testing.T) {
	if _, err := NewEstimator(EstimatorConfig{Prior: -1, Discount: 1}); err == nil {
		t.Fatal("negative prior accepted")
	}
	if _, err := NewEstimator(EstimatorConfig{Prior: 0, Discount: 0}); err == nil {
		t.Fatal("discount 0 accepted")
	}
	if _, err := NewEstimator(EstimatorConfig{Prior: 0, Discount: 1.5}); err == nil {
		t.Fatal("discount >1 accepted")
	}
}

func TestEstimatorZeroDefault(t *testing.T) {
	e, err := NewEstimator(EstimatorConfig{Prior: 0, Discount: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e.Value() != 0 {
		t.Fatalf("fresh estimator value = %v, want 0 (whitewash defence)", e.Value())
	}
}

func TestEstimatorConverges(t *testing.T) {
	e, _ := NewEstimator(EstimatorConfig{Prior: 0, Discount: 1})
	for i := 0; i < 100; i++ {
		_ = e.Record(0.8)
	}
	if v := e.Value(); math.Abs(v-0.8) > 1e-9 {
		t.Fatalf("estimator converged to %v, want 0.8", v)
	}
	if e.Count() != 100 {
		t.Fatalf("count = %d", e.Count())
	}
}

func TestEstimatorDiscountTracksChange(t *testing.T) {
	e, _ := NewEstimator(EstimatorConfig{Prior: 0, Discount: 0.9})
	for i := 0; i < 50; i++ {
		_ = e.Record(1)
	}
	high := e.Value()
	for i := 0; i < 50; i++ {
		_ = e.Record(0)
	}
	low := e.Value()
	if high < 0.95 {
		t.Fatalf("after good streak value = %v", high)
	}
	if low > 0.05 {
		t.Fatalf("discounted estimator too sticky: %v after defection streak", low)
	}
}

func TestEstimatorRejectsBadQuality(t *testing.T) {
	e, _ := NewEstimator(EstimatorConfig{Prior: 0, Discount: 1})
	for _, q := range []float64{-0.1, 1.01, math.NaN()} {
		if err := e.Record(q); err == nil {
			t.Fatalf("Record accepted %v", q)
		}
	}
}

func TestEstimatorBoundedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		e, _ := NewEstimator(EstimatorConfig{Prior: 1, Discount: 0.95})
		for i := 0; i < 200; i++ {
			if err := e.Record(src.Float64()); err != nil {
				return false
			}
			if v := e.Value(); v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimatorReset(t *testing.T) {
	e, _ := NewEstimator(EstimatorConfig{Prior: 0, Discount: 1})
	_ = e.Record(1)
	e.Reset()
	if e.Value() != 0 || e.Count() != 0 {
		t.Fatal("Reset did not clear state")
	}
}
