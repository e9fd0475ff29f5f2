package trust

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"diffgossip/internal/rng"
)

func randomMatrix(t testing.TB, n int, density float64, seed uint64) *Matrix {
	t.Helper()
	src := rng.New(seed)
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && src.Bool(density) {
				if err := m.Set(i, j, src.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return m
}

// TestRatersOfIntoMatchesRatersOf: the append-style form returns exactly
// what RatersOf does, already sorted, reusing the caller's buffers.
func TestRatersOfIntoMatchesRatersOf(t *testing.T) {
	m := randomMatrix(t, 50, 0.3, 7)
	ids := make([]int, 0, 64)
	vals := make([]float64, 0, 64)
	for j := 0; j < 50; j++ {
		wantIds, wantVals := m.RatersOf(j)
		ids, vals = m.RatersOfInto(j, ids[:0], vals[:0])
		if len(ids) != len(wantIds) {
			t.Fatalf("subject %d: %d raters, want %d", j, len(ids), len(wantIds))
		}
		for k := range ids {
			if ids[k] != wantIds[k] || vals[k] != wantVals[k] {
				t.Fatalf("subject %d rater %d: (%d,%v) != (%d,%v)", j, k, ids[k], vals[k], wantIds[k], wantVals[k])
			}
			if k > 0 && ids[k] <= ids[k-1] {
				t.Fatalf("subject %d: raters not strictly ascending", j)
			}
		}
	}
}

// TestColumnsReaderMatchesMatrix: a frozen column set answers every Reader
// query identically to the matrix it was cut from, for covered subjects.
func TestColumnsReaderMatchesMatrix(t *testing.T) {
	const n = 40
	m := randomMatrix(t, n, 0.25, 11)
	subjects := []int{0, 3, 7, 21, 39}
	c, err := ColumnsOf(m, subjects)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != n || len(c.Subjects()) != len(subjects) {
		t.Fatalf("shape: n=%d subjects=%v", c.N(), c.Subjects())
	}
	covered := map[int]bool{}
	for _, j := range subjects {
		covered[j] = true
	}
	for i := 0; i < n; i++ {
		for _, j := range subjects {
			a, aok := m.Get(i, j)
			b, bok := c.Get(i, j)
			if a != b || aok != bok {
				t.Fatalf("entry (%d,%d): columns (%v,%v) != matrix (%v,%v)", i, j, b, bok, a, aok)
			}
		}
		// Row restricted to the covered subjects, ascending.
		var want []int
		for _, j := range m.InteractedWith(i) {
			if covered[j] {
				want = append(want, j)
			}
		}
		if got := c.InteractedWith(i); !slices.Equal(got, want) {
			t.Fatalf("row %d: covered interactions %v, want %v", i, got, want)
		}
	}
	for _, j := range subjects {
		aSum, aCnt := m.ColumnSum(j)
		bSum, bCnt := c.ColumnSum(j)
		if aSum != bSum || aCnt != bCnt {
			t.Fatalf("column %d: (%v,%d) != (%v,%d)", j, bSum, bCnt, aSum, aCnt)
		}
	}
	// Uncovered subjects read as empty.
	if v, ok := c.Get(1, 2); v != 0 || ok {
		t.Fatal("uncovered subject has entries")
	}
	if sum, cnt := c.ColumnSum(2); sum != 0 || cnt != 0 {
		t.Fatal("uncovered subject has a column sum")
	}
	if c.Covers(2) || !c.Covers(21) {
		t.Fatal("Covers wrong")
	}
	// WeightedColumn over the Reader interface agrees for covered columns.
	for _, o := range []int{0, 13, 39} {
		for _, j := range subjects {
			a := WeightedColumn(m, o, j, c.InteractedWith(o), DefaultWeightParams, true)
			b := WeightedColumn(c, o, j, c.InteractedWith(o), DefaultWeightParams, true)
			if a != b {
				t.Fatalf("WeightedColumn(%d,%d): %v != %v", o, j, b, a)
			}
		}
	}
}

// TestColumnsSaveLoadRoundTrip pins the gob wire format.
func TestColumnsSaveLoadRoundTrip(t *testing.T) {
	m := randomMatrix(t, 30, 0.3, 13)
	subjects := []int{2, 5, 8, 11, 29}
	c, err := ColumnsOf(m, subjects)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadColumns(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != c.N() || got.NumEntries() != c.NumEntries() {
		t.Fatalf("reload shape: n=%d entries=%d", got.N(), got.NumEntries())
	}
	for i := 0; i < 30; i++ {
		for _, j := range subjects {
			a, aok := c.Get(i, j)
			b, bok := got.Get(i, j)
			if a != b || aok != bok {
				t.Fatalf("entry (%d,%d) drifted through the wire", i, j)
			}
		}
	}
	// Corruption fails loudly.
	if _, err := LoadColumns(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("garbage columns accepted")
	}
}

// TestNewColumnsValidates rejects malformed raw column data.
func TestNewColumnsValidates(t *testing.T) {
	cases := []struct {
		name     string
		n        int
		subjects []int
		raters   [][]int
		vals     [][]float64
	}{
		{"dup subject", 5, []int{1, 1}, [][]int{{0}, {0}}, [][]float64{{0.5}, {0.5}}},
		{"subjects not ascending", 5, []int{2, 1}, [][]int{{0}, {0}}, [][]float64{{0.5}, {0.5}}},
		{"subject range", 5, []int{5}, [][]int{{0}}, [][]float64{{0.5}}},
		{"rater range", 5, []int{1}, [][]int{{5}}, [][]float64{{0.5}}},
		{"not ascending", 5, []int{1}, [][]int{{2, 2}}, [][]float64{{0.5, 0.5}}},
		{"value range", 5, []int{1}, [][]int{{0}}, [][]float64{{1.5}}},
		{"length mismatch", 5, []int{1}, [][]int{{0, 1}}, [][]float64{{0.5}}},
		{"column count", 5, []int{1, 2}, [][]int{{0}}, [][]float64{{0.5}}},
	}
	for _, tc := range cases {
		if _, err := NewColumns(tc.n, tc.subjects, tc.raters, tc.vals); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// checkColumnsEqual fails unless got answers every Columns query, and
// serialises, exactly like want.
func checkColumnsEqual(t testing.TB, got, want *Columns) {
	t.Helper()
	if got.N() != want.N() || got.NumEntries() != want.NumEntries() || len(got.Subjects()) != len(want.Subjects()) {
		t.Fatalf("shape: n=%d entries=%d subjects=%d, want %d/%d/%d", got.N(), got.NumEntries(), len(got.Subjects()),
			want.N(), want.NumEntries(), len(want.Subjects()))
	}
	for _, j := range want.Subjects() {
		gi, gv := got.Column(j)
		wi, wv := want.Column(j)
		if len(gi) != len(wi) || len(gv) != len(wv) {
			t.Fatalf("column %d: %d/%d entries, want %d/%d", j, len(gi), len(gv), len(wi), len(wv))
		}
		for k := range wi {
			if gi[k] != wi[k] || gv[k] != wv[k] {
				t.Fatalf("column %d entry %d: (%d,%v), want (%d,%v)", j, k, gi[k], gv[k], wi[k], wv[k])
			}
		}
		gs, gc := got.ColumnSum(j)
		ws, wc := want.ColumnSum(j)
		if gs != ws || gc != wc {
			t.Fatalf("column %d sum: (%v,%d), want (%v,%d)", j, gs, gc, ws, wc)
		}
	}
	for i := 0; i < want.N(); i++ {
		for _, j := range want.Subjects() {
			a, aok := got.Get(i, j)
			b, bok := want.Get(i, j)
			if a != b || aok != bok {
				t.Fatalf("entry (%d,%d): (%v,%v), want (%v,%v)", i, j, a, aok, b, bok)
			}
		}
		if gw, ww := got.InteractedWith(i), want.InteractedWith(i); !slices.Equal(gw, ww) {
			t.Fatalf("row %d: interactions %v, want %v", i, gw, ww)
		}
	}
	var gb, wb bytes.Buffer
	if err := got.Save(&gb); err != nil {
		t.Fatal(err)
	}
	if err := want.Save(&wb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatal("Save bytes differ")
	}
}

// withMirror applies cells both to a mirror matrix (Set, in order) and to cur
// through With, and checks the result against ColumnsOf(mirror) — the
// differential every With test and FuzzColumnsWith share.
func withMirror(t testing.TB, mirror *Matrix, cur *Columns, cells []Cell) *Columns {
	t.Helper()
	for _, cl := range cells {
		if err := mirror.Set(cl.Rater, cl.Subject, cl.Value); err != nil {
			t.Fatal(err)
		}
	}
	next, err := cur.With(cells)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ColumnsOf(mirror, cur.Subjects())
	if err != nil {
		t.Fatal(err)
	}
	checkColumnsEqual(t, next, want)
	return next
}

// TestColumnsWithMatchesColumnsOf: columns grown incrementally through With
// are indistinguishable from columns frozen in one go from a matrix that took
// the same writes — by every query and by their serialised bytes.
func TestColumnsWithMatchesColumnsOf(t *testing.T) {
	const n = 30
	subjects := []int{2, 5, 8, 11, 14, 29}
	mirror := NewMatrix(n)
	cur, err := ColumnsOf(mirror, subjects)
	if err != nil {
		t.Fatal(err)
	}

	// The named edge cases, each its own call.
	for _, cells := range [][]Cell{
		{{10, 5, 0.5}},               // first entry of an empty column
		{{3, 5, 0.25}},               // insert before the first rater
		{{25, 5, 0.75}},              // insert after the last rater
		{{10, 5, 0.9}},               // overwrite
		{{3, 5, 0}},                  // a 0 value is an entry, not a delete
		{{7, 8, 0.2}, {7, 8, 0.6}},   // same cell twice: the last write wins
		{{29, 29, 1}, {0, 2, 0}},     // boundary ids, two slots in one call
		{{12, 5, 0.1}, {11, 5, 0.3}}, // descending raters within one call
		{{3, 5, 0.4}, {3, 14, 0.4}},  // one rater's row grows in two slots
		{{10, 5, 0.9}, {10, 5, 0.9}}, // idempotent rewrite
	} {
		cur = withMirror(t, mirror, cur, cells)
	}
	if v, ok := cur.Get(7, 8); !ok || v != 0.6 {
		t.Fatalf("same-cell-twice kept (%v,%v), want the last write 0.6", v, ok)
	}
	if v, ok := cur.Get(3, 5); !ok || v != 0.4 {
		t.Fatalf("overwritten zero entry reads (%v,%v)", v, ok)
	}

	// An empty call is the receiver itself.
	if same, err := cur.With(nil); err != nil || same != cur {
		t.Fatalf("With(nil) = (%p, %v), want the receiver %p", same, err, cur)
	}

	// Seeded random write sequences, several cells per call, cells recurring.
	src := rng.New(17)
	for round := 0; round < 60; round++ {
		cells := make([]Cell, src.Intn(9))
		for k := range cells {
			cells[k] = Cell{src.Intn(n), subjects[src.Intn(len(subjects))], src.Float64()}
			if src.Bool(0.1) {
				cells[k].Value = 0
			}
			if k > 0 && src.Bool(0.2) {
				cells[k].Rater, cells[k].Subject = cells[k-1].Rater, cells[k-1].Subject
			}
		}
		cur = withMirror(t, mirror, cur, cells)
	}

	// Invalid cells are errors, wherever they sit in the call.
	for name, bad := range map[string]Cell{
		"uncovered subject": {1, 3, 0.5},
		"negative rater":    {-1, 5, 0.5},
		"rater == n":        {n, 5, 0.5},
		"NaN value":         {1, 5, math.NaN()},
		"value above 1":     {1, 5, 1.5},
		"negative value":    {1, 5, -0.1},
	} {
		if _, err := cur.With([]Cell{{1, 5, 0.5}, bad}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestColumnsWithLeavesReceiverUnchanged: readers hold published columns
// lock-free, so With must not write through any slice or row map it shares
// with its receiver.
func TestColumnsWithLeavesReceiverUnchanged(t *testing.T) {
	const n = 40
	m := randomMatrix(t, n, 0.25, 11)
	subjects := []int{0, 3, 7, 21, 39}
	c, err := ColumnsOf(m, subjects)
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := ColumnsOf(m, subjects) // an independent copy of the same state
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(3)
	for round := 0; round < 20; round++ {
		cells := make([]Cell, 1+src.Intn(12))
		for k := range cells {
			cells[k] = Cell{src.Intn(n), subjects[src.Intn(len(subjects))], src.Float64()}
		}
		next, err := c.With(cells)
		if err != nil {
			t.Fatal(err)
		}
		if next == c {
			t.Fatal("non-empty With returned its receiver")
		}
		// A second generation built on top must not reach back either.
		if _, err := next.With(cells[:1]); err != nil {
			t.Fatal(err)
		}
		checkColumnsEqual(t, c, frozen)
	}
}

// BenchmarkRatersOf vs BenchmarkRatersOfInto: the satellite's alloc+sort
// churn comparison — Into reuses buffers and skips the redundant sort.
func BenchmarkRatersOf(b *testing.B) {
	m := randomMatrix(b, 1000, 0.1, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RatersOf(i % 1000)
	}
}

func BenchmarkRatersOfInto(b *testing.B) {
	m := randomMatrix(b, 1000, 0.1, 3)
	ids := make([]int, 0, 256)
	vals := make([]float64, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids, vals = m.RatersOfInto(i%1000, ids[:0], vals[:0])
	}
}

// FuzzColumnsLoad hammers the gob columns decoder: arbitrary bytes must be
// rejected with an error — never a panic or a hostile allocation — and any
// accepted column set must satisfy the Columns invariants.
func FuzzColumnsLoad(f *testing.F) {
	m := NewMatrix(6)
	m.Set(0, 2, 0.5)
	m.Set(4, 2, 1)
	m.Set(1, 5, 0.25)
	c, err := ColumnsOf(m, []int{2, 5})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("junk"))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := LoadColumns(bytes.NewReader(data))
		if err != nil {
			return
		}
		for k, j := range got.Subjects() {
			if j < 0 || j >= got.N() {
				t.Fatalf("accepted columns with out-of-range subject %d", j)
			}
			if k > 0 && j <= got.Subjects()[k-1] {
				t.Fatalf("accepted columns with subjects not strictly ascending: %v", got.Subjects())
			}
			ids, vals := got.Column(j)
			prev := -1
			for k, i := range ids {
				if i <= prev || i >= got.N() {
					t.Fatalf("accepted column %d with bad rater order", j)
				}
				if vals[k] < 0 || vals[k] > 1 {
					t.Fatalf("accepted column %d with value %v", j, vals[k])
				}
				prev = i
			}
		}
		// The row index holds exactly the column cells, each readable.
		cells := 0
		for i := 0; i < got.N(); i++ {
			row := got.InteractedWith(i)
			cells += len(row)
			for _, j := range row {
				if _, ok := got.Get(i, j); !ok {
					t.Fatalf("row %d lists subject %d but Get(%d,%d) has no entry", i, j, i, j)
				}
			}
		}
		if cells != got.NumEntries() {
			t.Fatalf("rows hold %d cells, NumEntries %d", cells, got.NumEntries())
		}
	})
}

// FuzzColumnsWith is TestColumnsWithMatchesColumnsOf's differential over
// fuzzed cell lists: every three bytes are one (rater, subject, value) write,
// and a rater byte with its top bit set first flushes the cells gathered so
// far as one With call.
func FuzzColumnsWith(f *testing.F) {
	const n = 12
	subjects := []int{1, 4, 7, 10}
	f.Add([]byte{})
	f.Add([]byte{3, 1, 128, 3, 1, 255, 0x85, 2, 0, 5, 2, 7})
	f.Add([]byte{11, 3, 255, 0, 3, 0, 0x80, 3, 9, 0x8b, 0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		mirror := NewMatrix(n)
		cur, err := ColumnsOf(mirror, subjects)
		if err != nil {
			t.Fatal(err)
		}
		var cells []Cell
		for ; len(data) >= 3; data = data[3:] {
			if data[0]&0x80 != 0 {
				cur = withMirror(t, mirror, cur, cells)
				cells = cells[:0]
			}
			cells = append(cells, Cell{
				Rater:   int(data[0]&0x7f) % n,
				Subject: subjects[int(data[1])%len(subjects)],
				Value:   float64(data[2]) / 255,
			})
		}
		withMirror(t, mirror, cur, cells)
	})
}
