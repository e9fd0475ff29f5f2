package trust

import (
	"bytes"
	"encoding/binary"
	"maps"
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

// ratersOf reads column j cell by cell through Get: the reference for the
// row sweep of RatersOfInto.
func ratersOf(m *Matrix, j int) (ids []int, vals []float64) {
	for i := 0; i < m.N(); i++ {
		if v, ok := m.Get(i, j); ok {
			ids, vals = append(ids, i), append(vals, v)
		}
	}
	return ids, vals
}

// TestRatersOfIntoMatchesRatersOf: the append-style form returns exactly
// the column ratersOf reads, already sorted, reusing the caller's buffers.
func TestRatersOfIntoMatchesRatersOf(t *testing.T) {
	m := randomMatrix(t, 50, 0.3, 7)
	ids := make([]int, 0, 64)
	vals := make([]float64, 0, 64)
	for j := 0; j < 50; j++ {
		wantIds, wantVals := ratersOf(m, j)
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
		// Row restricted to the covered subjects, ascending, with its values.
		want, wantVals := coveredRow(m, i, covered)
		if got, vals := c.RowInto(i, nil, nil); !slices.Equal(got, want) || !slices.Equal(vals, wantVals) {
			t.Fatalf("row %d: covered ratings %v %v, want %v %v", i, got, vals, want, wantVals)
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
	if st, ok := c.StampOf(1, 2); st != (Stamp{}) || ok {
		t.Fatal("uncovered subject has a stamp")
	}
	if sum, cnt := c.ColumnSum(2); sum != 0 || cnt != 0 {
		t.Fatal("uncovered subject has a column sum")
	}
	if slices.Contains(c.Subjects(), 2) || !slices.Contains(c.Subjects(), 21) {
		t.Fatal("subject set wrong")
	}
	// Eq. (6) over the column set equals eq. (6) over the matrix with the
	// observer's row restricted to the covered subjects.
	for _, o := range []int{0, 13, 39} {
		for _, j := range subjects {
			row, rowVals := coveredRow(m, o, covered)
			col, colVals := m.RatersOfInto(j, nil, nil)
			a := eq6(row, rowVals, col, colVals)
			if b := personal(c, o, j); a != b {
				t.Fatalf("personal(%d,%d): columns %v != matrix %v", o, j, b, a)
			}
		}
	}
}

// coveredRow returns node i's row of m restricted to the covered subjects.
func coveredRow(m *Matrix, i int, covered map[int]bool) (ids []int, vals []float64) {
	row, rowVals := m.RowInto(i, nil, nil)
	for x, j := range row {
		if covered[j] {
			ids, vals = append(ids, j), append(vals, rowVals[x])
		}
	}
	return ids, vals
}

// TestColumnsSaveLoadRoundTrip pins the wire section: what AppendBinary
// writes DecodeColumns reads back whole, leaving the bytes after it.
func TestColumnsSaveLoadRoundTrip(t *testing.T) {
	m := randomMatrix(t, 30, 0.3, 13)
	subjects := []int{2, 5, 8, 11, 29}
	c, err := ColumnsOf(m, subjects)
	if err != nil {
		t.Fatal(err)
	}
	got, rest, err := DecodeColumns(append(c.AppendBinary(nil), "tail"...))
	if err != nil {
		t.Fatal(err)
	}
	if string(rest) != "tail" {
		t.Fatalf("decode left %q after the section, want \"tail\"", rest)
	}
	checkColumnsEqual(t, got, c)
	// Corruption fails loudly.
	if _, _, err := DecodeColumns([]byte("junk")); err == nil {
		t.Fatal("garbage columns accepted")
	}
}

// TestLoadColumnsValidatesStamps: every stamp's origin index resolves in the
// origin table, whose entry 0 is the empty origin; the subjects, raters and
// values keep every Columns invariant; and a section whose counts overrun its
// bytes is refused. A stamped set that passes re-saves byte for byte.
func TestLoadColumnsValidatesStamps(t *testing.T) {
	c, err := NewColumns(6, []int{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if c, _, err = c.With([]Cell{{Rater: 0, Subject: 2, Value: 0.5, Stamp: Stamp{UnixNano: 7, Origin: "a", Seq: 1}},
		{Rater: 4, Subject: 2, Value: 1, Stamp: Stamp{UnixNano: -3, Seq: 2}}, {Rater: 1, Subject: 5, Value: 0.25}}); err != nil {
		t.Fatal(err)
	}
	good := c.AppendBinary(nil)
	got, rest, err := DecodeColumns(good)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: err %v, %d bytes left", err, len(rest))
	}
	_, _, _, stamps := got.ColumnAt(0)
	if !slices.Equal(stamps, []Stamp{{UnixNano: 7, Origin: "a", Seq: 1}, {UnixNano: -3, Seq: 2}}) {
		t.Fatalf("loaded stamps %+v", stamps)
	}
	if !bytes.Equal(got.AppendBinary(nil), good) {
		t.Fatal("a stamped set does not re-save byte for byte")
	}
	// Offsets into good: the header and 2 subjects, 2 counts (24 bytes),
	// then three 32-byte cells, then the origin table ["", "a"].
	const cells, org0, table = 24, 24 + 28, 24 + 3*32
	le := binary.LittleEndian
	for name, mutate := range map[string]func(b []byte) []byte{
		"origin past the table":  func(b []byte) []byte { le.PutUint32(b[org0:], 2); return b },
		"no origin table":        func(b []byte) []byte { return le.AppendUint32(b[:table], 0) },
		"table without \"\"":     func(b []byte) []byte { return append(le.AppendUint32(le.AppendUint32(b[:table], 1), 1), 'a') },
		"origin overruns":        func(b []byte) []byte { le.PutUint32(b[table+4:], 9); return b },
		"truncated table":        func(b []byte) []byte { return b[:len(b)-1] },
		"truncated cells":        func(b []byte) []byte { return b[:cells+3*32-1] },
		"counts overrun cells":   func(b []byte) []byte { le.PutUint32(b[20:], 4); return b },
		"subjects over N":        func(b []byte) []byte { le.PutUint32(b[4:], 7); return b },
		"subject out of range":   func(b []byte) []byte { le.PutUint32(b[12:], 6); return b },
		"subjects not ascending": func(b []byte) []byte { le.PutUint32(b[12:], 2); return b },
		"rater out of range":     func(b []byte) []byte { le.PutUint32(b[cells:], 6); return b },
		"raters not ascending":   func(b []byte) []byte { le.PutUint32(b[cells+32:], 0); return b },
		"value out of [0,1]":     func(b []byte) []byte { le.PutUint64(b[cells+4:], math.Float64bits(1.5)); return b },
		"NaN value":              func(b []byte) []byte { le.PutUint64(b[cells+4:], math.Float64bits(math.NaN())); return b },
	} {
		if _, _, err := DecodeColumns(mutate(slices.Clone(good))); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestNewColumnsValidates rejects malformed subject lists, and With the
// cells a column set cannot hold.
func TestNewColumnsValidates(t *testing.T) {
	for name, subjects := range map[string][]int{"dup subject": {1, 1}, "subjects not ascending": {2, 1}, "subject range": {5}, "negative subject": {-1}} {
		if _, err := NewColumns(5, subjects); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	c, err := NewColumns(5, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	for name, cl := range map[string]Cell{"rater range": {Rater: 5, Subject: 1, Value: 0.5}, "value range": {Subject: 1, Value: 1.5},
		"NaN value": {Subject: 1, Value: math.NaN()}, "uncovered subject": {Subject: 2, Value: 0.5}} {
		if _, _, err := c.With([]Cell{cl}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// checkColumnsEqual fails unless got answers every Columns query exactly like
// want and, when got holds no stamp, serialises exactly like it.
func checkColumnsEqual(t testing.TB, got, want *Columns) {
	t.Helper()
	if got.N() != want.N() || got.NumEntries() != want.NumEntries() || len(got.Subjects()) != len(want.Subjects()) {
		t.Fatalf("shape: n=%d entries=%d subjects=%d, want %d/%d/%d", got.N(), got.NumEntries(), len(got.Subjects()),
			want.N(), want.NumEntries(), len(want.Subjects()))
	}
	for s, j := range want.Subjects() {
		_, gi, gv, _ := got.ColumnAt(s)
		_, wi, wv, _ := want.ColumnAt(s)
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
		gw, gv := got.RowInto(i, nil, nil)
		if ww, wv := want.RowInto(i, nil, nil); !slices.Equal(gw, ww) || !slices.Equal(gv, wv) {
			t.Fatalf("row %d: ratings %v %v, want %v %v", i, gw, gv, ww, wv)
		}
	}
	if !hasStamp(got) && !bytes.Equal(got.AppendBinary(nil), want.AppendBinary(nil)) {
		t.Fatal("AppendBinary bytes differ")
	}
}

// hasStamp reports whether any cell of c carries a Stamp.
func hasStamp(c *Columns) bool {
	for s := range c.Subjects() {
		if _, _, _, st := c.ColumnAt(s); slices.ContainsFunc(st, func(x Stamp) bool { return x != Stamp{} }) {
			return true
		}
	}
	return false
}

// mirror is the reference every With test and FuzzColumnsWith check against:
// a Matrix that takes the same writes one at a time, each only when its stamp
// is not Before the stamp its cell last took (none: the zero Stamp).
type mirror struct {
	m      *Matrix
	stamps map[[2]int]Stamp
}

func newMirror(m *Matrix) *mirror { return &mirror{m: m, stamps: map[[2]int]Stamp{}} }

// with applies cells both to the mirror and to cur through With, and checks
// the result — values, stamps, the won report — against the mirror.
func (mr *mirror) with(t testing.TB, cur *Columns, cells []Cell) *Columns {
	t.Helper()
	won := map[int]bool{}
	for _, cl := range cells {
		if cl.Stamp.Before(mr.stamps[[2]int{cl.Rater, cl.Subject}]) {
			continue
		}
		if err := mr.m.Set(cl.Rater, cl.Subject, cl.Value); err != nil {
			t.Fatal(err)
		}
		mr.stamps[[2]int{cl.Rater, cl.Subject}] = cl.Stamp
		won[cl.Subject] = true
	}
	next, gotWon, err := cur.With(cells)
	if err != nil {
		t.Fatal(err)
	}
	if wantWon := slices.Sorted(maps.Keys(won)); !slices.Equal(gotWon, wantWon) || (next == cur) != (len(won) == 0) {
		t.Fatalf("With won %v (receiver returned: %v), want %v", gotWon, next == cur, wantWon)
	}
	want, err := ColumnsOf(mr.m, cur.Subjects())
	if err != nil {
		t.Fatal(err)
	}
	checkColumnsEqual(t, next, want)
	for s, j := range next.Subjects() {
		_, ids, _, stamps := next.ColumnAt(s)
		for x, i := range ids {
			if want := mr.stamps[[2]int{i, j}]; stamps[x] != want {
				t.Fatalf("cell (%d,%d) carries stamp %+v, want %+v", i, j, stamps[x], want)
			}
		}
	}
	return next
}

// TestColumnsWithMatchesColumnsOf: columns grown incrementally through With
// are indistinguishable from columns frozen in one go from a matrix that took
// the same writes — by every query and by their serialised bytes.
func TestColumnsWithMatchesColumnsOf(t *testing.T) {
	const n = 30
	subjects := []int{2, 5, 8, 11, 14, 29}
	mr := newMirror(NewMatrix(n))
	cur, err := ColumnsOf(mr.m, subjects)
	if err != nil {
		t.Fatal(err)
	}

	// The named edge cases, each its own call.
	for _, cells := range [][]Cell{
		{{Rater: 10, Subject: 5, Value: 0.5}},                                      // first entry of an empty column
		{{Rater: 3, Subject: 5, Value: 0.25}},                                      // insert before the first rater
		{{Rater: 25, Subject: 5, Value: 0.75}},                                     // insert after the last rater
		{{Rater: 10, Subject: 5, Value: 0.9}},                                      // overwrite
		{{Rater: 3, Subject: 5, Value: 0}},                                         // a 0 value is an entry, not a delete
		{{Rater: 7, Subject: 8, Value: 0.2}, {Rater: 7, Subject: 8, Value: 0.6}},   // same cell twice: the last write wins
		{{Rater: 29, Subject: 29, Value: 1}, {Rater: 0, Subject: 2, Value: 0}},     // boundary ids, two slots in one call
		{{Rater: 12, Subject: 5, Value: 0.1}, {Rater: 11, Subject: 5, Value: 0.3}}, // descending raters within one call
		{{Rater: 3, Subject: 5, Value: 0.4}, {Rater: 3, Subject: 14, Value: 0.4}},  // one rater's row grows in two slots
		{{Rater: 10, Subject: 5, Value: 0.9}, {Rater: 10, Subject: 5, Value: 0.9}}, // idempotent rewrite
	} {
		cur = mr.with(t, cur, cells)
	}
	if v, ok := cur.Get(7, 8); !ok || v != 0.6 {
		t.Fatalf("same-cell-twice kept (%v,%v), want the last write 0.6", v, ok)
	}
	if v, ok := cur.Get(3, 5); !ok || v != 0.4 {
		t.Fatalf("overwritten zero entry reads (%v,%v)", v, ok)
	}

	// An empty call is the receiver itself.
	if same, _, err := cur.With(nil); err != nil || same != cur {
		t.Fatalf("With(nil) = (%p, %v), want the receiver %p", same, err, cur)
	}

	// Seeded random write sequences, several cells per call, cells recurring.
	src := rng.New(17)
	for round := 0; round < 60; round++ {
		cells := make([]Cell, src.Intn(9))
		for k := range cells {
			cells[k] = Cell{Rater: src.Intn(n), Subject: subjects[src.Intn(len(subjects))], Value: src.Float64()}
			if src.Bool(0.1) {
				cells[k].Value = 0
			}
			if k > 0 && src.Bool(0.2) {
				cells[k].Rater, cells[k].Subject = cells[k-1].Rater, cells[k-1].Subject
			}
		}
		cur = mr.with(t, cur, cells)
	}

	// Invalid cells are errors, wherever they sit in the call.
	for name, bad := range map[string]Cell{
		"uncovered subject": {Rater: 1, Subject: 3, Value: 0.5},
		"negative rater":    {Rater: -1, Subject: 5, Value: 0.5},
		"rater == n":        {Rater: n, Subject: 5, Value: 0.5},
		"NaN value":         {Rater: 1, Subject: 5, Value: math.NaN()},
		"value above 1":     {Rater: 1, Subject: 5, Value: 1.5},
		"negative value":    {Rater: 1, Subject: 5, Value: -0.1},
	} {
		if _, _, err := cur.With([]Cell{{Rater: 1, Subject: 5, Value: 0.5}, bad}); err == nil {
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
			cells[k] = Cell{Rater: src.Intn(n), Subject: subjects[src.Intn(len(subjects))], Value: src.Float64()}
		}
		next, _, err := c.With(cells)
		if err != nil {
			t.Fatal(err)
		}
		if next == c {
			t.Fatal("non-empty With returned its receiver")
		}
		// A second generation built on top must not reach back either.
		if _, _, err := next.With(cells[:1]); err != nil {
			t.Fatal(err)
		}
		checkColumnsEqual(t, c, frozen)
	}
}

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

// TestColumnsWithRerateSharesRows: a call whose every winning write re-rates
// a cell the receiver holds copies only the value backing, so its result
// shares the receiver's rater lists and row index; one write that adds a pair
// sends the whole call down the merge-and-rebuild path. Either way the result
// serialises exactly like a fresh build over the same cells.
func TestColumnsWithRerateSharesRows(t *testing.T) {
	const n = 200
	subjects, cells := shardFixture(n, 3, 10, 8, rng.New(21))
	for k := range cells {
		cells[k].Stamp = Stamp{UnixNano: 1, Origin: "a"}
	}
	c := buildColumns(t, n, subjects, cells)
	// step applies writes to c and to the cells a fresh build takes.
	step := func(writes []Cell) *Columns {
		t.Helper()
		next, _, err := c.With(writes)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range writes {
			if k := slices.IndexFunc(cells, func(cl Cell) bool { return cl.Rater == w.Rater && cl.Subject == w.Subject }); k >= 0 {
				cells[k] = w
			} else {
				cells = append(cells, w)
			}
		}
		if !bytes.Equal(next.AppendBinary(nil), buildColumns(t, n, subjects, cells).AppendBinary(nil)) {
			t.Fatal("AppendBinary bytes differ from a fresh build over the same cells")
		}
		return next
	}
	sharesRows := func(a, b *Columns) bool {
		for s := range a.raters {
			if &a.raters[s][0] != &b.raters[s][0] {
				return false
			}
		}
		return &a.rowStart[0] == &b.rowStart[0] && &a.rowSubj[0] == &b.rowSubj[0]
	}
	rerate := func(ks ...int) []Cell {
		writes := make([]Cell, len(ks))
		for x, k := range ks {
			writes[x] = Cell{Rater: cells[k].Rater, Subject: cells[k].Subject, Value: float64(k) / 128, Stamp: Stamp{UnixNano: 2, Origin: "a", Seq: uint64(x)}}
		}
		return writes
	}

	next := step(rerate(0, 9, 30, 31, 79))
	if !sharesRows(next, c) {
		t.Fatal("a re-rate-only call rebuilt the rater lists or the row index")
	}
	for s := range c.vals {
		if &next.vals[s][0] == &c.vals[s][0] {
			t.Fatalf("slot %d shares the receiver's values", s)
		}
	}

	c = next
	fresh := 0
	for _, ok := c.Get(fresh, subjects[1]); ok; _, ok = c.Get(fresh, subjects[1]) {
		fresh++
	}
	grown := step(append(rerate(2, 40), Cell{Rater: fresh, Subject: subjects[1], Value: 0.5, Stamp: Stamp{UnixNano: 3, Origin: "a"}}))
	if &grown.rowSubj[0] == &c.rowSubj[0] || &grown.raters[0][0] == &c.raters[0][0] {
		t.Fatal("a call adding a pair shared the receiver's row index or rater backing")
	}
	ids, vals := grown.RowInto(fresh, nil, nil)
	if x := slices.Index(ids, subjects[1]); x < 0 || vals[x] != 0.5 {
		t.Fatalf("row %d = %v %v, want the new pair's subject %d at 0.5", fresh, ids, vals, subjects[1])
	}
}

// BenchmarkColumnsWith times one shard's With at the epoch-dirty5 shape: N =
// 2,500 over 20 shards, so 125 subjects with 48 stamped raters each, taking
// 6 writes on 6 subjects. rerate only re-rates cells the shard holds and
// copies the values; newpair turns one of the 6 into a new pair, which merges
// the rater backing and rebuilds the row index.
func BenchmarkColumnsWith(b *testing.B) {
	const n, per = 2500, 48
	subjects, cells := shardFixture(n, 0, 20, per, rng.New(5))
	for k := range cells {
		cells[k].Stamp = Stamp{UnixNano: 1}
	}
	c := buildColumns(b, n, subjects, cells)
	rerate := make([]Cell, 6)
	for k := range rerate {
		cl := cells[per*20*k+k] // slot 20k's k-th rater
		rerate[k] = Cell{Rater: cl.Rater, Subject: cl.Subject, Value: 0.5, Stamp: Stamp{UnixNano: 2}}
	}
	newpair := slices.Clone(rerate)
	for _, ok := c.Get(newpair[5].Rater, newpair[5].Subject); ok; _, ok = c.Get(newpair[5].Rater, newpair[5].Subject) {
		newpair[5].Rater = (newpair[5].Rater + 1) % n
	}
	for _, bc := range []struct {
		name  string
		cells []Cell
	}{{"rerate", rerate}, {"newpair", newpair}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := c.With(bc.cells); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRatersOfInto times one column's row sweep into reused buffers.
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

// FuzzColumnsLoad hammers the columns section decoder: arbitrary bytes must be
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
	f.Add(c.AppendBinary(nil))
	f.Add([]byte{})
	f.Add([]byte("junk"))
	// Stamped seeds: one set whose every cell is stamped, one with an
	// unstamped cell beside stamped ones.
	for _, cells := range [][]Cell{
		{{Rater: 0, Subject: 2, Value: 0.5, Stamp: Stamp{UnixNano: 7, Origin: "a", Seq: 1}},
			{Rater: 4, Subject: 2, Value: 1, Stamp: Stamp{UnixNano: -3, Origin: "b", Seq: 2}},
			{Rater: 1, Subject: 5, Value: 0.25, Stamp: Stamp{UnixNano: 7, Seq: 4}}},
		{{Rater: 3, Subject: 5, Value: 0.75, Stamp: Stamp{UnixNano: 1, Origin: "a", Seq: 9}}},
	} {
		stamped, _, err := c.With(cells)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(stamped.AppendBinary(nil))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, rest, err := DecodeColumns(data)
		if err != nil {
			return
		}
		// Whatever loads re-saves to the bytes it was read from.
		if first := got.AppendBinary(nil); !bytes.Equal(first, data[:len(data)-len(rest)]) {
			t.Fatal("decoded columns do not re-save byte for byte")
		}
		for k, j := range got.Subjects() {
			if j < 0 || j >= got.N() {
				t.Fatalf("accepted columns with out-of-range subject %d", j)
			}
			if k > 0 && j <= got.Subjects()[k-1] {
				t.Fatalf("accepted columns with subjects not strictly ascending: %v", got.Subjects())
			}
			_, ids, vals, stamps := got.ColumnAt(k)
			if len(stamps) != len(ids) {
				t.Fatalf("accepted column %d with %d stamps for %d raters", j, len(stamps), len(ids))
			}
			prev := -1
			for k, i := range ids {
				if i <= prev || i >= got.N() {
					t.Fatalf("accepted column %d with bad rater order", j)
				}
				if vals[k] < 0 || vals[k] > 1 {
					t.Fatalf("accepted column %d with value %v", j, vals[k])
				}
				if st, ok := got.StampOf(i, j); !ok || st != stamps[k] {
					t.Fatalf("StampOf(%d,%d) = %+v,%v, its column holds %+v", i, j, st, ok, stamps[k])
				}
				prev = i
			}
		}
		// The row index holds exactly the column cells, ascending, each
		// with its column's value.
		cells := 0
		for i := 0; i < got.N(); i++ {
			row, vals := got.RowInto(i, nil, nil)
			cells += len(row)
			if got.RowLen(i) != len(row) || !slices.IsSorted(row) {
				t.Fatalf("row %d = %v, RowLen %d", i, row, got.RowLen(i))
			}
			for x, j := range row {
				if v, ok := got.Get(i, j); !ok || v != vals[x] {
					t.Fatalf("row %d lists subject %d at %v but Get(%d,%d) = %v,%v", i, j, vals[x], i, j, v, ok)
				}
			}
		}
		if cells != got.NumEntries() {
			t.Fatalf("rows hold %d cells, NumEntries %d", cells, got.NumEntries())
		}
	})
}

// FuzzColumnsWith is TestColumnsWithMatchesColumnsOf's differential over
// fuzzed cell lists: every four bytes are one (rater, subject, value, stamp)
// write, and a rater byte with its top bit set first flushes the cells
// gathered so far as one With call. The stamp byte spans timestamps -8..7,
// four origins and sequence numbers 0..3, so ties on every coordinate are
// common; 0x80 is a write without a stamp.
func FuzzColumnsWith(f *testing.F) {
	const n = 12
	subjects := []int{1, 4, 7, 10}
	f.Add([]byte{})
	f.Add([]byte{3, 1, 128, 3, 1, 255, 0x85, 2, 0, 5, 2, 7})
	f.Add([]byte{11, 3, 255, 0, 3, 0, 0x80, 3, 9, 0x8b, 0, 1})
	f.Add([]byte{2, 0, 9, 0x85, 2, 0, 40, 0x85, 0x82, 0, 70, 0x84, 2, 0, 99, 0x80})
	// The second call re-rates both of the first call's cells with newer
	// stamps, so it shares the first result's rater lists and row index.
	f.Add([]byte{3, 1, 10, 0x84, 5, 2, 20, 0x84, 0x83, 1, 200, 0x95, 5, 2, 90, 0x94})

	f.Fuzz(func(t *testing.T, data []byte) {
		mr := newMirror(NewMatrix(n))
		cur, err := ColumnsOf(mr.m, subjects)
		if err != nil {
			t.Fatal(err)
		}
		var cells []Cell
		for ; len(data) >= 4; data = data[4:] {
			if data[0]&0x80 != 0 {
				cur = mr.with(t, cur, cells)
				cells = cells[:0]
			}
			cells = append(cells, Cell{
				Rater:   int(data[0]&0x7f) % n,
				Subject: subjects[int(data[1])%len(subjects)],
				Value:   float64(data[2]) / 255,
				Stamp:   Stamp{UnixNano: int64(data[3]>>4) - 8, Origin: []string{"", "a", "b", "c"}[data[3]>>2&3], Seq: uint64(data[3] & 3)},
			})
		}
		mr.with(t, cur, cells)
	})
}

// TestColumnsWithStampOrder: random stamped writes — ties on every
// coordinate, timestamps at or below zero — applied in random order and split
// over one to three calls settle every cell to the write a one-at-a-time
// last-writer-wins reference keeps, and report exactly the subjects some write
// won. Every write, whatever its timestamp, beats a cell without a stamp.
func TestColumnsWithStampOrder(t *testing.T) {
	const n = 12
	subjects := []int{1, 4, 7, 10}
	origins := []string{"", "a", "b"}
	src := rng.New(29)
	for trial := 0; trial < 300; trial++ {
		mr := newMirror(randomMatrix(t, n, 0.2, uint64(trial))) // unstamped cells to beat
		cur, err := ColumnsOf(mr.m, subjects)
		if err != nil {
			t.Fatal(err)
		}
		writes := make([]Cell, 1+src.Intn(30))
		for k := range writes {
			writes[k] = Cell{Rater: src.Intn(n), Subject: subjects[src.Intn(len(subjects))], Value: src.Float64(),
				Stamp: Stamp{UnixNano: int64(src.Intn(4)) - 2, Origin: origins[src.Intn(len(origins))], Seq: uint64(1 + src.Intn(2))}}
			if src.Bool(0.05) {
				writes[k].Stamp.UnixNano = math.MinInt64
			}
		}
		calls := []int{0, len(writes)}
		for c := src.Intn(3); c > 0; c-- {
			calls = append(calls, src.Intn(len(writes)+1))
		}
		slices.Sort(calls)
		for c := 1; c < len(calls); c++ {
			cur = mr.with(t, cur, writes[calls[c-1]:calls[c]])
		}
	}

	// The unstamped cell against the oldest stamps there are.
	m := NewMatrix(n)
	if err := m.Set(3, 4, 0.5); err != nil {
		t.Fatal(err)
	}
	base, err := ColumnsOf(m, subjects)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []Stamp{{UnixNano: math.MinInt64}, {UnixNano: -1, Origin: "a"}, {Seq: 1}, {Origin: "a"}} {
		next, won, err := base.With([]Cell{{Rater: 3, Subject: 4, Value: 0.25, Stamp: st}})
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := next.Get(3, 4); v != 0.25 || !slices.Equal(won, []int{4}) || !hasStamp(next) {
			t.Fatalf("write stamped %+v against an unstamped cell: value %v, won %v", st, v, won)
		}
		// A write without a stamp loses to it in turn.
		if again, won, _ := next.With([]Cell{{Rater: 3, Subject: 4, Value: 1}}); again != next || won != nil {
			t.Fatalf("unstamped write beat a cell stamped %+v", st)
		}
	}
}
