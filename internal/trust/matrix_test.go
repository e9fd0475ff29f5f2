package trust

import (
	"slices"
	"testing"

	"diffgossip/internal/rng"
)

// FuzzMatrixOps runs a byte program against a Matrix and a map model of it.
// Every four bytes are one operation (op, i, j, value) on an 8-node matrix:
// Set, Get, RatersOfInto, InteractedWith, ColumnSum (with ColumnRaterMean),
// Clone or RowInto.
// A Clone continues the program on the copy after writing to the original,
// so a copy that shares a row with its source fails a later read. At the end
// every cell and NumEntries must match the model.
func FuzzMatrixOps(f *testing.F) {
	const n = 8
	f.Add([]byte{})
	var full, desc []byte
	for j := 0; j < n; j++ {
		full = append(full, 0, 3, byte(j), byte(40*j))
		desc = append(desc, 0, 5, byte(n-1-j), byte(200-j))
	}
	full = append(full, 6, 3, 0, 0, 3, 3, 0, 0, 2, 0, 6, 0, 4, 0, 2, 0, 5, 3, 4, 9, 6, 3, 0, 0)
	desc = append(desc, 3, 5, 0, 0, 1, 5, 3, 0, 3, 5, 0, 0, 5, 5, 3, 1, 4, 0, 3, 0, 6, 5, 0, 0)
	f.Add(full)
	f.Add(desc)

	f.Fuzz(func(t *testing.T, prog []byte) {
		m := NewMatrix(n)
		model := map[[2]int]float64{}
		column := func(j int) (ids []int, vals []float64) {
			for i := 0; i < n; i++ {
				if v, ok := model[[2]int{i, j}]; ok {
					ids = append(ids, i)
					vals = append(vals, v)
				}
			}
			return ids, vals
		}
		for ; len(prog) >= 4; prog = prog[4:] {
			op, i, j, v := prog[0]%7, int(prog[1])%n, int(prog[2])%n, float64(prog[3])/255
			switch op {
			case 0:
				if err := m.Set(i, j, v); err != nil {
					t.Fatal(err)
				}
				model[[2]int{i, j}] = v
			case 1:
				want, wantOK := model[[2]int{i, j}]
				if got, ok := m.Get(i, j); got != want || ok != wantOK {
					t.Fatalf("Get(%d,%d) = %v,%v, want %v,%v", i, j, got, ok, want, wantOK)
				}
			case 2:
				ids, vals := m.RatersOfInto(j, []int{-1}, []float64{-1})
				wantIDs, wantVals := column(j)
				if !slices.Equal(ids, append([]int{-1}, wantIDs...)) || !slices.Equal(vals, append([]float64{-1}, wantVals...)) {
					t.Fatalf("RatersOfInto(%d) = %v %v, want %v %v after the prefix", j, ids, vals, wantIDs, wantVals)
				}
			case 3:
				var want []int
				for c := range model {
					if c[0] == i {
						want = append(want, c[1])
					}
				}
				slices.Sort(want)
				if got := m.InteractedWith(i); !slices.Equal(got, want) {
					t.Fatalf("InteractedWith(%d) = %v, want %v", i, got, want)
				}
			case 4:
				_, vals := column(j)
				sum := 0.0
				for _, x := range vals {
					sum += x
				}
				if got, cnt := m.ColumnSum(j); got != sum || cnt != len(vals) {
					t.Fatalf("ColumnSum(%d) = %v,%d, want %v,%d", j, got, cnt, sum, len(vals))
				}
				if mean := m.ColumnRaterMean(j); len(vals) > 0 && mean != sum/float64(len(vals)) || len(vals) == 0 && mean != 0 {
					t.Fatalf("ColumnRaterMean(%d) = %v over %d raters summing to %v", j, mean, len(vals), sum)
				}
			case 5:
				c := m.Clone()
				if err := m.Set(i, j, 1-v); err != nil {
					t.Fatal(err)
				}
				m = c
			case 6:
				var wantIDs []int
				var wantVals []float64
				for k := 0; k < n; k++ {
					if x, ok := model[[2]int{i, k}]; ok {
						wantIDs, wantVals = append(wantIDs, k), append(wantVals, x)
					}
				}
				ids, vals := m.RowInto(i, []int{-1}, []float64{-1})
				if !slices.Equal(ids, append([]int{-1}, wantIDs...)) || !slices.Equal(vals, append([]float64{-1}, wantVals...)) {
					t.Fatalf("RowInto(%d) = %v %v, want %v %v after the prefix", i, ids, vals, wantIDs, wantVals)
				}
			}
		}
		if got := m.NumEntries(); got != len(model) {
			t.Fatalf("NumEntries = %d, want %d", got, len(model))
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want, wantOK := model[[2]int{i, j}]
				if got, ok := m.Get(i, j); got != want || ok != wantOK {
					t.Fatalf("end: Get(%d,%d) = %v,%v, want %v,%v", i, j, got, ok, want, wantOK)
				}
			}
		}
	})
}

// BenchmarkMatrixPaperFixture fills the lib-aggregate benchmark's
// paper-scale matrix, N = 50,000 with 24 subjects × 5,000 raters, in that
// fixture's order: subject by subject, raters in sampled order.
func BenchmarkMatrixPaperFixture(b *testing.B) {
	const n, subjects, raters = 50000, 24, 5000
	src := rng.New(3)
	ids := make([][]int, subjects)
	vals := make([][]float64, subjects)
	for j := range ids {
		ids[j] = src.Sample(n, raters)
		for range ids[j] {
			vals[j] = append(vals[j], src.Float64())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		m := NewMatrix(n)
		for j := range ids {
			for x, r := range ids[j] {
				if err := m.Set(r, j, vals[j][x]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
