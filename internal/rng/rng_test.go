package rng

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds matched %d/100 draws", same)
	}
}

func TestZeroSeedNotStuck(t *testing.T) {
	s := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[s.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("seed 0 produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() && c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced identical streams")
	}
}

func TestSplitNCount(t *testing.T) {
	kids := New(9).SplitN(17)
	if len(kids) != 17 {
		t.Fatalf("SplitN(17) returned %d sources", len(kids))
	}
	for i, k := range kids {
		if k == nil {
			t.Fatalf("child %d is nil", i)
		}
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	for n := 1; n <= 64; n++ {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	s := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("value %d drawn %d times, want ~%.0f", v, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	sum := 0.0
	for i := 0; i < 100000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / 100000; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestInt63NonNegative(t *testing.T) {
	s := New(6)
	for i := 0; i < 10000; i++ {
		if s.Int63() < 0 {
			t.Fatal("Int63 returned negative")
		}
	}
}

func TestBoolEdges(t *testing.T) {
	s := New(8)
	for i := 0; i < 100; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !s.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(13)
	hits := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / draws; math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate %v", p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		n := 1 + int(seed%50)
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleDistinct(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(seed)
		n := 2 + int(seed%100)
		k := 1 + int((seed/7)%uint64(n))
		out := s.Sample(n, k)
		if len(out) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range out {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleFullAndEmpty(t *testing.T) {
	s := New(21)
	if got := s.Sample(5, 0); got != nil {
		t.Fatalf("Sample(5,0) = %v, want nil", got)
	}
	full := s.Sample(4, 9)
	if len(full) != 4 {
		t.Fatalf("Sample(4,9) returned %d values", len(full))
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	s := New(17)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Fatalf("shuffle changed multiset: sum %d -> %d", sum, got)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(23)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v", variance)
	}
}

func TestBetaRangeAndMean(t *testing.T) {
	s := New(29)
	const n = 50000
	a, b := 2.0, 5.0
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.Beta(a, b)
		if v < 0 || v > 1 {
			t.Fatalf("Beta out of range: %v", v)
		}
		sum += v
	}
	want := a / (a + b)
	if mean := sum / n; math.Abs(mean-want) > 0.01 {
		t.Fatalf("Beta(2,5) mean = %v, want ~%v", mean, want)
	}
}

func TestBetaSmallShapes(t *testing.T) {
	s := New(31)
	for i := 0; i < 1000; i++ {
		v := s.Beta(0.5, 0.5)
		if v < 0 || v > 1 || math.IsNaN(v) {
			t.Fatalf("Beta(0.5,0.5) produced %v", v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Intn(1000)
	}
}

// TestIntnRejectionBranch reaches Lemire's rejection branch, which only about
// n/2⁶⁴ of draws take, by setting s1 = 0: xoshiro256**'s next output is then
// 0, whose low product word 0 is below 2⁶⁴ mod 10 = 6 and must be discarded.
// Intn and the split form (the fast path spelled out, then Reject) must both
// return the bound of the next output, which an independent Lemire loop
// computes, and must consume exactly those two draws.
func TestIntnRejectionBranch(t *testing.T) {
	n := uint64(10)
	start := *New(3)
	start.s1 = 0
	ref := start
	if v := ref.Uint64(); v != 0 {
		t.Fatalf("output with s1 = 0 is %#x, want 0", v)
	}
	want, lo := bits.Mul64(ref.Uint64(), n)
	if lo < -n%n {
		t.Fatal("the second draw rejects too; pick another seed")
	}
	a := start
	if got := a.Intn(int(n)); uint64(got) != want || a != ref {
		t.Fatalf("Intn = %d (state %+v), want %d after two draws (state %+v)", got, a, want, ref)
	}
	b := start
	hi, lo := bits.Mul64(b.Uint64(), n)
	if lo >= n {
		t.Fatalf("fast path accepted low word %d", lo)
	}
	if got := b.Reject(n, hi, lo); got != want || b != ref {
		t.Fatalf("split form = %d (state %+v), want %d after two draws (state %+v)", got, b, want, ref)
	}
}

func TestSampleIntoMatchesSample(t *testing.T) {
	// SampleInto must be a drop-in for Sample: identical output AND
	// identical stream consumption, so engines can adopt the caller-buffer
	// variant without perturbing seeded runs.
	for seed := uint64(0); seed < 30; seed++ {
		for _, nk := range [][2]int{{10, 3}, {7, 7}, {5, 9}, {100, 1}, {64, 20}, {3, 0}} {
			n, k := nk[0], nk[1]
			a, b := New(seed), New(seed)
			want := a.Sample(n, k)
			buf := make([]int, 0, 128)
			got := b.SampleInto(buf, n, k)
			if len(got) != len(want) {
				t.Fatalf("seed %d n=%d k=%d: len %d vs %d", seed, n, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d n=%d k=%d: [%d] = %d vs %d", seed, n, k, i, got[i], want[i])
				}
			}
			// Post-state check: both streams must have advanced equally.
			if a.Uint64() != b.Uint64() {
				t.Fatalf("seed %d n=%d k=%d: streams diverged after call", seed, n, k)
			}
		}
	}
}

// referenceSampleMap is Floyd's algorithm with the duplicate check in a map,
// the way SampleInto detected duplicates for k > sampleScanMax before it
// kept a bitset.
func referenceSampleMap(s *Source, n, k int) []int {
	chosen := make(map[int]struct{}, k)
	var out []int
	for j := n - k; j < n; j++ {
		t := s.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}

// TestSampleBitsetMatchesMap pins the large-k path to the map-based draw it
// replaced: the same indices in the same order, and the same next draw.
func TestSampleBitsetMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		for _, nk := range [][2]int{{1000, 65}, {1000, 999}, {50000, 5000}} {
			n, k := nk[0], nk[1]
			a, b := New(seed), New(seed)
			want := referenceSampleMap(a, n, k)
			got := b.SampleInto(nil, n, k)
			if len(got) != len(want) {
				t.Fatalf("seed %d n=%d k=%d: len %d vs %d", seed, n, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d n=%d k=%d: [%d] = %d vs %d", seed, n, k, i, got[i], want[i])
				}
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("seed %d n=%d k=%d: streams diverged after call", seed, n, k)
			}
		}
	}
}

func TestSampleIntoAppends(t *testing.T) {
	s := New(5)
	dst := []int{-1, -2}
	out := s.SampleInto(dst, 10, 3)
	if len(out) != 5 || out[0] != -1 || out[1] != -2 {
		t.Fatalf("SampleInto clobbered prefix: %v", out)
	}
	seen := map[int]bool{}
	for _, v := range out[2:] {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad sample suffix %v", out[2:])
		}
		seen[v] = true
	}
}

func TestPermIntoMatchesPerm(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		for _, n := range []int{0, 1, 2, 13, 50} {
			a, b := New(seed), New(seed)
			want := a.Perm(n)
			got := b.PermInto(make([]int, 0, n), n)
			if len(got) != len(want) {
				t.Fatalf("seed %d n=%d: len %d vs %d", seed, n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d n=%d: [%d] = %d vs %d", seed, n, i, got[i], want[i])
				}
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("seed %d n=%d: streams diverged", seed, n)
			}
		}
	}
}

func TestSampleIntoZeroAlloc(t *testing.T) {
	s := New(11)
	buf := make([]int, 0, 64)
	allocs := testing.AllocsPerRun(200, func() {
		buf = s.SampleInto(buf[:0], 50, 8)
	})
	if allocs != 0 {
		t.Fatalf("SampleInto allocated %v times per run", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		buf = s.PermInto(buf[:0], 40)
	})
	if allocs != 0 {
		t.Fatalf("PermInto allocated %v times per run", allocs)
	}
}

// TestReseedReplaysNew: a used source Reseed(s) replays New(s)'s stream
// exactly, and does so without allocating.
func TestReseedReplaysNew(t *testing.T) {
	s := New(99)
	for _, seed := range []uint64{0, 1, 42, math.MaxUint64} {
		for i := 0; i < 17; i++ {
			s.Uint64() // advance: Reseed must not depend on prior state
		}
		s.Reseed(seed)
		fresh := New(seed)
		for i := 0; i < 1000; i++ {
			if got, want := s.Uint64(), fresh.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: reseeded %#x != fresh %#x", seed, i, got, want)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Reseed(7) }); allocs != 0 {
		t.Fatalf("Reseed allocated %v times", allocs)
	}
}
