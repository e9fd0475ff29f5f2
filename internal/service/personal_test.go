package service

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"diffgossip/internal/core"
	"diffgossip/internal/graph"
	"diffgossip/internal/rng"
	"diffgossip/internal/trust"
)

// TestPersonalPinnedDigest is the absolute guard on the personalised read's
// bits: over a seven-shard service, after an epoch that adds new pairs and
// one that only re-rates (so every dirty shard shares the previous
// publication's rater lists and row index), every PersonalReputation(o, j),
// GCLRRef over an independent mirror Matrix and GCLRRef over one shard's
// frozen Columns must hash to constants captured before the three eq. (6)
// evaluations became one kernel, and every row the view merges across its
// shards must equal the mirror's. The agreement tests compare two
// evaluations of the same code, so only a pinned constant catches a change
// in the summation order.
func TestPersonalPinnedDigest(t *testing.T) {
	const n, shards = 70, 7
	s := newTestService(t, n, Config{Shards: shards})
	src := rng.New(4242)
	mirror := trust.NewMatrix(n)
	var rated [][2]int
	seq := 0
	submit := func(rater, subject int) {
		t.Helper()
		value := src.Float64()
		seq++
		if _, err := s.SubmitCtx(context.Background(), rater, subject, value, int64(seq)); err != nil {
			t.Fatal(err)
		}
		if _, ok := mirror.Get(rater, subject); !ok {
			rated = append(rated, [2]int{rater, subject})
		}
		if err := mirror.Set(rater, subject, value); err != nil {
			t.Fatal(err)
		}
	}
	epochs := []struct {
		writes int
		write  func()
		digest uint64
	}{
		{900, func() { submit(src.Intn(n), src.Intn(n)) }, 0x36c818521652e0c4},
		{300, func() { c := rated[src.Intn(len(rated))]; submit(c[0], c[1]) }, 0x42a4188ada25f5c1},
	}
	for e, epoch := range epochs {
		before := len(rated)
		for k := 0; k < epoch.writes; k++ {
			epoch.write()
		}
		if e == 1 && len(rated) != before {
			t.Fatalf("the re-rating epoch added %d pairs", len(rated)-before)
		}
		v := mustEpoch(t, s)
		h := fnv.New64a()
		word := func(x float64) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
		cols := v.Shard(3).Cols
		for o := 0; o < n; o++ {
			// The row merged across shards, after a caller's prefix, is the
			// mirror's row.
			ids, vals := v.RowInto(o, []int{-1}, []float64{-1})
			wantIDs, wantVals := mirror.RowInto(o, []int{-1}, []float64{-1})
			if !slices.Equal(ids, wantIDs) || !slices.Equal(vals, wantVals) {
				t.Fatalf("epoch %d: row %d = %v %v, mirror %v %v", e+1, o, ids, vals, wantIDs, wantVals)
			}
			for j := 0; j < n; j++ {
				got, _, err := s.PersonalReputation(o, j)
				if err != nil {
					t.Fatal(err)
				}
				word(got)
				word(core.GCLRRef(mirror, o, j, s.cfg.Params))
				word(core.GCLRRef(cols, o, j, s.cfg.Params))
			}
		}
		if got := h.Sum64(); got != epoch.digest {
			t.Errorf("epoch %d: digest %#x, pinned %#x", e+1, got, epoch.digest)
		}
	}
}

// personalFixture folds one epoch of raters ratings per subject, the raters
// drawn at random, into an n-node service of the given shard count, and
// returns the view with a (rater, subject) pair per subject.
func personalFixture(tb testing.TB, n, raters, shards int) (*Service, *View, [][2]int) {
	tb.Helper()
	g, err := graph.PreferentialAttachment(graph.PAConfig{N: n, M: 2, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := New(Config{Graph: g, Params: core.Params{Epsilon: 1e-4, Seed: 11, Workers: -1}, Shards: shards, FoldWorkers: -1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	src := rng.New(31)
	pairs := make([][2]int, n)
	for j := 0; j < n; j++ {
		for x, i := range src.Sample(n, raters) {
			if _, err := s.Submit(i, j, src.Float64()); err != nil {
				tb.Fatal(err)
			}
			if x == 0 {
				pairs[j] = [2]int{i, j}
			}
		}
	}
	v, ran, err := s.RunEpoch()
	if err != nil || !ran {
		tb.Fatalf("epoch = (ran=%v, err=%v)", ran, err)
	}
	return s, v, pairs
}

// BenchmarkPersonal times one personalised read at the http-mixed
// benchmark's shape: N = 2,000, 48 raters per subject, 20 shards.
func BenchmarkPersonal(b *testing.B) {
	s, _, pairs := personalFixture(b, 2000, 48, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		p := pairs[k%len(pairs)]
		if _, _, err := s.PersonalReputation(p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
}
