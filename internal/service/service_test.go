package service

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"diffgossip/internal/core"
	"diffgossip/internal/gossip"
	"diffgossip/internal/graph"
	"diffgossip/internal/rng"
	"diffgossip/internal/trust"
)

// epsTol is the acceptance tolerance for gossip estimates vs the exact
// references: the engines converge each node to within a few ξ of the fixed
// point, and the core tests use the same order of magnitude.
const epsTol = 1e-2

func testGraph(t *testing.T, n int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := graph.PreferentialAttachment(graph.PAConfig{N: n, M: 2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newTestService(t *testing.T, n int, cfg Config) *Service {
	t.Helper()
	if cfg.Graph == nil {
		cfg.Graph = testGraph(t, n, 7)
	}
	if cfg.Params.Epsilon == 0 {
		cfg.Params = core.Params{Epsilon: 1e-6, Seed: 11}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestNewValidates pins that New refuses a bad Config up front, including
// every Params field a fold would refuse: a service booted with those would
// fail every epoch and never drain its pending batch.
func TestNewValidates(t *testing.T) {
	g := testGraph(t, 10, 1)
	for name, cfg := range map[string]Config{
		"nil graph":         {},
		"negative interval": {Graph: g, EpochInterval: -time.Second},
		"shards above N":    {Graph: g, Shards: 11},
		"negative shards":   {Graph: g, Shards: -1},
		"root above N":      {Graph: g, Params: core.Params{Root: 10}},
		"negative root":     {Graph: g, Params: core.Params{Root: -1}},
		"weight base below": {Graph: g, Params: core.Params{Weights: trust.WeightParams{A: 0.5, B: 1}}},
		"negative scale":    {Graph: g, Params: core.Params{Weights: trust.WeightParams{A: 2, B: -1}}},
		"negative epsilon":  {Graph: g, Params: core.Params{Epsilon: -1}},
		"loss of one":       {Graph: g, Params: core.Params{LossProb: 1}},
		"negative loss":     {Graph: g, Params: core.Params{LossProb: -0.1}},
		"fixed push, no k":  {Graph: g, Params: core.Params{Protocol: gossip.FixedPush}},
		"negative max step": {Graph: g, Params: core.Params{MaxSteps: -1}},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted %+v", name, cfg)
		}
	}
	s, err := New(Config{Graph: g, Params: core.Params{Root: 9, Protocol: gossip.FixedPush, FixedK: 2}})
	if err != nil {
		t.Fatalf("valid params refused: %v", err)
	}
	s.Close()
}

func TestBootViewAndEmptyEpoch(t *testing.T) {
	s := newTestService(t, 20, Config{})
	v := s.View()
	if v.Epoch() != 0 || v.Seq() != 0 || v.N() != 20 || v.Shards() != 1 {
		t.Fatalf("boot view: epoch %d seq %d n %d shards %d", v.Epoch(), v.Seq(), v.N(), v.Shards())
	}
	if r, _, err := s.Reputation(3); err != nil || r != 0 {
		t.Fatalf("boot reputation = (%v, %v)", r, err)
	}
	// No pending feedback: RunEpoch is a no-op leaving the shard states
	// untouched.
	got, ran, err := s.RunEpoch()
	if err != nil || ran {
		t.Fatalf("empty epoch = (ran=%v, err=%v), want (false, nil)", ran, err)
	}
	if got.Shard(0) != v.Shard(0) {
		t.Fatal("empty epoch republished a shard snapshot")
	}
}

// TestEpochMatchesGlobalReference folds three epochs into a four-shard
// service: 400 random cells; then 200 writes that only re-rate cells it holds,
// so each shard's new columns share the previous publication's rater lists
// and row index; then 200 re-ratings with every fourth write a new pair.
// After each epoch every global read matches the reference over the folded
// view and every personal read (o, j) matches GCLRRef over an independent
// mirror bit for bit.
func TestEpochMatchesGlobalReference(t *testing.T) {
	const n = 60
	s := newTestService(t, n, Config{Shards: 4})
	src := rng.New(99)
	// The mirror takes the same cells in submit order; ascending stamps make
	// that the LWW order too, so the last write to a cell wins in both.
	mirror := trust.NewMatrix(n)
	var rated [][2]int // every cell written so far, once
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
	rerate := func() {
		c := rated[src.Intn(len(rated))]
		submit(c[0], c[1])
	}
	newPair := func() {
		for {
			rater, subject := src.Intn(n), src.Intn(n)
			if _, ok := mirror.Get(rater, subject); !ok {
				submit(rater, subject)
				return
			}
		}
	}
	batches := []struct {
		writes int
		write  func(k int)
	}{
		{400, func(int) { submit(src.Intn(n), src.Intn(n)) }},
		{200, func(int) { rerate() }},
		{200, func(k int) {
			if k%4 == 0 {
				newPair()
			} else {
				rerate()
			}
		}},
	}
	for e, batch := range batches {
		before := len(rated)
		for k := 0; k < batch.writes; k++ {
			batch.write(k)
		}
		if e == 1 && len(rated) != before || e == 2 && len(rated) != before+batch.writes/4 {
			t.Fatalf("epoch %d added %d pairs", e+1, len(rated)-before)
		}
		v, ran, err := s.RunEpoch()
		if err != nil || !ran {
			t.Fatalf("epoch = (ran=%v, err=%v)", ran, err)
		}
		if v.Epoch() != uint64(e+1) || v.Seq() != uint64(seq) || !v.Converged() {
			t.Fatalf("view: epoch %d seq %d converged %v", v.Epoch(), v.Seq(), v.Converged())
		}
		for j := 0; j < n; j++ {
			got, err := v.Reputation(j)
			if err != nil {
				t.Fatal(err)
			}
			// The view doubles as a trust.Reader over its frozen shard
			// columns, so the reference evaluates against exactly the folded
			// state.
			want := core.GlobalRef(v, j)
			if math.Abs(got-want) > epsTol {
				t.Errorf("epoch %d subject %d: global %v, reference %v", e+1, j, got, want)
			}
		}
		// Every personal view — an observer's row stitched across the four
		// shards — matches the reference over the independent mirror.
		for o := 0; o < n; o++ {
			for j := 0; j < n; j++ {
				got, pv, err := s.PersonalReputation(o, j)
				if err != nil {
					t.Fatal(err)
				}
				if pv.SubjectEpoch(j) != v.SubjectEpoch(j) {
					t.Fatal("personal read served a different shard epoch")
				}
				if want := core.GCLRRef(mirror, o, j, s.cfg.Params); got != want {
					t.Fatalf("epoch %d personal (%d,%d): got %v, mirror reference %v", e+1, o, j, got, want)
				}
			}
		}
	}
}

func TestFeedbackVisibleOnlyAfterEpoch(t *testing.T) {
	s := newTestService(t, 30, Config{})
	if _, err := s.Submit(3, 9, 0.8); err != nil {
		t.Fatal(err)
	}
	if r, _, _ := s.Reputation(9); r != 0 {
		t.Fatalf("unfolded feedback visible: %v", r)
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
	v, ran, err := s.RunEpoch()
	if err != nil || !ran {
		t.Fatal(err)
	}
	if r, _, _ := s.Reputation(9); math.Abs(r-0.8) > epsTol {
		t.Fatalf("reputation after epoch = %v, want ≈0.8", r)
	}
	if v.Raters(9) != 1 {
		t.Fatalf("Raters(9) = %d, want 1", v.Raters(9))
	}
	if s.Pending() != 0 {
		t.Fatal("pending not drained by epoch")
	}
}

// TestLatestFeedbackWins: multiple entries for the same (rater, subject)
// within one epoch fold in ledger order, so the last one is the value used.
func TestLatestFeedbackWins(t *testing.T) {
	s := newTestService(t, 30, Config{})
	for _, v := range []float64{0.1, 0.9, 0.4} {
		if _, err := s.Submit(2, 6, v); err != nil {
			t.Fatal(err)
		}
	}
	view, _, err := s.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := view.Get(2, 6); got != 0.4 {
		t.Fatalf("folded value %v, want 0.4 (latest)", got)
	}
}

func TestEpochDeterministicGivenSeed(t *testing.T) {
	run := func(shards, foldWorkers, workers int) []float64 {
		s := newTestService(t, 40, Config{
			Shards:      shards,
			FoldWorkers: foldWorkers,
			Params:      core.Params{Epsilon: 1e-6, Seed: 11, Workers: workers},
		})
		src := rng.New(5)
		for k := 0; k < 200; k++ {
			s.Submit(src.Intn(40), src.Intn(40), src.Float64())
		}
		v, _, err := s.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 40)
		for j := range out {
			out[j], _ = v.Reputation(j)
		}
		return out
	}
	a, b := run(1, 1, 0), run(1, 1, 0)
	for j := range a {
		if a[j] != b[j] {
			t.Fatalf("subject %d: %v vs %v — epochs not reproducible", j, a[j], b[j])
		}
	}
}

func TestSchedulerRunsEpochs(t *testing.T) {
	s := newTestService(t, 30, Config{
		Graph:         testGraph(t, 30, 7),
		Params:        core.Params{Epsilon: 1e-5, Seed: 3},
		EpochInterval: 5 * time.Millisecond,
		Shards:        3,
	})
	if _, err := s.Submit(1, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.View().Epoch() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("scheduler never published an epoch")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if r, _, _ := s.Reputation(2); math.Abs(r-0.5) > epsTol {
		t.Fatalf("reputation = %v, want ≈0.5", r)
	}
}

func TestPersistenceAcrossRestart(t *testing.T) {
	for _, shards := range []int{1, 4} {
		dir := t.TempDir()
		g := testGraph(t, 30, 7)
		cfg := Config{Graph: g, Params: core.Params{Epsilon: 1e-6, Seed: 11}, Dir: dir, Shards: shards}

		s1, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s1.Submit(1, 4, 0.9)
		s1.Submit(2, 4, 0.5)
		v1, _, err := s1.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		rep1, _ := v1.Reputation(4)
		s1.Submit(3, 4, 0.1) // pending, never folded before shutdown
		if err := s1.Close(); err != nil {
			t.Fatal(err)
		}

		s2, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := s2.View()
		if got.Epoch() != v1.Epoch() || got.Seq() != v1.Seq() {
			t.Fatalf("restart published epoch %d/seq %d, want %d/%d", got.Epoch(), got.Seq(), v1.Epoch(), v1.Seq())
		}
		if rep2, _ := got.Reputation(4); math.Abs(rep2-rep1) > 1e-12 {
			t.Fatal("restart lost the published reputation")
		}
		if s2.Pending() != 1 {
			t.Fatalf("restart replayed %d pending entries, want 1 (the unfolded tail)", s2.Pending())
		}
		v2, ran, err := s2.RunEpoch()
		if err != nil || !ran {
			t.Fatal(err)
		}
		if v2.Epoch() != v1.Epoch()+1 || v2.Seq() != 3 {
			t.Fatalf("post-restart epoch %d/seq %d", v2.Epoch(), v2.Seq())
		}
		// The tail entry and the pre-restart folds are all reflected.
		want := (0.9 + 0.5 + 0.1) / 3
		if rep, _ := v2.Reputation(4); math.Abs(rep-want) > epsTol {
			t.Fatalf("reputation after replayed epoch = %v, want ≈%v", rep, want)
		}
		// Sequence numbers keep increasing across the restart.
		if seq, err := s2.Submit(5, 6, 0.2); err != nil || seq != 4 {
			t.Fatalf("post-restart Submit = (%d, %v), want (4, nil)", seq, err)
		}
		s2.Close()
	}
}

// TestBootRejectsTruncatedLedger: a segment claiming folded entries the
// ledger never assigned (operator deleted/swapped ledger.jsonl) must fail
// loudly at boot instead of serving state that can never reconcile.
func TestBootRejectsTruncatedLedger(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t, 20, 7)
	cfg := Config{Graph: g, Params: core.Params{Epsilon: 1e-5, Seed: 1}, Dir: dir, Shards: 2}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1.Submit(1, 2, 0.5)
	if _, _, err := s1.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "ledger.jsonl")); err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg); err == nil {
		t.Fatal("truncated ledger accepted against a newer segment")
	}
}
