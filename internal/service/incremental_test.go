package service

import (
	"context"
	"testing"

	"diffgossip/internal/core"
	"diffgossip/internal/rng"
	"diffgossip/internal/store"
)

// mustEpoch runs one epoch that must have had work and returns its view.
func mustEpoch(t *testing.T, s *Service) *View {
	t.Helper()
	v, ran, err := s.RunEpoch()
	if err != nil || !ran {
		t.Fatalf("epoch ran=%v err=%v", ran, err)
	}
	return v
}

// rateAll gives every subject its first `raters` pool raters (rater i of
// subject j is (j+1+i) mod n) at a fixed value.
func rateAll(t *testing.T, s *Service, n, raters int) {
	t.Helper()
	for j := 0; j < n; j++ {
		for i := 0; i < raters; i++ {
			if _, err := s.Submit((j+1+i)%n, j, 0.25+0.5*float64(i)/float64(raters)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestIncrementalReplicatedFoldMatchesFromBoot is the bit-identity twin of the
// subject-granular fold. Service A folds a base batch and then successive
// 5%-dirty batches, each epoch computing only the re-rated subjects and
// carrying every other slot over; replicating service B — same graph, seed
// and shards — receives the same entries and folds them all in one epoch
// from boot. Every service seeds each campaign from (Params.Seed, subject id)
// and runs it cold, so A's carried values must equal B's recomputed ones bit
// for bit, whether A replicates or runs standalone, for any FoldWorkers. The
// count: each incremental epoch costs at most a tenth of a full epoch's
// campaign steps.
func TestIncrementalReplicatedFoldMatchesFromBoot(t *testing.T) {
	const n, shards, raters, batches = 600, 12, 24, 4
	g := testGraph(t, n, 7)
	for _, tc := range []struct {
		mode string
		fw   int
	}{{"replicated", 1}, {"replicated", -1}, {"standalone", 1}, {"standalone", -1}} {
		fw := tc.fw
		twin := func(replicate bool) *Service {
			cfg := Config{
				Graph:       g,
				Params:      core.Params{Epsilon: 1e-4, Seed: 11, Workers: fw},
				Shards:      shards,
				FoldWorkers: fw,
			}
			if replicate {
				cfg.Origin = "node"
			}
			return newTestService(t, n, cfg)
		}
		a, b := twin(tc.mode == "replicated"), twin(true)
		src := rng.New(31)
		stamp := int64(0)
		rate := func(rater, subject int) {
			t.Helper()
			stamp++ // explicit stamps: both twins resolve every cell alike
			v := src.Float64()
			for _, s := range []*Service{a, b} {
				if _, err := s.SubmitCtx(context.Background(), rater, subject, v, stamp); err != nil {
					t.Fatal(err)
				}
			}
		}

		for j := 0; j < n; j++ {
			for i := 0; i < raters; i++ {
				rate((j+1+i)%n, j)
			}
		}
		fullSteps := mustEpoch(t, a).TotalSteps()
		if a.FoldedSubjects() != n {
			t.Fatalf("%s foldWorkers=%d: base epoch ran %d campaigns, want %d", tc.mode, fw, a.FoldedSubjects(), n)
		}
		for k := 0; k < batches; k++ {
			// n/20 distinct subjects (19 is a unit mod n): an existing rater
			// changes its value, and every third subject gains a rater too.
			for m := 0; m < n/20; m++ {
				j := (7*k + 19*m) % n
				rate((j+1+m%raters)%n, j)
				if m%3 == 0 {
					rate((j+1+raters+k)%n, j)
				}
			}
			before := a.FoldedSubjects()
			steps := mustEpoch(t, a).TotalSteps()
			if got := a.FoldedSubjects() - before; got != n/20 {
				t.Fatalf("%s foldWorkers=%d batch %d: ran %d campaigns, want the %d re-rated subjects", tc.mode, fw, k, got, n/20)
			}
			if steps == 0 || 10*steps > fullSteps {
				t.Fatalf("%s foldWorkers=%d batch %d: 5%%-dirty epoch spent %d campaign steps, want at most a tenth of a full epoch's %d",
					tc.mode, fw, k, steps, fullSteps)
			}
		}
		mustEpoch(t, b)
		if b.FoldedSubjects() != n {
			t.Fatalf("%s foldWorkers=%d: from-boot epoch ran %d campaigns, want %d", tc.mode, fw, b.FoldedSubjects(), n)
		}

		va, vb := a.View(), b.View()
		for sh := 0; sh < shards; sh++ {
			sa, sb := va.Shard(sh), vb.Shard(sh)
			if sa.Converged != sb.Converged {
				t.Fatalf("%s foldWorkers=%d shard %d: converged %v incrementally, %v from boot", tc.mode, fw, sh, sa.Converged, sb.Converged)
			}
			for k := range sa.Global {
				j := sh + k*shards
				if sa.Global[k] != sb.Global[k] || sa.RaterCount(j) != sb.RaterCount(j) {
					t.Fatalf("%s foldWorkers=%d subject %d: incremental %v (%d raters), from boot %v (%d raters)",
						tc.mode, fw, j, sa.Global[k], sa.RaterCount(j), sb.Global[k], sb.RaterCount(j))
				}
			}
		}
	}
}

// TestCarryRuleEdges counts the folds that must NOT carry anything over: the
// previous segment has to be one this process folded itself, with every
// campaign converged. Each edge re-rates one subject and expects the fold to
// compute every rated subject of the shard — and the fold after it, which
// does have such a predecessor, to compute exactly one.
func TestCarryRuleEdges(t *testing.T) {
	const n, shards, raters = 60, 6, 3
	const perShard = n / shards
	// rerate changes one subject's rating, folds, and returns its shard's
	// publication.
	rerate := func(t *testing.T, s *Service, subject int, value float64) *store.ShardSnapshot {
		t.Helper()
		if _, err := s.Submit((subject+1)%n, subject, value); err != nil {
			t.Fatal(err)
		}
		return mustEpoch(t, s).Shard(store.ShardOf(subject, s.Shards()))
	}
	wholeThenOne := func(t *testing.T, s *Service, subject, whole int) {
		t.Helper()
		if seg := rerate(t, s, subject, 0.9); seg.Computed != whole {
			t.Fatalf("first fold computed %d subjects, want the shard's %d", seg.Computed, whole)
		}
		if seg := rerate(t, s, subject, 0.1); seg.Computed != 1 {
			t.Fatalf("second fold computed %d subjects, want 1", seg.Computed)
		}
	}

	t.Run("reopen and reshard", func(t *testing.T) {
		cfg := Config{Graph: testGraph(t, n, 7), Params: core.Params{Epsilon: 1e-6, Seed: 11}, Dir: t.TempDir(), Shards: shards}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rateAll(t, s, n, raters)
		mustEpoch(t, s)
		s.Close()

		if s, err = New(cfg); err != nil {
			t.Fatal(err)
		}
		wholeThenOne(t, s, 8, perShard)
		s.Close()

		cfg.Shards = 4
		if s, err = New(cfg); err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		wholeThenOne(t, s, 8, n/4)
	})

	t.Run("bootstrap", func(t *testing.T) {
		mk := func(origin string) *Service {
			return newTestService(t, n, Config{Shards: shards, Origin: origin})
		}
		a, b := mk("node-a"), mk("node-b")
		rateAll(t, a, n, raters)
		mustEpoch(t, a)
		// B has folded shard 2 itself before the transfer replaces it.
		if seg := rerate(t, b, 8, 0.5); seg.Computed != 1 {
			t.Fatalf("receiver's own fold computed %d subjects, want 1", seg.Computed)
		}
		st, err := a.BootstrapState(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.InstallBootstrap(st); err != nil {
			t.Fatal(err)
		}
		wholeThenOne(t, b, 8, perShard)
	})

	t.Run("unconverged segment", func(t *testing.T) {
		// Two steps are never enough: every campaign hits the cap.
		s := newTestService(t, n, Config{Shards: shards, Params: core.Params{Epsilon: 1e-6, Seed: 11, MaxSteps: 2}})
		rateAll(t, s, n, raters)
		if mustEpoch(t, s).Converged() {
			t.Fatal("fixture converged within MaxSteps; the edge is not exercised")
		}
		for range 2 {
			if seg := rerate(t, s, 8, 0.9); seg.Computed != perShard || seg.Converged {
				t.Fatalf("fold over an unconverged segment computed %d subjects (converged=%v), want the shard's %d", seg.Computed, seg.Converged, perShard)
			}
		}
	})

	t.Run("no winner", func(t *testing.T) {
		s := newTestService(t, n, Config{Shards: shards})
		rateAll(t, s, n, raters)
		before := mustEpoch(t, s)
		// A write stamped older than its cell's winner loses: the shard is
		// touched and republishes its fold point, computing nothing.
		if _, err := s.SubmitCtx(context.Background(), 9, 8, 0.9, 1); err != nil {
			t.Fatal(err)
		}
		after := mustEpoch(t, s)
		b, a := before.Shard(2), after.Shard(2)
		if a == b || a.Epoch != 2 || a.Seq <= b.Seq {
			t.Fatalf("touched shard not republished: epoch %d seq %d -> %d", a.Epoch, b.Seq, a.Seq)
		}
		if a.Computed != 0 || a.Steps != 0 || a.TotalSteps != 0 || !a.Converged {
			t.Fatalf("fold with no winner: computed %d, steps %d, total %d, converged %v", a.Computed, a.Steps, a.TotalSteps, a.Converged)
		}
		for k, j := range a.Cols.Subjects() {
			if a.Global[k] != b.Global[k] || a.RaterCount(j) != b.RaterCount(j) {
				t.Fatalf("slot %d moved across a fold with no winner", k)
			}
		}
		if s.FoldedSubjects() != n || s.FoldedShards() != shards+1 {
			t.Fatalf("folded %d subjects / %d shards, want %d / %d", s.FoldedSubjects(), s.FoldedShards(), n, shards+1)
		}
	})
}
