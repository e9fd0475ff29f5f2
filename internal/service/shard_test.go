package service

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"diffgossip/internal/core"
	"diffgossip/internal/graph"
	"diffgossip/internal/rng"
	"diffgossip/internal/store"
	"diffgossip/internal/trust"
)

// submitBatch feeds a deterministic feedback batch touching most subjects.
func submitBatch(t *testing.T, s *Service, n, count int, seed uint64) {
	t.Helper()
	src := rng.New(seed)
	for k := 0; k < count; k++ {
		if _, err := s.Submit(src.Intn(n), src.Intn(n), src.Float64()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedEpochMatchesGlobalAllBitwise is the acceptance criterion: a
// full-dirty sharded epoch reproduces core.GlobalAll's values bit for bit at
// the same seed, for S ∈ {1, 4, 17}, any per-shard worker count and any
// fold-worker count.
func TestShardedEpochMatchesGlobalAllBitwise(t *testing.T) {
	const n = 60
	const baseSeed = 23
	g := testGraph(t, n, 9)

	// The reference: fold the same batch into a matrix and run GlobalAll
	// with the seed epoch 1 will derive.
	ref := trust.NewMatrix(n)
	src := rng.New(77)
	for k := 0; k < 500; k++ {
		if err := ref.Set(src.Intn(n), src.Intn(n), src.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	// SparseRaterFrac matches the service default, so the reference runs the
	// same sparse campaigns the folds do. (Warm starts can't diverge here —
	// epoch 1 has no previous state, so every campaign is cold.)
	p := core.Params{Epsilon: 1e-6, Seed: epochSeed(baseSeed, 1), SparseRaterFrac: 0.25}
	all, err := core.GlobalAll(g, ref, p)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct{ shards, foldWorkers, workers int }{
		{1, 1, 0},
		{4, 1, 3},
		{4, -1, -1},
		{17, 2, 0},
		{17, -1, 4},
	} {
		s := newTestService(t, n, Config{
			Graph:       g,
			Params:      core.Params{Epsilon: 1e-6, Seed: baseSeed, Workers: tc.workers},
			Shards:      tc.shards,
			FoldWorkers: tc.foldWorkers,
		})
		submitBatch(t, s, n, 500, 77)
		v, ran, err := s.RunEpoch()
		if err != nil || !ran {
			t.Fatalf("S=%d: epoch (ran=%v, err=%v)", tc.shards, ran, err)
		}
		for j := 0; j < n; j++ {
			got, err := v.Reputation(j)
			if err != nil {
				t.Fatal(err)
			}
			if got != all.Reputation[0][j] {
				t.Fatalf("S=%d foldWorkers=%d workers=%d subject %d: sharded %v != GlobalAll %v",
					tc.shards, tc.foldWorkers, tc.workers, j, got, all.Reputation[0][j])
			}
		}
	}
}

// TestDirtyShardIncrementality is the O(k/S) criterion: an epoch with one of
// S shards dirty runs only that shard's campaigns (asserted via the fold
// counter) and republishes nothing else.
func TestDirtyShardIncrementality(t *testing.T) {
	const n = 60
	const shards = 6
	s := newTestService(t, n, Config{Shards: shards})

	// Epoch 1: every subject rated → all shards dirty, N campaigns.
	for j := 0; j < n; j++ {
		if _, err := s.Submit((j+1)%n, j, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	if got := s.FoldedSubjects(); got != n {
		t.Fatalf("full epoch ran %d campaigns, want %d", got, n)
	}
	if got := s.FoldedShards(); got != shards {
		t.Fatalf("full epoch folded %d shards, want %d", got, shards)
	}
	before := s.View()

	// Epoch 2: feedback for a single subject of shard 2 → exactly one shard
	// folds, and only its rated subjects (all n/shards of them) recompute.
	if _, err := s.Submit(3, 2, 0.9); err != nil {
		t.Fatal(err)
	}
	if s.Stats().DirtyShards != 1 {
		t.Fatalf("dirty shards = %d, want 1", s.Stats().DirtyShards)
	}
	if _, _, err := s.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	after := s.View()
	perShard := n / shards
	if got := s.FoldedSubjects(); got != uint64(n+perShard) {
		t.Fatalf("incremental epoch ran %d campaigns total, want %d (+%d)", got, n+perShard, perShard)
	}
	if got := s.FoldedShards(); got != shards+1 {
		t.Fatalf("incremental epoch folded %d shards total, want %d", got, shards+1)
	}
	for sh := 0; sh < shards; sh++ {
		if sh == 2 {
			if before.Shard(sh) == after.Shard(sh) {
				t.Fatalf("dirty shard %d was not republished", sh)
			}
			if after.Shard(sh).Epoch != 2 {
				t.Fatalf("dirty shard %d at epoch %d, want 2", sh, after.Shard(sh).Epoch)
			}
			continue
		}
		if before.Shard(sh) != after.Shard(sh) {
			t.Fatalf("clean shard %d was republished", sh)
		}
	}
	// The recomputed value reflects the new feedback; clean subjects keep
	// their exact previous bits.
	if got, _ := after.Reputation(2); math.Abs(got-0.9) > epsTol {
		t.Fatalf("subject 2 after incremental fold = %v, want ≈0.9", got)
	}
	for j := 0; j < n; j++ {
		if store.ShardOf(j, shards) == 2 {
			continue
		}
		b, _ := before.Reputation(j)
		a, _ := after.Reputation(j)
		if a != b {
			t.Fatalf("clean subject %d moved: %v -> %v", j, b, a)
		}
	}
}

// TestSlowDiskDoesNotStallIngestOrCompute is the satellite-1 regression: a
// slow disk (stubbed via the persist hook) delays durability only — Submit
// and the next epoch's compute proceed while the previous epoch's
// persistence is still blocked on "disk".
func TestSlowDiskDoesNotStallIngestOrCompute(t *testing.T) {
	dir := t.TempDir()
	s := newTestService(t, 30, Config{Dir: dir, Shards: 3})

	entered := make(chan struct{})
	release := make(chan struct{})
	first := true
	s.persistHook = func() {
		if first {
			first = false
			close(entered)
			<-release
		}
	}

	if _, err := s.Submit(1, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	epoch1Done := make(chan error, 1)
	go func() {
		_, _, err := s.RunEpoch()
		epoch1Done <- err
	}()
	<-entered // epoch 1 is published and now stuck in its persistence phase

	// Ingest must be unaffected: Submit returning while release is still
	// open is the proof (a stalled Submit hangs the test instead).
	if _, err := s.Submit(4, 5, 0.7); err != nil {
		t.Fatal(err)
	}

	// The next epoch's compute must also proceed: its publication becomes
	// visible while epoch 1 is still "writing".
	epoch2Done := make(chan error, 1)
	go func() {
		_, _, err := s.RunEpoch()
		epoch2Done <- err
	}()
	deadline := time.After(5 * time.Second)
	for s.View().Epoch() < 2 {
		select {
		case <-deadline:
			t.Fatal("second epoch never published while the first was persisting")
		case err := <-epoch1Done:
			t.Fatalf("first persist finished early (err=%v) — hook broken", err)
		default:
			time.Sleep(time.Millisecond)
		}
	}

	close(release)
	if err := <-epoch1Done; err != nil {
		t.Fatal(err)
	}
	if err := <-epoch2Done; err != nil {
		t.Fatal(err)
	}
	// Both epochs' segments are durable; a restart serves the newest state.
	s.Close()
	s2 := newTestService(t, 30, Config{Dir: dir, Shards: 3})
	if got := s2.View().Epoch(); got != 2 {
		t.Fatalf("restart sees epoch %d, want 2", got)
	}
}

// prerefactorExpect mirrors the expect.json committed with the fixture.
type prerefactorExpect struct {
	N      int       `json:"n"`
	Epoch  uint64    `json:"epoch"`
	Seq    uint64    `json:"seq"`
	Global []float64 `json:"global"`
	Raters []int     `json:"raters"`
}

// copyFixture clones the committed pre-refactor data dir into a temp dir
// (the service writes into its directory) and returns it with the expected
// state.
func copyFixture(t *testing.T) (string, prerefactorExpect) {
	t.Helper()
	src := filepath.Join("testdata", "prerefactor")
	dir := t.TempDir()
	for _, name := range []string{"ledger.jsonl", "snapshot.gob"} {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var expect prerefactorExpect
	b, err := os.ReadFile(filepath.Join(src, "expect.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &expect); err != nil {
		t.Fatal(err)
	}
	return dir, expect
}

// fixtureConfig matches the parameters the fixture generator used.
func fixtureConfig(t *testing.T, dir string, shards int) Config {
	t.Helper()
	g, err := graph.PreferentialAttachment(graph.PAConfig{N: 40, M: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return Config{Graph: g, Params: core.Params{Epsilon: 1e-6, Seed: 11}, Dir: dir, Shards: shards}
}

// TestMigrationFromPreRefactorDir is the migration acceptance criterion: a
// service started on a data dir written by the pre-shard format (single
// snapshot.gob + ledger.jsonl, committed as a fixture) loads, migrates to
// the manifest + segment layout, and serves the identical reputations; the
// unfolded WAL tail replays as pending.
func TestMigrationFromPreRefactorDir(t *testing.T) {
	for _, shards := range []int{1, 4} {
		dir, expect := copyFixture(t)
		s, err := New(fixtureConfig(t, dir, shards))
		if err != nil {
			t.Fatal(err)
		}
		v := s.View()
		if v.Epoch() != expect.Epoch || v.Seq() != expect.Seq {
			t.Fatalf("S=%d: migrated to epoch %d/seq %d, want %d/%d", shards, v.Epoch(), v.Seq(), expect.Epoch, expect.Seq)
		}
		for j := 0; j < expect.N; j++ {
			got, err := v.Reputation(j)
			if err != nil {
				t.Fatal(err)
			}
			if got != expect.Global[j] {
				t.Fatalf("S=%d subject %d: migrated reputation %v != pre-refactor %v", shards, j, got, expect.Global[j])
			}
			if v.Raters(j) != expect.Raters[j] {
				t.Fatalf("S=%d subject %d: raters %d != %d", shards, j, v.Raters(j), expect.Raters[j])
			}
		}
		if s.Pending() != 2 {
			t.Fatalf("S=%d: replayed %d pending entries, want the 2 unfolded tail entries", shards, s.Pending())
		}
		// The migrated layout is durable: manifest + segments exist now.
		if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
			t.Fatalf("S=%d: no manifest written: %v", shards, err)
		}
		if _, err := os.Stat(filepath.Join(dir, "shard-0000.gob")); err != nil {
			t.Fatalf("S=%d: no segment written: %v", shards, err)
		}

		// Folding the tail works on the migrated state.
		v2, ran, err := s.RunEpoch()
		if err != nil || !ran {
			t.Fatalf("S=%d: post-migration epoch (ran=%v, err=%v)", shards, ran, err)
		}
		if v2.Epoch() != expect.Epoch+1 {
			t.Fatalf("S=%d: post-migration epoch %d", shards, v2.Epoch())
		}
		for j := 0; j < expect.N; j++ {
			got, _ := v2.Reputation(j)
			if want := core.GlobalRef(v2, j); math.Abs(got-want) > epsTol {
				t.Fatalf("S=%d subject %d: post-migration %v, reference %v", shards, j, got, want)
			}
		}
		s.Close()

		// Second boot takes the manifest path (not the legacy one) and
		// serves the folded state.
		s2, err := New(fixtureConfig(t, dir, shards))
		if err != nil {
			t.Fatal(err)
		}
		if got := s2.View().Epoch(); got != expect.Epoch+1 {
			t.Fatalf("S=%d: second boot at epoch %d, want %d", shards, got, expect.Epoch+1)
		}
		s2.Close()
	}
}

// TestMigrationGuardLeavesDirUntouched: a legacy directory whose ledger was
// truncated below the snapshot's fold point must be refused BEFORE any
// migration write — the operator inspects exactly what the old process left.
func TestMigrationGuardLeavesDirUntouched(t *testing.T) {
	dir, _ := copyFixture(t)
	// Truncate the WAL to a stub that ends well before the snapshot's Seq.
	b, err := os.ReadFile(filepath.Join(dir, "ledger.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	cut := 0
	for i, c := range b {
		if c == '\n' {
			lines++
			if lines == 3 {
				cut = i + 1
				break
			}
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "ledger.jsonl"), b[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(fixtureConfig(t, dir, 4)); err == nil {
		t.Fatal("truncated ledger accepted during migration")
	}
	for _, f := range []string{"manifest.json", "shard-0000.gob"} {
		if _, err := os.Stat(filepath.Join(dir, f)); !os.IsNotExist(err) {
			t.Fatalf("failed boot mutated the directory: %s exists", f)
		}
	}
}

// TestMidReshardCrashSelfHeals: a crash between writing new-layout segments
// and flipping the manifest leaves segment files whose layout disagrees with
// the manifest. Boot must not brick: the mismatched segments are discarded
// as never-folded, their subjects' full WAL history re-pends, and the next
// epoch refolds them to the exact references.
func TestMidReshardCrashSelfHeals(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Graph: testGraph(t, 30, 7), Params: core.Params{Epsilon: 1e-6, Seed: 11}, Dir: dir, Shards: 3}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submitBatch(t, s, 30, 120, 5)
	if _, _, err := s.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate the crash artifact: overwrite segment 1 with a valid segment
	// from a DIFFERENT layout (5 shards) while the manifest still says 3.
	legacy, err := store.StitchSnapshot(func() []*store.ShardSnapshot {
		var segs []*store.ShardSnapshot
		for sh := 0; sh < 3; sh++ {
			seg, err := store.LoadShardFile(filepath.Join(dir, "shard-000"+string(rune('0'+sh))+".gob"))
			if err != nil || seg == nil {
				t.Fatalf("segment %d: %v", sh, err)
			}
			segs = append(segs, seg)
		}
		return segs
	}())
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := store.SplitSnapshot(legacy, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := wrong[1].SaveFile(filepath.Join(dir, "shard-0001.gob")); err != nil {
		t.Fatal(err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("mid-reshard artifact bricked the boot: %v", err)
	}
	defer s2.Close()
	// Shard 1's history re-pends; refolding restores the references.
	if s2.Pending() == 0 {
		t.Fatal("discarded shard's history did not re-pend")
	}
	if _, _, err := s2.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	v := s2.View()
	for j := 0; j < 30; j++ {
		got, _ := v.Reputation(j)
		if want := core.GlobalRef(v, j); math.Abs(got-want) > epsTol {
			t.Fatalf("subject %d after self-heal: %v, reference %v", j, got, want)
		}
	}
}

// TestReshardOnBoot: booting an existing sharded directory with a different
// shard count stitches and resplits it, preserving the served reputations.
func TestReshardOnBoot(t *testing.T) {
	dir, expect := copyFixture(t)
	s, err := New(fixtureConfig(t, dir, 4))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := New(fixtureConfig(t, dir, 7))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Shards(); got != 7 {
		t.Fatalf("resharded service reports %d shards", got)
	}
	v := s2.View()
	for j := 0; j < expect.N; j++ {
		got, err := v.Reputation(j)
		if err != nil {
			t.Fatal(err)
		}
		if got != expect.Global[j] {
			t.Fatalf("subject %d: resharded reputation %v != %v", j, got, expect.Global[j])
		}
	}
	if s2.Pending() != 2 {
		t.Fatalf("reshard replayed %d pending entries, want 2", s2.Pending())
	}
}
