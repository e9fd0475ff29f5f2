package service

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"diffgossip/internal/core"
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
// Params.Seed, for S ∈ {1, 4, 17}, any per-shard worker count and any
// fold-worker count.
func TestShardedEpochMatchesGlobalAllBitwise(t *testing.T) {
	checkEpochsMatchGlobalAll(t, 1)
}

// TestWarmEpochMatchesReference is the equivalence criterion for the epoch
// after the first: it computes only the subjects a second batch re-rated,
// carries every other slot over, and still serves core.GlobalAll's values
// over the whole folded matrix bit for bit, at every shard, fold-worker and
// per-shard worker count of the bitwise test.
func TestWarmEpochMatchesReference(t *testing.T) {
	checkEpochsMatchGlobalAll(t, 2)
}

// checkEpochsMatchGlobalAll submits the first `epochs` of two fixed feedback
// batches, one epoch each, and checks every epoch's view against
// core.GlobalAll over the matrix folded so far. From the second epoch on it
// also checks that the epoch recomputed fewer than all n subjects.
func checkEpochsMatchGlobalAll(t *testing.T, epochs int) {
	t.Helper()
	const n = 60
	const seed = 23
	g := testGraph(t, n, 9)
	batches := [][2]uint64{{77, 500}, {78, 120}}[:epochs]

	// The references: fold the batches into a matrix in submission order
	// (ascending timestamps make last-write-wins equal last-Set-wins) and run
	// GlobalAll at the service's seed after each. SparseRaterFrac matches the
	// service default, so the reference runs the same sparse campaigns the
	// folds do.
	ref := trust.NewMatrix(n)
	p := core.Params{Epsilon: 1e-6, Seed: seed, SparseRaterFrac: 0.25}
	want := make([][]float64, len(batches))
	for e, bs := range batches {
		src := rng.New(bs[0])
		for k := uint64(0); k < bs[1]; k++ {
			if err := ref.Set(src.Intn(n), src.Intn(n), src.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		all, err := core.GlobalAll(g, ref, p)
		if err != nil {
			t.Fatal(err)
		}
		want[e] = all.Reputation[0]
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
			Params:      core.Params{Epsilon: 1e-6, Seed: seed, Workers: tc.workers},
			Shards:      tc.shards,
			FoldWorkers: tc.foldWorkers,
		})
		for e, bs := range batches {
			submitBatch(t, s, n, int(bs[1]), bs[0])
			before := s.FoldedSubjects()
			v := mustEpoch(t, s)
			if e > 0 && s.FoldedSubjects()-before >= uint64(n) {
				t.Fatalf("S=%d: epoch %d computed %d subjects; the carry never ran", tc.shards, e+1, s.FoldedSubjects()-before)
			}
			for j := 0; j < n; j++ {
				got, err := v.Reputation(j)
				if err != nil {
					t.Fatal(err)
				}
				if got != want[e][j] {
					t.Fatalf("S=%d foldWorkers=%d workers=%d epoch %d subject %d: sharded %v != GlobalAll %v",
						tc.shards, tc.foldWorkers, tc.workers, e+1, j, got, want[e][j])
				}
			}
		}
	}
}

// TestDirtyShardIncrementality is the incrementality criterion: shards are
// the unit of publication, subjects the unit of recomputation. An epoch that
// re-rates one subject republishes only that subject's shard and runs only
// that subject's campaign (asserted via the fold counters); the shard's other
// slots carry their values over from the previous segment.
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
	// folds, and of its n/shards rated subjects only that one recomputes.
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
	if got := s.FoldedSubjects(); got != n+1 {
		t.Fatalf("incremental epoch ran %d campaigns total, want %d (+1)", got, n+1)
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
			b, a := before.Shard(sh), after.Shard(sh)
			for k := range a.Global {
				if k == store.SlotOf(2, shards) {
					continue
				}
				j := sh + k*shards
				if a.Global[k] != b.Global[k] || a.RaterCount(j) != b.RaterCount(j) {
					t.Fatalf("dirty shard %d: untouched slot %d was not carried over (global %v -> %v, raters %d -> %d)",
						sh, k, b.Global[k], a.Global[k], b.RaterCount(j), a.RaterCount(j))
				}
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

// dirListing reads every file of a data directory, so a refused boot can be
// shown to have left it byte-for-byte untouched.
func dirListing(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

// refusedUntouched boots cfg, which must fail with an error mentioning every
// one of mentions, and checks the directory is exactly as it was.
func refusedUntouched(t *testing.T, cfg Config, mentions ...string) {
	t.Helper()
	before := dirListing(t, cfg.Dir)
	s, err := New(cfg)
	if err == nil {
		s.Close()
		t.Fatal("boot accepted a directory it must refuse")
	}
	for _, m := range mentions {
		if !strings.Contains(err.Error(), m) {
			t.Fatalf("refusal does not mention %q: %v", m, err)
		}
	}
	if after := dirListing(t, cfg.Dir); !reflect.DeepEqual(before, after) {
		t.Fatalf("refused boot changed the directory: %d files before, %d after", len(before), len(after))
	}
}

// foldedDir runs a 4-shard service over dir through one epoch that dirties
// every shard plus two unfolded tail entries, closes it, and returns the
// config it used and the view it last served.
func foldedDir(t *testing.T, dir string) (Config, *View) {
	t.Helper()
	cfg := Config{Graph: testGraph(t, 40, 7), Params: core.Params{Epsilon: 1e-6, Seed: 11}, Dir: dir, Shards: 4}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submitBatch(t, s, 40, 200, 5)
	v, ran, err := s.RunEpoch()
	if err != nil || !ran {
		t.Fatalf("epoch (ran=%v, err=%v)", ran, err)
	}
	submitBatch(t, s, 40, 2, 6)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return cfg, v
}

// TestReshardRependsPerOldShard counts a reshard's boot tail: it is taken
// against the segments as read, so an entry re-pends only when its old
// shard had not folded it — not when the regrouped segment's fold point,
// the minimum of the old ones, lies below it. Shard 0 folds ten entries
// more than shard 1; reopened at S=3, only the seven entries above their
// own shard's fold point are pending, and after one epoch every read is
// bit-identical to a single fold of the whole history.
func TestReshardRependsPerOldShard(t *testing.T) {
	const n = 40
	cfg := Config{Graph: testGraph(t, n, 7), Params: core.Params{Epsilon: 1e-6, Seed: 11}, Dir: t.TempDir(), Shards: 2}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var accepted []histEntry
	submit := func(rater, subject int) {
		t.Helper()
		ts := int64(len(accepted) + 1)
		value := float64(rater+subject) / (2 * n)
		seq, err := s.SubmitCtx(context.Background(), rater, subject, value, ts)
		if err != nil {
			t.Fatal(err)
		}
		accepted = append(accepted, histEntry{rater, subject, value, histStamp{ts: ts, seq: seq}})
	}
	epoch := func() {
		t.Helper()
		if _, ran, err := s.RunEpoch(); err != nil || !ran {
			t.Fatalf("epoch: ran=%v err=%v", ran, err)
		}
	}
	for k := 0; k < 40; k++ {
		submit(k, (7*k+1)%n) // both shards
	}
	epoch()
	for k := 0; k < 10; k++ {
		submit(k, 2*k) // shard 0 only
	}
	epoch()
	for k := 0; k < 7; k++ {
		submit(20+k, (2*k+k/3)%n) // unfolded tail: 4 entries of shard 0, 3 of shard 1
	}
	v := s.View()
	folded := []uint64{v.Shard(0).Seq, v.Shard(1).Seq}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want, belowMin := 0, 0
	for _, e := range accepted {
		if e.stamp.seq > folded[e.subject%2] {
			want++
		}
		if e.stamp.seq > min(folded[0], folded[1]) {
			belowMin++
		}
	}
	if want != 7 || belowMin != 17 {
		t.Fatalf("test degenerated: fold points %v leave %d entries unfolded (%d above the minimum), want 7 (17)", folded, want, belowMin)
	}

	cfg.Shards = 3
	if s, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if got := s.Pending(); got != want {
		t.Fatalf("reshard 2 -> 3 re-pended %d entries, want the %d above their old shard's fold point", got, want)
	}
	epoch()
	oracle := historyOracle(t, cfg, accepted)
	v = s.View()
	for j := 0; j < n; j++ {
		got, err := v.Reputation(j)
		if err != nil {
			t.Fatal(err)
		}
		if ref, _, _ := oracle.Reputation(j); got != ref {
			t.Fatalf("subject %d: resharded node serves %v, one fold of the history %v", j, got, ref)
		}
	}
}

// TestReshardKeepsFoldedShardFoldPoint counts what a 2 → 4 reshard costs a
// replicating node whose shard 0 folded re-rated cells while shard 1 never
// folded. Each regrouped segment keeps the fold point of the old shard its
// subjects come from, so none of shard 0's superseded entries counts as
// unfolded: BootstrapState ships only shard 1's pending entries in Tail,
// and CompactWAL keeps only the cell winners plus those pending entries. One
// write-once ballast cell in shard 0 keeps the dead entries below the live
// ones, so the epoch does not compact the WAL itself.
func TestReshardKeepsFoldedShardFoldPoint(t *testing.T) {
	const n = 40
	cfg := Config{Graph: testGraph(t, n, 7), Params: core.Params{Epsilon: 1e-6, Seed: 11},
		Dir: t.TempDir(), Shards: 2, Origin: "node-a"}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(rater, subject int, value float64) {
		t.Helper()
		if _, err := s.Submit(rater, subject, value); err != nil {
			t.Fatal(err)
		}
	}
	const raters, tail, ballast = 6, 3, 1
	submit(1, 4, 0.5)
	for round := 0; round < 2; round++ { // shard 0: every cell rated twice
		for r := 1; r <= raters; r++ {
			submit(r, 2, float64(round+r)/10)
		}
	}
	if _, ran, err := s.RunEpoch(); err != nil || !ran {
		t.Fatalf("epoch: ran=%v err=%v", ran, err)
	}
	for r := 1; r <= tail; r++ { // shard 1: pending, never folded
		submit(r, 3, 0.5)
	}
	if v := s.View(); v.Shard(0).Seq != 2*raters+ballast || v.Shard(1).Seq != 0 {
		t.Fatalf("test degenerated: fold points %d/%d, want %d/0", v.Shard(0).Seq, v.Shard(1).Seq, 2*raters+ballast)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.Shards = 4
	if s, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if got := s.Pending(); got != tail {
		t.Fatalf("reshard 2 -> 4 re-pended %d entries, want %d", got, tail)
	}
	st, err := s.BootstrapState(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Folded) != 2*raters+ballast || len(st.Tail) != tail {
		t.Fatalf("transfer ships %d folded / %d tail entries, want %d / %d", len(st.Folded), len(st.Tail), 2*raters+ballast, tail)
	}
	for _, fb := range st.Tail {
		if fb.Subject != 3 {
			t.Fatalf("tail ships %+v, a folded entry of subject 2", fb)
		}
	}
	cs, err := s.CompactWAL()
	if err != nil {
		t.Fatal(err)
	}
	if cs.EntriesBefore != 2*raters+ballast+tail || cs.EntriesAfter != raters+ballast+tail {
		t.Fatalf("compaction %d -> %d entries, want %d -> %d (winners plus pending)", cs.EntriesBefore, cs.EntriesAfter, 2*raters+ballast+tail, raters+ballast+tail)
	}
}

// TestBootRefusesPreShardDir: one on-disk format is read. A directory from
// the pre-shard format (snapshot.gob, no manifest) is refused by name and
// left untouched — never mistaken for a fresh directory, which would refold
// the whole WAL over state the operator believes is persisted — and so is a
// directory holding a shard-NNNN.seg of another version.
func TestBootRefusesPreShardDir(t *testing.T) {
	// snapshot.gob beside a WAL, no manifest.
	dir := t.TempDir()
	cfg, _ := foldedDir(t, dir)
	for name := range dirListing(t, dir) {
		if name != ledgerFile {
			os.Remove(filepath.Join(dir, name))
		}
	}
	if err := os.WriteFile(filepath.Join(dir, preShardFile), []byte("a PR-2 snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	refusedUntouched(t, cfg, preShardFile, manifestFile)

	// snapshot.gob alone: not even an empty WAL may appear.
	lone := t.TempDir()
	if err := os.WriteFile(filepath.Join(lone, preShardFile), []byte("a PR-2 snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Dir = lone
	refusedUntouched(t, cfg, preShardFile, manifestFile)

	// A current-layout directory with one segment of another version.
	dir = t.TempDir()
	cfg, _ = foldedDir(t, dir)
	b, err := os.ReadFile(shardPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	b[4]++ // the version follows the 4-byte magic
	if err := os.WriteFile(shardPath(dir, 1), b, 0o644); err != nil {
		t.Fatal(err)
	}
	refusedUntouched(t, cfg, "shard-0001.seg", "version 4", "version 3 only")
}

// TestReshardGuardLeavesDirUntouched: a directory whose ledger was truncated
// below its segments' fold point must be refused BEFORE any reshard write —
// the operator inspects exactly what the old process left.
func TestReshardGuardLeavesDirUntouched(t *testing.T) {
	dir := t.TempDir()
	cfg, _ := foldedDir(t, dir)
	b, err := os.ReadFile(ledgerPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Keep three lines: a stub that ends well before the segments' Seq.
	cut := 0
	for lines := 0; lines < 3; cut++ {
		if b[cut] == '\n' {
			lines++
		}
	}
	if err := os.WriteFile(ledgerPath(dir), b[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 7
	refusedUntouched(t, cfg, "truncated")
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
	var segs []*store.ShardSnapshot
	for sh := 0; sh < 3; sh++ {
		seg, err := store.LoadShardFile(shardPath(dir, sh))
		if err != nil || seg == nil {
			t.Fatalf("segment %d: %v", sh, err)
		}
		segs = append(segs, seg)
	}
	wrong, err := store.Reshard(segs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := wrong[1].SaveFile(shardPath(dir, 1)); err != nil {
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
// shard count regroups it in place — up (4→7) and down (7→3): the served
// reputations and rater counts are preserved exactly, the unfolded tail is
// still pending, only the live layout's segment files remain, and the first
// epoch afterwards folds to the exact references.
func TestReshardOnBoot(t *testing.T) {
	const n = 40
	dir := t.TempDir()
	cfg, want := foldedDir(t, dir)
	for _, shards := range []int{7, 3} {
		cfg.Shards = shards
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Shards(); got != shards {
			t.Fatalf("resharded service reports %d shards, want %d", got, shards)
		}
		v := s.View()
		if v.Epoch() != want.Epoch() {
			t.Fatalf("S=%d: resharded to epoch %d, want %d", shards, v.Epoch(), want.Epoch())
		}
		for j := 0; j < n; j++ {
			got, err := v.Reputation(j)
			if err != nil {
				t.Fatal(err)
			}
			if w, _ := want.Reputation(j); got != w {
				t.Fatalf("S=%d subject %d: resharded reputation %v != %v", shards, j, got, w)
			}
			if v.Raters(j) != want.Raters(j) {
				t.Fatalf("S=%d subject %d: raters %d != %d", shards, j, v.Raters(j), want.Raters(j))
			}
		}
		if s.Pending() != 2 {
			t.Fatalf("S=%d: reshard replayed %d pending entries, want the 2 unfolded tail entries", shards, s.Pending())
		}
		files, err := filepath.Glob(filepath.Join(dir, "shard-*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != shards {
			t.Fatalf("S=%d: directory lists %d segment files: %v", shards, len(files), files)
		}
		for sh := 0; sh < shards; sh++ {
			if _, err := os.Stat(shardPath(dir, sh)); err != nil {
				t.Fatalf("S=%d: live segment %d missing: %v", shards, sh, err)
			}
		}

		// Fold the tail plus a batch that dirties every shard again, leave a
		// fresh two-entry tail, and hand the directory to the next layout.
		submitBatch(t, s, n, 200, uint64(shards))
		if want, _, err = s.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < n; j++ {
			got, _ := want.Reputation(j)
			if ref := core.GlobalRef(want, j); math.Abs(got-ref) > epsTol {
				t.Fatalf("S=%d subject %d: post-reshard fold %v, reference %v", shards, j, got, ref)
			}
		}
		submitBatch(t, s, n, 2, uint64(shards)+1)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
