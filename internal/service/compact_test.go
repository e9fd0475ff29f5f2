package service

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"diffgossip/internal/core"
	"diffgossip/internal/obs"
	"diffgossip/internal/rng"
	"diffgossip/internal/store"
)

// submitChurn drives heavy supersession traffic: each rater re-rates the same
// small subject set many times, so almost every WAL line is dead weight once
// folded.
func submitChurn(t *testing.T, s *Service, rounds int) {
	t.Helper()
	src := rng.New(5)
	for k := 0; k < rounds; k++ {
		rater, subject := k%8, (k+1)%8
		if _, err := s.Submit(rater, subject, src.Float64()); err != nil {
			t.Fatal(err)
		}
	}
}

// rateOnce rates count cells once each, their raters and subjects in [lo, n),
// so they miss every cell of churn traffic below lo: write-once ballast that
// keeps the WAL's dead entries below its live ones, so no epoch compacts it
// before the test's own CompactWAL does.
func rateOnce(t *testing.T, s *Service, n, lo, count int) {
	t.Helper()
	for k := 0; k < count; k++ {
		if _, err := s.Submit(lo+k%(n-lo), lo+k/(n-lo), 0.5); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServiceCompactWALRoundTrip is the compaction round-trip the CI race job
// also drives: churn, fold, compact, keep serving, restart — the rewritten
// WAL must boot cleanly and the restarted service must serve exactly the
// pre-restart reputations.
func TestServiceCompactWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t, 30, 7)
	cfg := Config{Graph: g, Params: core.Params{Epsilon: 1e-6, Seed: 11}, Dir: dir, Shards: 3}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const ballast = 300
	rateOnce(t, s1, 30, 8, ballast)
	submitChurn(t, s1, 300)
	if _, ran, err := s1.RunEpoch(); err != nil || !ran {
		t.Fatalf("epoch: ran=%v err=%v", ran, err)
	}
	s1.Submit(9, 10, 0.5) // unfolded tail rides through the compaction
	st, err := s1.CompactWAL()
	if err != nil {
		t.Fatal(err)
	}
	if st.EntriesBefore != ballast+301 {
		t.Fatalf("compact saw %d entries, want %d", st.EntriesBefore, ballast+301)
	}
	// 8 distinct churned cells and the ballast survive the fold, plus the
	// one unfolded tail entry.
	if st.EntriesAfter != ballast+9 {
		t.Fatalf("compact kept %d entries, want %d", st.EntriesAfter, ballast+9)
	}
	// The service keeps working on the rewritten file.
	if _, err := s1.Submit(11, 12, 0.25); err != nil {
		t.Fatal(err)
	}
	v1, _, err := s1.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	rep1, _ := v1.Reputation(1)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("boot from compacted WAL: %v", err)
	}
	defer s2.Close()
	v2 := s2.View()
	if v2.Epoch() != v1.Epoch() || v2.Seq() != v1.Seq() {
		t.Fatalf("restart published epoch %d/seq %d, want %d/%d", v2.Epoch(), v2.Seq(), v1.Epoch(), v1.Seq())
	}
	if rep2, _ := v2.Reputation(1); math.Abs(rep2-rep1) > 1e-12 {
		t.Fatalf("restart from compacted WAL changed reputation: %v vs %v", rep2, rep1)
	}
	// Sequence numbers keep increasing past the compacted suffix.
	if seq, err := s2.Submit(5, 6, 0.2); err != nil || seq != v1.Seq()+1 {
		t.Fatalf("post-restart Submit = (%d, %v), want (%d, nil)", seq, err, v1.Seq()+1)
	}
}

// TestServiceCompactsWhenDeadReachesLive pins the compaction trigger by
// counts. Dead entries are the WAL lines beyond the persisted cells and the
// pending window, live ones the cells plus the pending window; RunEpoch
// compacts at exactly the first epoch whose persisted state leaves dead ≥
// live, read off diffgossip_store_wal_compactions_total, and the service's
// two WAL gauges report both counts. A write-once history never compacts.
// After a compaction the one dead entry left is the stream's head, kept for
// its watermark, so the WAL holds cells + pending + that head; and a reopen
// reports the same counts.
func TestServiceCompactsWhenDeadReachesLive(t *testing.T) {
	const n, cells, rerated = 30, 200, 60
	cfg := Config{Graph: testGraph(t, n, 7), Params: core.Params{Epsilon: 1e-6, Seed: 11}, Dir: t.TempDir(), Shards: 3}
	s := newTestService(t, n, cfg)
	reg := obs.NewRegistry()
	s.Instrument(reg)
	metric := func(name string) int {
		t.Helper()
		var buf bytes.Buffer
		if err := reg.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		fams, err := obs.ParseExposition(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fams {
			if f.Name == name {
				return int(f.Samples[0].Value)
			}
		}
		t.Fatalf("no metric %s", name)
		return 0
	}
	debt := func() (dead, live int) {
		return metric("diffgossip_service_wal_dead_entries"), metric("diffgossip_service_wal_live_entries")
	}
	walLines := func() int {
		b, err := os.ReadFile(filepath.Join(cfg.Dir, "ledger.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Count(b, []byte("\n"))
	}
	// Cell c is (rater c mod n, subject c/n); stamps count up from 1.
	var ts int64
	rate := func(c int, stamp int64) {
		if _, err := s.SubmitCtx(context.Background(), c%n, c/n, 0.5, stamp); err != nil {
			t.Fatal(err)
		}
	}

	for e := 0; e < 10; e++ {
		for k := 0; k < cells/10; k++ {
			ts++
			rate(e*cells/10+k, ts)
		}
		mustEpoch(t, s)
		if dead, live := debt(); dead != 0 || live != (e+1)*cells/10 {
			t.Fatalf("write-once epoch %d: dead %d live %d, want 0 and %d", e+1, dead, live, (e+1)*cells/10)
		}
	}
	if got := metric("diffgossip_store_wal_compactions_total"); got != 0 {
		t.Fatalf("a write-once history compacted %d times", got)
	}

	// Each re-rating epoch kills the previous winners of rerated cells and
	// ends with a write older than its cell's winner: dead on arrival, and
	// the stream's head.
	dead, compactions := 0, 0
	for e := 0; compactions < 2; e++ {
		for k := 0; k < rerated; k++ {
			ts++
			rate((e*rerated+k)%cells, ts)
		}
		rate(e*rerated%cells, 1)
		mustEpoch(t, s)
		if dead += rerated + 1; dead >= cells {
			compactions++
			dead = 1
			if got := walLines(); got != cells+1 {
				t.Fatalf("re-rating epoch %d compacted the WAL to %d lines, want %d cells + the head", e+1, got, cells)
			}
		}
		if got := metric("diffgossip_store_wal_compactions_total"); got != compactions {
			t.Fatalf("re-rating epoch %d: %d compactions, want %d", e+1, got, compactions)
		}
		if gotDead, live := debt(); gotDead != dead || live != cells {
			t.Fatalf("re-rating epoch %d: dead %d live %d, want %d and %d", e+1, gotDead, live, dead, cells)
		}
	}

	const pending = 5
	for c := cells; c < cells+pending; c++ {
		ts++
		rate(c, ts)
	}
	st, err := s.CompactWAL()
	if err != nil {
		t.Fatal(err)
	}
	if st.EntriesBefore != cells+pending+1 || st.EntriesAfter != cells+pending+1 {
		t.Fatalf("compaction of a compacted WAL kept %d of %d entries, want cells + pending + the head, %d",
			st.EntriesAfter, st.EntriesBefore, cells+pending+1)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = newTestService(t, n, cfg)
	reg = obs.NewRegistry()
	s.Instrument(reg)
	if gotDead, live := debt(); gotDead != 1 || live != cells+pending {
		t.Fatalf("reopened: dead %d live %d, want 1 and %d", gotDead, live, cells+pending)
	}
}

// TestCompactionTrimsReplicationHistory pins that a replicating node's
// history is its WAL held in memory: after CompactWAL the node pulls,
// bootstraps and marks exactly what the same node reopened on the compacted
// directory does — the superseded folded entries are gone from both, not
// only from the file.
func TestCompactionTrimsReplicationHistory(t *testing.T) {
	const n = 48
	cfg := Config{Graph: testGraph(t, n, 7), Params: core.Params{Epsilon: 1e-6, Seed: 11},
		Dir: t.TempDir(), Shards: 3, Origin: "node-a"}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const ballast = 600
	rateOnce(t, s, n, 16, ballast)
	vals := rng.New(3)
	for k := 0; k < 600; k++ {
		if _, err := s.Submit(k%16, (k+1)%16, vals.Float64()); err != nil {
			t.Fatal(err)
		}
		if k%200 == 199 {
			if _, _, err := s.RunEpoch(); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, err := s.CompactWAL()
	if err != nil {
		t.Fatal(err)
	}
	if st.EntriesBefore != ballast+600 || st.EntriesAfter != ballast+16 {
		t.Fatalf("compact kept %d of %d entries, want %d of %d", st.EntriesAfter, st.EntriesBefore, ballast+16, ballast+600)
	}
	history := func(s *Service) map[string][]store.Feedback {
		out := make(map[string][]store.Feedback)
		for o := range s.ReplicationMarks() {
			out[o] = s.ReplicationEntriesSince(o, 0, 0)
		}
		return out
	}
	live, marks := history(s), s.ReplicationMarks()
	if got := len(live["node-a"]); got != st.EntriesAfter {
		t.Fatalf("compacted node retains %d history entries, want the WAL's %d", got, st.EntriesAfter)
	}
	if marks["node-a"] != ballast+600 {
		t.Fatalf("compaction moved the local mark to %d, want %d", marks["node-a"], ballast+600)
	}
	bs, err := s.BootstrapState(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(bs.Folded) + len(bs.Tail); got != st.EntriesAfter {
		t.Fatalf("bootstrap ships %d entries, want the WAL's %d", got, st.EntriesAfter)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	reopened := newTestService(t, n, cfg)
	if got := reopened.ReplicationMarks(); !reflect.DeepEqual(got, marks) {
		t.Fatalf("reopened marks %v, compacted node's %v", got, marks)
	}
	if got := history(reopened); !reflect.DeepEqual(got, live) {
		t.Fatalf("reopened history differs from the compacted node's:\n got %v\nwant %v", got, live)
	}
}

// TestServiceBootstrapInstall ships a snapshot bootstrap between two
// replicated services directly (the cluster layer adds only wire framing):
// the receiver must serve bit-identical reputations without folding the
// sender's history, and refuse transfers containing its own stream.
func TestServiceBootstrapInstall(t *testing.T) {
	g := testGraph(t, 30, 7)
	mk := func(origin string) *Service {
		s, err := New(Config{
			Graph:  g,
			Params: core.Params{Epsilon: 1e-6, Seed: 11},
			Shards: 3,
			Origin: origin,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	a := mk("node-a")
	submitChurn(t, a, 200)
	va, _, err := a.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	a.Submit(9, 10, 0.5) // tail entry, not yet folded on A

	st, err := a.BootstrapState(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Tail) != 1 || len(st.Folded) == 0 {
		t.Fatalf("transfer shape: %d folded, %d tail", len(st.Folded), len(st.Tail))
	}

	b := mk("node-b")
	if err := b.InstallBootstrap(st); err != nil {
		t.Fatal(err)
	}
	// Folded entries arrive pre-folded: no pending recompute for them, only
	// the tail awaits the next epoch.
	if got := b.Pending(); got != 1 {
		t.Fatalf("install left %d entries pending, want only the tail", got)
	}
	vb := b.View()
	for j := 0; j < 30; j++ {
		want, _ := va.Reputation(j)
		got, _ := vb.Reputation(j)
		if got != want {
			t.Fatalf("subject %d: bootstrap view %v, sender %v", j, got, want)
		}
	}
	// B's marks agree with the transfer, so anti-entropy has nothing to pull.
	if got := b.ReplicationMarks()["node-a"]; got != st.Marks["node-a"] {
		t.Fatalf("installed node-a mark %d, want %d", got, st.Marks["node-a"])
	}
	// After folding the tail, B matches a fresh epoch on A.
	if _, ran, err := b.RunEpoch(); err != nil || !ran {
		t.Fatalf("tail epoch: ran=%v err=%v", ran, err)
	}
	va2, _, err := a.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	vb2 := b.View()
	for j := 0; j < 30; j++ {
		want, _ := va2.Reputation(j)
		got, _ := vb2.Reputation(j)
		if got != want {
			t.Fatalf("subject %d after tail fold: %v vs %v", j, got, want)
		}
	}

	// An in-process transfer carries the sender's LIVE publications: a
	// receiver in a different sequence space (two local epochs, three local
	// entries) must rebase copies, never the sender's segments themselves.
	c := mk("node-c")
	for k := 0; k < 3; k++ {
		if _, err := c.Submit(k, k+1, 0.5); err != nil {
			t.Fatal(err)
		}
		if k < 2 {
			if _, _, err := c.RunEpoch(); err != nil {
				t.Fatal(err)
			}
		}
	}
	sent := a.View()
	sentSeq := sent.Seq()
	sentEpochs := make([]uint64, a.Shards())
	for sh := range sentEpochs {
		sentEpochs[sh] = sent.Shard(sh).Epoch
	}
	st2, err := a.BootstrapState(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InstallBootstrap(st2); err != nil {
		t.Fatal(err)
	}
	if c.View().Epoch() == sentEpochs[0] {
		t.Fatal("receiver rebased into the sender's own epoch; the probe below proves nothing")
	}
	after := a.View()
	if after.Seq() != sentSeq {
		t.Fatalf("install moved the sender's view from seq %d to %d", sentSeq, after.Seq())
	}
	for sh, want := range sentEpochs {
		if after.Shard(sh) != sent.Shard(sh) || after.Shard(sh).Epoch != want {
			t.Fatalf("install rewrote the sender's shard %d publication: epoch %d, want %d", sh, after.Shard(sh).Epoch, want)
		}
	}
	for j := 0; j < 30; j++ {
		want, _ := va2.Reputation(j)
		if got, _ := after.Reputation(j); got != want {
			t.Fatalf("subject %d: sender serves %v after the install, %v before", j, got, want)
		}
	}

	// A transfer carrying the receiver's own stream is refused outright.
	bad := &StateTransfer{
		Segments: st.Segments,
		Folded:   []store.Feedback{{Seq: 1, Rater: 1, Subject: 2, Value: 0.5, Origin: "node-b", OriginSeq: 1}},
		Marks:    st.Marks,
	}
	if err := b.InstallBootstrap(bad); err == nil {
		t.Fatal("transfer containing the receiver's own stream was accepted")
	}
}

// TestBootstrapRependsLocallyPendingEntries pins the fold point an installed
// segment may claim: entries the receiver already pulled and still holds
// pending — over TCP a fresh node's own digest races the state transfer — are
// covered by the sender's marks, so neither Folded, Tail nor the re-pend list
// carries them. If the installed segments claimed them as folded, a restart
// before the next epoch persisted would drop them from the tail for good.
func TestBootstrapRependsLocallyPendingEntries(t *testing.T) {
	g := testGraph(t, 30, 7)
	cfg := func(origin, dir string) Config {
		return Config{
			Graph:  g,
			Params: core.Params{Epsilon: 1e-6, Seed: 11},
			Shards: 3,
			Origin: origin,
			Dir:    dir,
		}
	}
	a := newTestService(t, 30, cfg("node-a", ""))
	submitChurn(t, a, 50)
	if _, _, err := a.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Submit(3, 7, 0.25); err != nil { // subject 7's second rater, unfolded on A
		t.Fatal(err)
	}

	// B pulls A's whole retained stream entry by entry — all 51 now pending
	// on B — and only then installs the transfer it had asked for.
	dir := t.TempDir()
	b, err := New(cfg("node-b", dir))
	if err != nil {
		t.Fatal(err)
	}
	pulled := a.ReplicationEntriesSince(a.Origin(), 0, 0)
	if _, err := b.ApplyReplicated(pulled); err != nil {
		b.Close()
		t.Fatal(err)
	}
	st, err := a.BootstrapState(b.ReplicationMarks())
	if err == nil {
		err = b.InstallBootstrap(st)
	}
	if err != nil {
		b.Close()
		t.Fatal(err)
	}
	if len(st.Folded)+len(st.Tail) != 0 {
		t.Fatalf("transfer re-shipped %d folded + %d tail entries B's marks already cover", len(st.Folded), len(st.Tail))
	}
	// Restart without an epoch: every pulled entry must re-pend from the WAL.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b = newTestService(t, 30, cfg("node-b", dir))
	if got := b.Pending(); got != len(pulled) {
		t.Fatalf("reopen after install re-pended %d entries, want all %d pulled ones", got, len(pulled))
	}
	va, _, err := a.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	vb, _, err := b.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if va.Raters(7) != 2 || vb.Raters(7) != 2 {
		t.Fatalf("subject 7 raters: sender %d, rebooted receiver %d, want 2 and 2", va.Raters(7), vb.Raters(7))
	}
	for j := 0; j < 30; j++ {
		want, _ := va.Reputation(j)
		if got, _ := vb.Reputation(j); got != want {
			t.Fatalf("subject %d: rebooted receiver serves %v, sender %v", j, got, want)
		}
	}
}

// TestRefusedBootstrapChangesNothing: an install is refused before anything
// is written, published or re-pended. The receiver has folded a rating of
// its own that the sender never saw; a transfer whose Tail carries an
// out-of-range rating must leave its views, epoch count, ledger, pending
// window, marks and data directory exactly as they were. A valid install
// afterwards re-pends the receiver's rating, so its next fold counts both
// raters of the subject — also across a reopen before that fold.
func TestRefusedBootstrapChangesNothing(t *testing.T) {
	const n = 30
	g := testGraph(t, n, 7)
	for _, persisted := range []bool{false, true} {
		cfg := func(origin string) Config {
			c := Config{Graph: g, Params: core.Params{Epsilon: 1e-6, Seed: 11}, Shards: 3, Origin: origin}
			if persisted && origin == "node-b" {
				c.Dir = t.TempDir()
			}
			return c
		}
		a := newTestService(t, n, cfg("node-a"))
		if _, err := a.Submit(3, 7, 0.25); err != nil {
			t.Fatal(err)
		}
		mustEpoch(t, a)
		if _, err := a.Submit(4, 8, 0.5); err != nil { // A's unfolded tail
			t.Fatal(err)
		}
		bcfg := cfg("node-b")
		b, err := New(bcfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		if _, err := b.Submit(5, 7, 0.75); err != nil {
			t.Fatal(err)
		}
		mustEpoch(t, b)

		st, err := a.BootstrapState(b.ReplicationMarks())
		if err != nil {
			t.Fatal(err)
		}
		bad := *st
		bad.Tail = append(append([]store.Feedback(nil), st.Tail...),
			store.Feedback{Rater: 1, Subject: 2, Value: 1.5, UnixNano: 9, Origin: "node-a", OriginSeq: 99})
		before, epochs, seq, marks := b.View(), b.Epochs(), b.LedgerSeq(), b.ReplicationMarks()
		var files map[string]string
		if persisted {
			files = dirListing(t, bcfg.Dir)
		}
		if err := b.InstallBootstrap(&bad); err == nil {
			t.Fatalf("persisted=%v: a transfer with an out-of-range rating was installed", persisted)
		}
		after := b.View()
		for sh := 0; sh < b.Shards(); sh++ {
			if after.Shard(sh) != before.Shard(sh) {
				t.Fatalf("persisted=%v: refused install republished shard %d", persisted, sh)
			}
		}
		if b.Epochs() != epochs || b.LedgerSeq() != seq || b.Pending() != 0 || !reflect.DeepEqual(b.ReplicationMarks(), marks) {
			t.Fatalf("persisted=%v: refused install moved epochs %d -> %d, ledger seq %d -> %d, pending 0 -> %d, marks %v -> %v",
				persisted, epochs, b.Epochs(), seq, b.LedgerSeq(), b.Pending(), marks, b.ReplicationMarks())
		}
		if persisted && !reflect.DeepEqual(dirListing(t, bcfg.Dir), files) {
			t.Fatalf("refused install changed the data directory")
		}

		if err := b.InstallBootstrap(st); err != nil {
			t.Fatal(err)
		}
		if persisted {
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			if b, err = New(bcfg); err != nil {
				t.Fatal(err)
			}
		}
		if got := mustEpoch(t, b).Raters(7); got != 2 {
			t.Fatalf("persisted=%v: subject 7 has %d raters after the valid install folded, want 2", persisted, got)
		}
	}
}

// TestBootstrapKeepsReceiverFoldedWrite: a transfer's segments replace the
// receiver's published columns, so a write the receiver has folded and the
// sender holds but has not folded yet — inside the sender's marks, so
// neither the transfer's entry lists nor the re-pend-past-marks rule carries
// it — must be re-pended from the receiver's history, or its cell is gone
// for good: both services fold afterwards and must serve the same raters,
// also when the receiver reopens before that fold.
func TestBootstrapKeepsReceiverFoldedWrite(t *testing.T) {
	const n = 16
	g := testGraph(t, n, 7)
	for _, persisted := range []bool{false, true} {
		cfg := func(origin string) Config {
			c := Config{Graph: g, Params: core.Params{Epsilon: 1e-6, Seed: 11}, Shards: 2, Origin: origin}
			if persisted && origin == "node-b" {
				c.Dir = t.TempDir()
			}
			return c
		}
		a := newTestService(t, n, cfg("node-a"))
		if _, err := a.Submit(3, 7, 0.25); err != nil {
			t.Fatal(err)
		}
		bcfg := cfg("node-b")
		b, err := New(bcfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		if _, err := b.ApplyReplicated(a.ReplicationEntriesSince(a.Origin(), 0, 0)); err != nil {
			t.Fatal(err)
		}
		if got := mustEpoch(t, b).Raters(7); got != 1 {
			t.Fatalf("persisted=%v: receiver folded %d raters of subject 7, want 1", persisted, got)
		}

		st, err := a.BootstrapState(b.ReplicationMarks())
		if err != nil {
			t.Fatal(err)
		}
		if err := b.InstallBootstrap(st); err != nil {
			t.Fatal(err)
		}
		if persisted {
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			if b, err = New(bcfg); err != nil {
				t.Fatal(err)
			}
		}
		va := mustEpoch(t, a)
		vb, _, err := b.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if va.Raters(7) != 1 || vb.Raters(7) != 1 {
			t.Fatalf("persisted=%v: subject 7 raters: sender %d, receiver %d, want 1 and 1", persisted, va.Raters(7), vb.Raters(7))
		}
		for j := 0; j < n; j++ {
			want, _ := va.Reputation(j)
			if got, _ := vb.Reputation(j); got != want {
				t.Fatalf("persisted=%v: subject %d: receiver serves %v, sender %v", persisted, j, got, want)
			}
		}
	}
}
