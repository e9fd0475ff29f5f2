package service

import (
	"bytes"
	"context"
	"encoding/gob"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"diffgossip/internal/store"
	"diffgossip/internal/trust"
)

// parentColumnsWire and parentSegmentWire are the segment wire as builds
// before stamped cells wrote it: segment version 2 around columns version 1,
// with no origin table and no stamps.
type parentColumnsWire struct {
	N        int
	Subjects []int
	Counts   []int
	I        []int
	V        []float64
	Version  int
}

type parentSegmentWire struct {
	Version          int
	Shard, Shards, N int
	Epoch, Seq       uint64
	Global           []float64
	Raters           []int
	Steps            int
	Converged        bool
	Computed         int
	TotalSteps       int
	ElapsedNs        int64
	CreatedUnixNano  int64
	Cols             []byte
}

// unstampedSegment encodes seg the way those builds wrote it: the same
// header, slots and cells, no stamps.
func unstampedSegment(t *testing.T, seg *store.ShardSnapshot) []byte {
	t.Helper()
	cw := parentColumnsWire{N: seg.N, Version: 1}
	for s := range seg.Cols.Subjects() {
		j, ids, vals, _ := seg.Cols.ColumnAt(s)
		cw.Subjects, cw.Counts = append(cw.Subjects, j), append(cw.Counts, len(ids))
		cw.I, cw.V = append(cw.I, ids...), append(cw.V, vals...)
	}
	var cb, buf bytes.Buffer
	if err := gob.NewEncoder(&cb).Encode(cw); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&buf).Encode(parentSegmentWire{
		Version: 2, Shard: seg.Shard, Shards: seg.Shards, N: seg.N, Epoch: seg.Epoch, Seq: seg.Seq,
		Global: seg.Global, Raters: seg.Raters, Steps: seg.Steps, Converged: seg.Converged, Computed: seg.Computed,
		TotalSteps: seg.TotalSteps, ElapsedNs: seg.ElapsedNs, CreatedUnixNano: seg.CreatedUnixNano, Cols: cb.Bytes(),
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestUnstampedDirRestampsOnFirstEpoch: a data directory whose segments an
// older build wrote, cells without stamps, boots; every shard's WAL re-pends,
// and the first epoch re-stamps the cells and serves bit-identical
// reputations. The straggler of TestLWWTagsSurviveRestart still loses there,
// to the winner the re-pended WAL brings back.
func TestUnstampedDirRestampsOnFirstEpoch(t *testing.T) {
	const n, shards = 16, 3
	dir := filepath.Join(t.TempDir(), "data")
	cfg := Config{Graph: testGraph(t, n, 7), Dir: dir, Shards: shards, Replicate: true, Origin: "node-a"}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for j := 0; j < n; j++ {
		for k, ts := range []int64{300, 200, 400} { // the 400 write wins each cell
			if _, err := s.SubmitCtx(ctx, (j+1+j%3)%n, j, 0.1+0.2*float64(k), ts+int64(j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := s.SubmitCtx(ctx, 4, 6, 0.8, 900); err != nil {
		t.Fatal(err)
	}
	mustEpoch(t, s)
	want := make([]float64, n)
	for j := range want {
		want[j], _, _ = s.Reputation(j)
	}
	entries := s.LedgerSeq()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for sh := 0; sh < shards; sh++ {
		seg, err := store.LoadShardFile(shardPath(dir, sh))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(shardPath(dir, sh), unstampedSegment(t, seg), 0o644); err != nil {
			t.Fatal(err)
		}
		if old, err := store.LoadShardFile(shardPath(dir, sh)); err != nil || !old.Cols.Unstamped() {
			t.Fatalf("shard %d rewritten in the older wire still has stamps (err %v)", sh, err)
		}
	}

	s, err = New(cfg)
	if err != nil {
		t.Fatalf("a directory of unstamped segments is refused: %v", err)
	}
	defer s.Close()
	if got := s.Pending(); uint64(got) != entries {
		t.Fatalf("%d of %d WAL entries re-pended", got, entries)
	}
	if _, err := s.ApplyReplicated([]store.Feedback{{Origin: "node-b", OriginSeq: 1, Rater: 4, Subject: 6, Value: 0.2, UnixNano: 100}}); err != nil {
		t.Fatal(err)
	}
	mustEpoch(t, s)
	for j := range want {
		if got, _, _ := s.Reputation(j); got != want[j] {
			t.Fatalf("subject %d after the upgrade epoch: %v, want %v", j, got, want[j])
		}
	}
	for sh := 0; sh < shards; sh++ {
		seg, err := store.LoadShardFile(shardPath(dir, sh))
		if err != nil {
			t.Fatal(err)
		}
		for k := range seg.Cols.Subjects() {
			if j, _, _, stamps := seg.Cols.ColumnAt(k); slices.Contains(stamps, trust.Stamp{}) {
				t.Fatalf("shard %d after the upgrade epoch: subject %d has a cell without a stamp", sh, j)
			}
		}
	}
}

// TestBootstrapRefusesUnstampedTransfer: segments from a sender running an
// older build carry cells without stamps, which would lose to any write
// however old; the install is refused by name and the receiver is left as it
// was. The same transfer with its stamps installs.
func TestBootstrapRefusesUnstampedTransfer(t *testing.T) {
	const n = 30
	g := testGraph(t, n, 7)
	a := newTestService(t, n, Config{Graph: g, Shards: 3, Replicate: true, Origin: "node-a"})
	submitChurn(t, a, 60)
	mustEpoch(t, a)
	st, err := a.BootstrapState(nil)
	if err != nil {
		t.Fatal(err)
	}
	old := *st
	old.Segments = make([]*store.ShardSnapshot, len(st.Segments))
	for sh, seg := range st.Segments {
		if old.Segments[sh], err = store.LoadShardSnapshot(bytes.NewReader(unstampedSegment(t, seg))); err != nil {
			t.Fatal(err)
		}
	}

	b := newTestService(t, n, Config{Graph: g, Shards: 3, Replicate: true, Origin: "node-b"})
	if _, err := b.Submit(1, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	mustEpoch(t, b)
	if _, err := b.Submit(3, 4, 0.25); err != nil {
		t.Fatal(err)
	}
	before := b.View()
	marks, seq := b.ReplicationMarks(), b.LedgerSeq()
	err = b.InstallBootstrap(&old)
	if err == nil || !strings.Contains(err.Error(), "older build") {
		t.Fatalf("unstamped transfer: err %v, want a refusal naming the older build", err)
	}
	after := b.View()
	for sh := range before.segs {
		if after.segs[sh] != before.segs[sh] {
			t.Fatalf("refused install republished shard %d", sh)
		}
	}
	if b.LedgerSeq() != seq || b.Pending() != 1 || b.Epochs() != 1 || !maps.Equal(b.ReplicationMarks(), marks) {
		t.Fatalf("refused install moved the receiver: seq %d→%d, pending %d, epochs %d, marks %v→%v",
			seq, b.LedgerSeq(), b.Pending(), b.Epochs(), marks, b.ReplicationMarks())
	}
	if err := b.InstallBootstrap(st); err != nil {
		t.Fatalf("the stamped transfer is refused: %v", err)
	}
}
