package service

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"diffgossip/internal/store"
	"diffgossip/internal/trust"
)

// parentColumnsWire and parentSegmentWire are the segment wire as the builds
// before the flat segment format wrote it to shard-NNNN.gob: gob segment
// version 2 around gob columns version 1, with per-slot rater counts and one
// stamp per cell.
type parentColumnsWire struct {
	N        int
	Subjects []int
	Counts   []int
	I        []int
	V        []float64
	Version  int
	Origins  []string
	StampTS  []int64
	StampSeq []uint64
	StampOrg []uint32
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

// olderSegment encodes seg the way those builds wrote it: the same header,
// slots, cells and stamps.
func olderSegment(t *testing.T, seg *store.ShardSnapshot) []byte {
	t.Helper()
	cw := parentColumnsWire{N: seg.N, Version: 1, Origins: []string{""}}
	raters := make([]int, len(seg.Global))
	for s := range seg.Cols.Subjects() {
		j, ids, vals, stamps := seg.Cols.ColumnAt(s)
		raters[s] = len(ids)
		cw.Subjects, cw.Counts = append(cw.Subjects, j), append(cw.Counts, len(ids))
		cw.I, cw.V = append(cw.I, ids...), append(cw.V, vals...)
		for _, st := range stamps {
			org := slices.Index(cw.Origins, st.Origin)
			if org < 0 {
				org, cw.Origins = len(cw.Origins), append(cw.Origins, st.Origin)
			}
			cw.StampTS, cw.StampSeq, cw.StampOrg = append(cw.StampTS, st.UnixNano), append(cw.StampSeq, st.Seq), append(cw.StampOrg, uint32(org))
		}
	}
	var cb, buf bytes.Buffer
	if err := gob.NewEncoder(&cb).Encode(cw); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&buf).Encode(parentSegmentWire{
		Version: 2, Shard: seg.Shard, Shards: seg.Shards, N: seg.N, Epoch: seg.Epoch, Seq: seg.Seq,
		Global: seg.Global, Raters: raters, Steps: seg.Steps, Converged: seg.Converged, Computed: seg.Computed,
		TotalSteps: seg.TotalSteps, ElapsedNs: seg.ElapsedNs, CreatedUnixNano: seg.CreatedUnixNano, Cols: cb.Bytes(),
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestUnstampedDirRestampsOnFirstEpoch: a data directory an older build
// wrote, its segments gob shard-NNNN.gob files, boots without opening them;
// every shard's WAL re-pends, and the first epoch rebuilds stamped segments
// and serves bit-identical reputations. The straggler of
// TestLWWTagsSurviveRestart still loses there, to the winner the re-pended
// WAL brings back. Only the rebuilt shard-NNNN.seg files remain. A
// write-once ballast rating per subject keeps the WAL's dead entries below
// its live ones, so the first epoch does not compact it.
func TestUnstampedDirRestampsOnFirstEpoch(t *testing.T) {
	const n, shards = 16, 3
	dir := filepath.Join(t.TempDir(), "data")
	cfg := Config{Graph: testGraph(t, n, 7), Dir: dir, Shards: shards, Origin: "node-a"}
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
		if _, err := s.SubmitCtx(ctx, (j+8)%n, j, 0.5, 100); err != nil {
			t.Fatal(err)
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
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("shard-%04d.gob", sh)), olderSegment(t, seg), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(shardPath(dir, sh)); err != nil {
			t.Fatal(err)
		}
	}

	s, err = New(cfg)
	if err != nil {
		t.Fatalf("an older build's directory is refused: %v", err)
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
	if files, err := filepath.Glob(filepath.Join(dir, "shard-*")); err != nil || len(files) != shards || slices.ContainsFunc(files, func(f string) bool { return !strings.HasSuffix(f, ".seg") }) {
		t.Fatalf("after the upgrade epoch the directory lists segments %v (err %v), want %d .seg files", files, err, shards)
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
// older build are refused by name where the transfer decodes, so they never
// reach the receiver. The same transfer from this build installs.
func TestBootstrapRefusesUnstampedTransfer(t *testing.T) {
	const n = 30
	g := testGraph(t, n, 7)
	a := newTestService(t, n, Config{Graph: g, Shards: 3, Origin: "node-a"})
	submitChurn(t, a, 60)
	mustEpoch(t, a)
	st, err := a.BootstrapState(nil)
	if err != nil {
		t.Fatal(err)
	}
	for sh, seg := range st.Segments {
		if _, err := store.LoadShardSnapshot(bytes.NewReader(olderSegment(t, seg))); err == nil || !strings.Contains(err.Error(), "older build") {
			t.Fatalf("shard %d in the older wire: err %v, want a refusal naming the older build", sh, err)
		}
		var buf bytes.Buffer
		if err := seg.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if st.Segments[sh], err = store.LoadShardSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
	}

	b := newTestService(t, n, Config{Graph: g, Shards: 3, Origin: "node-b"})
	if _, err := b.Submit(1, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	mustEpoch(t, b)
	if err := b.InstallBootstrap(st); err != nil {
		t.Fatalf("the stamped transfer is refused: %v", err)
	}
}
