package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"diffgossip/internal/rng"
	"diffgossip/internal/trust"
)

func TestShardHelpers(t *testing.T) {
	if ShardOf(7, 1) != 0 || ShardOf(7, 3) != 1 || SlotOf(7, 3) != 2 || SlotOf(7, 1) != 7 {
		t.Fatal("shard/slot arithmetic broken")
	}
	subs := ShardSubjects(10, 2, 3) // 2, 5, 8
	if len(subs) != 3 || subs[0] != 2 || subs[1] != 5 || subs[2] != 8 {
		t.Fatalf("ShardSubjects(10,2,3) = %v", subs)
	}
	for _, j := range subs {
		if ShardOf(j, 3) != 2 || subs[SlotOf(j, 3)] != j {
			t.Fatalf("subject %d does not round-trip its shard/slot", j)
		}
	}
}

// randomSegments builds a complete S-shard layout over n nodes with random
// trust columns, every cell stamped by one of four origins (so each shard's
// origin table lists them in its own order), the exact rater-mean as each
// subject's global value, and a distinct fold point per shard.
func randomSegments(t testing.TB, n, shards int, seed uint64) []*ShardSnapshot {
	t.Helper()
	src := rng.New(seed)
	segs := make([]*ShardSnapshot, shards)
	for sh := range segs {
		seg := NewBootShardSnapshot(n, sh, shards, 424242+int64(sh))
		var cells []trust.Cell
		for _, j := range seg.Cols.Subjects() {
			for i := 0; i < n; i++ {
				if i != j && src.Bool(0.3) {
					cells = append(cells, trust.Cell{Rater: i, Subject: j, Value: src.Float64(), Stamp: trust.Stamp{
						UnixNano: int64(src.Intn(100)), Origin: []string{"", "n1", "n2", "n3"}[src.Intn(4)], Seq: uint64(1 + src.Intn(9))}})
				}
			}
		}
		var err error
		if seg.Cols, _, err = seg.Cols.With(cells); err != nil {
			t.Fatal(err)
		}
		for k, j := range seg.Cols.Subjects() {
			if sum, cnt := seg.Cols.ColumnSum(j); cnt > 0 {
				seg.Global[k] = sum / float64(cnt)
			}
		}
		seg.Epoch, seg.Seq = uint64(5+sh), uint64(123+10*sh)
		seg.Steps, seg.ElapsedNs = 17+sh, 999
		segs[sh] = seg
	}
	return segs
}

// TestReshardRoundTrip: Reshard moves every subject's column with its stamps
// and global value verbatim between any two layouts, stamps each new segment
// with the minimum Seq of the old segments its subjects come from and the
// maximum Epoch of all of them, and going back to
// the original shard count restores the data. At the same count it returns
// copies that keep their own fold points and share the segments' globals and
// columns.
// TestReshardFoldPointPerOldShard: a regrouped segment's fold point is the
// minimum over the old segments that contribute subjects to it, not over all
// of them — so 2 → 4 keeps each old shard's fold point exactly, and 4 → 2
// takes the lower of the two old shards each new one draws from.
func TestReshardFoldPointPerOldShard(t *testing.T) {
	const n = 16
	for _, tc := range []struct {
		seqs []uint64
		to   int
		want []uint64
	}{
		{[]uint64{2, 0}, 4, []uint64{2, 0, 2, 0}},
		{[]uint64{5, 1, 3, 7}, 2, []uint64{3, 1}},
	} {
		segs := make([]*ShardSnapshot, len(tc.seqs))
		for sh, seq := range tc.seqs {
			segs[sh] = NewBootShardSnapshot(n, sh, len(segs), 0)
			segs[sh].Seq = seq
		}
		out, err := Reshard(segs, tc.to)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]uint64, len(out))
		for sh, seg := range out {
			got[sh] = seg.Seq
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("fold points %v regrouped %d → %d: %v, want %v", tc.seqs, len(tc.seqs), tc.to, got, tc.want)
		}
	}
}

func TestReshardRoundTrip(t *testing.T) {
	const n = 23
	sameData := func(t *testing.T, got, want []*ShardSnapshot) {
		t.Helper()
		for j := 0; j < n; j++ {
			g, w := got[ShardOf(j, len(got))], want[ShardOf(j, len(want))]
			gr, _ := g.Reputation(j)
			wr, _ := w.Reputation(j)
			if gr != wr || g.RaterCount(j) != w.RaterCount(j) {
				t.Fatalf("subject %d: (%v, %d raters), want (%v, %d)", j, gr, g.RaterCount(j), wr, w.RaterCount(j))
			}
			_, gi, gv, gs := g.Cols.ColumnAt(SlotOf(j, len(got)))
			_, wi, wv, ws := w.Cols.ColumnAt(SlotOf(j, len(want)))
			if len(gi) != len(wi) {
				t.Fatalf("subject %d: %d column entries, want %d", j, len(gi), len(wi))
			}
			for k := range wi {
				if gi[k] != wi[k] || gv[k] != wv[k] || gs[k] != ws[k] {
					t.Fatalf("subject %d entry %d: (%d,%v,%+v), want (%d,%v,%+v)", j, k, gi[k], gv[k], gs[k], wi[k], wv[k], ws[k])
				}
			}
		}
	}
	for _, from := range []int{1, 3, 4, 7} {
		segs := randomSegments(t, n, from, 9)
		for _, to := range []int{1, 3, 4, 7} {
			out, err := Reshard(segs, to)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != to {
				t.Fatalf("%d→%d: %d segments", from, to, len(out))
			}
			for sh, seg := range out {
				if seg.Shard != sh || seg.Shards != to || seg.N != n {
					t.Fatalf("%d→%d: segment %d claims shard %d/%d over N=%d", from, to, sh, seg.Shard, seg.Shards, seg.N)
				}
				if from == to {
					if seg == segs[sh] || seg.Epoch != segs[sh].Epoch || seg.Seq != segs[sh].Seq || seg.Cols != segs[sh].Cols || &seg.Global[0] != &segs[sh].Global[0] {
						t.Fatalf("%d→%d: segment %d is not a shallow copy", from, to, sh)
					}
					continue
				}
				// randomSegments stamps old shard k with Seq 123+10k and
				// the last shard with the highest Epoch.
				wantSeq := ^uint64(0)
				for _, j := range ShardSubjects(n, sh, to) {
					wantSeq = min(wantSeq, segs[ShardOf(j, from)].Seq)
				}
				if seg.Seq != wantSeq || seg.Epoch != uint64(5+from-1) {
					t.Fatalf("%d→%d: segment %d at epoch %d/seq %d, want %d/%d", from, to, sh, seg.Epoch, seg.Seq, 5+from-1, wantSeq)
				}
			}
			sameData(t, out, segs)
			back, err := Reshard(out, from)
			if err != nil {
				t.Fatal(err)
			}
			sameData(t, back, segs)
		}
	}

	// Layouts that are not one complete set of segments are refused.
	segs := randomSegments(t, n, 3, 9)
	if _, err := Reshard(nil, 2); err == nil {
		t.Error("empty layout accepted")
	}
	if _, err := Reshard(segs[:2], 2); err == nil {
		t.Error("incomplete layout accepted")
	}
	if _, err := Reshard([]*ShardSnapshot{segs[0], nil, segs[2]}, 2); err == nil {
		t.Error("layout with a missing segment accepted")
	}
	if _, err := Reshard([]*ShardSnapshot{segs[0], segs[2], segs[1]}, 2); err == nil {
		t.Error("out-of-order layout accepted")
	}
	for _, to := range []int{0, n + 1} {
		if _, err := Reshard(segs, to); err == nil {
			t.Errorf("reshard into %d shards accepted", to)
		}
	}
}

// sameSegment fails unless got holds want's header, slots and trust columns,
// stamps included, bit for bit.
func sameSegment(t *testing.T, got, want *ShardSnapshot) {
	t.Helper()
	gh, wh := *got, *want
	gh.Global, gh.Cols = nil, nil
	wh.Global, wh.Cols = nil, nil
	if !reflect.DeepEqual(gh, wh) || !reflect.DeepEqual(got.Global, want.Global) {
		t.Fatalf("reloaded segment %+v, want %+v", got, want)
	}
	for s := range want.Cols.Subjects() {
		j, gi, gv, gs := got.Cols.ColumnAt(s)
		_, wi, wv, ws := want.Cols.ColumnAt(s)
		if !slices.Equal(gi, wi) || !slices.Equal(gv, wv) || !slices.Equal(gs, ws) {
			t.Fatalf("subject %d: reloaded column (%v, %v, %+v), want (%v, %v, %+v)", j, gi, gv, gs, wi, wv, ws)
		}
	}
}

// saveBytes returns seg's encoding.
func saveBytes(t testing.TB, seg *ShardSnapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := seg.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardSnapshotFileRoundTrip pins the segment wire format: every segment
// shape here — empty boot segments, stamped and unstamped cells, a resharded
// layout — reloads bit for bit and re-saves byte for byte.
func TestShardSnapshotFileRoundTrip(t *testing.T) {
	seg := randomSegments(t, 15, 4, 4)[2]
	seg.Computed = 3
	dir := t.TempDir()
	path := filepath.Join(dir, "shard-0002.seg")
	if err := seg.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// Atomic publication leaves no temp litter behind.
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("directory has %d entries (err %v), want just the segment", len(entries), err)
	}
	got, err := LoadShardFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sameSegment(t, got, seg)

	unstamped := NewBootShardSnapshot(11, 0, 2, 7)
	if unstamped.Cols, _, err = unstamped.Cols.With([]trust.Cell{{Rater: 3, Subject: 2, Value: 0.5}, {Rater: 9, Subject: 10, Value: 1}}); err != nil {
		t.Fatal(err)
	}
	resharded, err := Reshard(randomSegments(t, 23, 3, 9), 5)
	if err != nil {
		t.Fatal(err)
	}
	shapes := append([]*ShardSnapshot{seg, NewBootShardSnapshot(1, 0, 1, 0), NewBootShardSnapshot(5, 4, 7, 1), unstamped}, resharded...)
	for k, want := range shapes {
		b := saveBytes(t, want)
		got, err := LoadShardSnapshot(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("shape %d: %v", k, err)
		}
		sameSegment(t, got, want)
		if !bytes.Equal(saveBytes(t, got), b) {
			t.Fatalf("shape %d: load→save is not byte-identical", k)
		}
	}
	// Missing files are a clean nil.
	if s, err := LoadShardFile(filepath.Join(t.TempDir(), "nope.seg")); s != nil || err != nil {
		t.Fatalf("missing segment = (%v, %v)", s, err)
	}
	// Corrupt payloads fail loudly.
	if _, err := LoadShardSnapshot(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("garbage segment accepted")
	}
}

// TestLoadShardRefusesOtherWireVersions: exactly one segment format is read.
// A segment of any other version is an error naming the file and the
// supported version, never a best-effort decode; an older build's gob
// segment is refused as one.
func TestLoadShardRefusesOtherWireVersions(t *testing.T) {
	good := saveBytes(t, randomSegments(t, 15, 3, 9)[1])
	for _, version := range []uint32{0, 1, 2, segVersion + 1} {
		b := slices.Clone(good)
		binary.LittleEndian.PutUint32(b[len(segMagic):], version)
		path := filepath.Join(t.TempDir(), "shard-0000.seg")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadShardFile(path)
		if err == nil {
			t.Fatalf("version %d segment accepted", version)
		}
		if msg := err.Error(); !strings.Contains(msg, "shard-0000.seg") || !strings.Contains(msg, fmt.Sprintf("version %d only", segVersion)) {
			t.Fatalf("version %d refusal does not name the file and the supported version: %v", version, err)
		}
	}
	if _, err := LoadShardSnapshot(bytes.NewReader(good)); err != nil {
		t.Fatalf("the same segment at the current version is refused: %v", err)
	}

	// A segment an older build wrote (gob, testdata/shard-0001.gob).
	path := filepath.Join("testdata", "shard-0001.gob")
	if _, err := LoadShardFile(path); err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "older build") {
		t.Fatalf("older build's segment: err %v, want a refusal naming the file and the older build", err)
	}
}

// TestShardSnapshotRefusesEveryFlippedByte: flipping any one byte of a
// segment makes it unreadable — the magic and version bytes by their own
// checks, every other byte by the CRC-32C trailer.
func TestShardSnapshotRefusesEveryFlippedByte(t *testing.T) {
	seg := NewBootShardSnapshot(9, 1, 3, 1)
	var err error
	if seg.Cols, _, err = seg.Cols.With([]trust.Cell{{Rater: 1, Subject: 4, Value: 0.5, Stamp: trust.Stamp{UnixNano: 5, Origin: "a", Seq: 1}}}); err != nil {
		t.Fatal(err)
	}
	seg.Global[1] = 0.5
	good := saveBytes(t, seg)
	for k := range good {
		b := slices.Clone(good)
		b[k] ^= 0xff
		_, err := LoadShardSnapshot(bytes.NewReader(b))
		if err == nil {
			t.Fatalf("byte %d of %d flipped: accepted", k, len(good))
		}
		if k >= len(segMagic)+4 && !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("byte %d of %d flipped: refused by %v, not the checksum", k, len(good), err)
		}
	}
}

// TestLoadShardRefusesNonFiniteReputation: a segment whose Global holds NaN
// or ±Inf is refused. The engine never publishes one, and the read path
// could not encode one as JSON.
func TestLoadShardRefusesNonFiniteReputation(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		seg := randomSegments(t, 15, 3, 9)[1]
		seg.Global[2] = v
		if _, err := LoadShardSnapshot(bytes.NewReader(saveBytes(t, seg))); err == nil || !strings.Contains(err.Error(), "slot 2") {
			t.Fatalf("Global %v: err %v, want a refusal naming slot 2", v, err)
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	if m, err := LoadManifestFile(path); m != nil || err != nil {
		t.Fatalf("missing manifest = (%v, %v)", m, err)
	}
	if err := SaveManifestFile(Manifest{N: 100, Shards: 8, CreatedUnixNano: 5}, path); err != nil {
		t.Fatal(err)
	}
	m, err := LoadManifestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.N != 100 || m.Shards != 8 || m.Version != manifestVersion {
		t.Fatalf("manifest %+v", m)
	}
}

// TestLedgerShardTracking: per-shard dirty accounting across append, take
// and restore, with lock-free counters.
func TestLedgerShardTracking(t *testing.T) {
	l := NewLedger(10)
	if err := l.SetShards(3); err != nil {
		t.Fatal(err)
	}
	if l.DirtyCount() != 0 || l.PendingCount() != 0 {
		t.Fatal("fresh ledger not clean")
	}
	// Subjects 0 (shard 0) and 4 (shard 1).
	if _, err := l.Append(1, 0, 0.5, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(2, 4, 0.6, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(3, 0, 0.7, 0); err != nil {
		t.Fatal(err)
	}
	if l.DirtyCount() != 2 || !l.ShardDirty(0) || !l.ShardDirty(1) || l.ShardDirty(2) {
		t.Fatalf("dirty set wrong: count=%d", l.DirtyCount())
	}
	if l.PendingCount() != 3 {
		t.Fatalf("pending %d", l.PendingCount())
	}
	batch := l.TakePending()
	if len(batch) != 3 || batch[0].Shard != 0 || batch[1].Shard != 1 || batch[2].Shard != 0 {
		t.Fatalf("batch shards: %+v", batch)
	}
	if l.DirtyCount() != 0 || l.PendingCount() != 0 || l.ShardDirty(0) {
		t.Fatal("take did not clear the dirty set")
	}
	// Restore re-marks.
	l.Restore(batch)
	if l.DirtyCount() != 2 || l.PendingCount() != 3 {
		t.Fatalf("restore: dirty=%d pending=%d", l.DirtyCount(), l.PendingCount())
	}
	// SetShards recomputes from pending.
	if err := l.SetShards(10); err != nil {
		t.Fatal(err)
	}
	if l.DirtyCount() != 2 || !l.ShardDirty(0) || !l.ShardDirty(4) {
		t.Fatalf("reshard recompute: dirty=%d", l.DirtyCount())
	}
	if err := l.SetShards(0); err == nil {
		t.Fatal("shard count 0 accepted")
	}
}
