package store

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"diffgossip/internal/gossip"
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
// trust columns, the exact rater-mean as each subject's global value, and a
// distinct fold point per shard.
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
					cells = append(cells, trust.Cell{Rater: i, Subject: j, Value: src.Float64()})
				}
			}
		}
		var err error
		if seg.Cols, err = seg.Cols.With(cells); err != nil {
			t.Fatal(err)
		}
		for k, j := range seg.Cols.Subjects() {
			sum, cnt := seg.Cols.ColumnSum(j)
			seg.Raters[k] = cnt
			if cnt > 0 {
				seg.Global[k] = sum / float64(cnt)
			}
		}
		seg.Epoch, seg.Seq = uint64(5+sh), uint64(123+10*sh)
		seg.Steps, seg.ElapsedNs = 17+sh, 999
		segs[sh] = seg
	}
	return segs
}

// TestReshardRoundTrip: Reshard moves every subject's column, global value
// and rater count verbatim between any two layouts, stamps the conservative
// fold point (Seq = min, Epoch = max) on every new segment, drops warm
// state, and going back to the original shard count restores the data.
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
			gi, gv := g.Cols.Column(j)
			wi, wv := w.Cols.Column(j)
			if len(gi) != len(wi) {
				t.Fatalf("subject %d: %d column entries, want %d", j, len(gi), len(wi))
			}
			for k := range wi {
				if gi[k] != wi[k] || gv[k] != wv[k] {
					t.Fatalf("subject %d entry %d: (%d,%v), want (%d,%v)", j, k, gi[k], gv[k], wi[k], wv[k])
				}
			}
		}
	}
	for _, from := range []int{1, 3, 4, 7} {
		segs := randomSegments(t, n, from, 9)
		segs[0].Warm = make([]*gossip.CampaignState, len(segs[0].Global))
		segs[0].GraphFP = 0xfeedbeef
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
				// randomSegments stamps shard 0 with the lowest Seq and the
				// last shard with the highest Epoch.
				if seg.Seq != 123 || seg.Epoch != uint64(5+from-1) {
					t.Fatalf("%d→%d: segment %d at epoch %d/seq %d, want %d/123", from, to, sh, seg.Epoch, seg.Seq, 5+from-1)
				}
				if seg.Warm != nil || seg.GraphFP != 0 {
					t.Fatalf("%d→%d: segment %d carried warm state across the reshard", from, to, sh)
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

// TestShardSnapshotFileRoundTrip pins the segment wire format.
func TestShardSnapshotFileRoundTrip(t *testing.T) {
	seg := randomSegments(t, 15, 4, 4)[2]
	seg.Computed = 3
	dir := t.TempDir()
	path := filepath.Join(dir, "shard-0002.gob")
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
	if got.Shard != 2 || got.Shards != 4 || got.N != 15 || got.Epoch != seg.Epoch || got.Seq != seg.Seq || got.Computed != 3 {
		t.Fatalf("reloaded header %+v", got)
	}
	for _, j := range got.Cols.Subjects() {
		a, _ := seg.Reputation(j)
		b, _ := got.Reputation(j)
		if a != b {
			t.Fatalf("subject %d: reloaded %v != %v", j, b, a)
		}
		sumA, cntA := seg.Cols.ColumnSum(j)
		sumB, cntB := got.Cols.ColumnSum(j)
		if sumA != sumB || cntA != cntB {
			t.Fatalf("subject %d: reloaded columns differ", j)
		}
	}
	// Missing files are a clean nil.
	if s, err := LoadShardFile(filepath.Join(t.TempDir(), "nope.gob")); s != nil || err != nil {
		t.Fatalf("missing segment = (%v, %v)", s, err)
	}
	// Corrupt payloads fail loudly.
	if _, err := LoadShardSnapshot(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("garbage segment accepted")
	}
}

// TestLoadShardRefusesOtherWireVersions: exactly one segment format is read.
// A segment of any other version — the pre-warm v1 included — is an error
// naming the file and the supported version, never a best-effort decode.
func TestLoadShardRefusesOtherWireVersions(t *testing.T) {
	// Everything but the version is a well-formed empty 1-shard segment.
	var cb bytes.Buffer
	if err := NewBootShardSnapshot(3, 0, 1, 0).Cols.Save(&cb); err != nil {
		t.Fatal(err)
	}
	for _, version := range []int{0, 1, shardWireVersion + 1} {
		wire := shardWire{Version: version, Shards: 1, N: 3, Global: make([]float64, 3), Raters: make([]int, 3), Cols: cb.Bytes()}
		path := filepath.Join(t.TempDir(), "shard-0000.gob")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := gob.NewEncoder(f).Encode(wire); err != nil {
			t.Fatal(err)
		}
		f.Close()
		_, err = LoadShardFile(path)
		if err == nil {
			t.Fatalf("version %d segment accepted", version)
		}
		if msg := err.Error(); !strings.Contains(msg, "shard-0000.gob") || !strings.Contains(msg, fmt.Sprintf("version %d only", shardWireVersion)) {
			t.Fatalf("version %d refusal does not name the file and the supported version: %v", version, err)
		}
		wire.Version = shardWireVersion
		var ok bytes.Buffer
		if err := gob.NewEncoder(&ok).Encode(wire); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadShardSnapshot(&ok); err != nil {
			t.Fatalf("the same segment at the current version is refused: %v", err)
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

// TestShardSnapshotWarmRoundTrip: wire v2 carries the per-slot campaign
// states (sparse, dense, and absent alike) through save/load bit for bit,
// and rejects corrupt warm payloads instead of seeding next epoch's
// campaigns with them.
func TestShardSnapshotWarmRoundTrip(t *testing.T) {
	seg := randomSegments(t, 15, 3, 9)[1] // subjects 1, 4, 7, 10, 13 → 5 slots
	seg.GraphFP = 0xfeedbeef
	seg.TotalSteps = 42
	seg.WarmStarts = 2
	seg.ColdStarts = 3
	seg.Warm = []*gossip.CampaignState{
		{Sparse: true, Raters: []int{2, 9}, PrevVals: []float64{0.5, 0.25},
			Y: []float64{0.4, 0.35}, G: []float64{1, 1}, Steps: 7},
		nil,
		{Sparse: false, Raters: []int{3}, PrevVals: []float64{1},
			Y: make([]float64, 15), G: make([]float64, 15), Steps: 12},
		nil,
		nil,
	}
	seg.Warm[2].Y[3] = 1
	seg.Warm[2].G[3] = 1

	var buf bytes.Buffer
	if err := seg.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadShardSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.GraphFP != seg.GraphFP || got.TotalSteps != 42 || got.WarmStarts != 2 || got.ColdStarts != 3 {
		t.Fatalf("reloaded header %+v", got)
	}
	if len(got.Warm) != 5 || got.Warm[1] != nil || got.Warm[3] != nil || got.Warm[4] != nil {
		t.Fatalf("reloaded warm layout wrong: %+v", got.Warm)
	}
	for _, k := range []int{0, 2} {
		a, b := seg.Warm[k], got.Warm[k]
		if b == nil || b.Sparse != a.Sparse || b.Steps != a.Steps {
			t.Fatalf("slot %d header drifted: %+v vs %+v", k, a, b)
		}
		for x := range a.Raters {
			if b.Raters[x] != a.Raters[x] || b.PrevVals[x] != a.PrevVals[x] {
				t.Fatalf("slot %d rater %d drifted", k, x)
			}
		}
		for x := range a.Y {
			if b.Y[x] != a.Y[x] || b.G[x] != a.G[x] {
				t.Fatalf("slot %d mass %d drifted", k, x)
			}
		}
	}

	// Segments without warm state still round-trip to nil.
	seg.Warm = nil
	buf.Reset()
	if err := seg.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadShardSnapshot(bytes.NewReader(buf.Bytes())); err != nil || got.Warm != nil {
		t.Fatalf("no-warm round trip = (%v, %v)", got, err)
	}

	// Corrupt warm payloads must be refused: NaN mass, descending raters,
	// mismatched shapes.
	for name, ws := range map[string]*gossip.CampaignState{
		"nan-mass":          {Sparse: true, Raters: []int{1}, PrevVals: []float64{0.5}, Y: []float64{math.NaN()}, G: []float64{1}},
		"negative-weight":   {Sparse: true, Raters: []int{1}, PrevVals: []float64{0.5}, Y: []float64{0.5}, G: []float64{-1}},
		"descending-raters": {Sparse: true, Raters: []int{9, 2}, PrevVals: []float64{0.5, 0.5}, Y: []float64{0, 0}, G: []float64{1, 1}},
		"bad-prev-val":      {Sparse: true, Raters: []int{1}, PrevVals: []float64{1.5}, Y: []float64{0.5}, G: []float64{1}},
		"dense-wrong-len":   {Sparse: false, Raters: []int{1}, PrevVals: []float64{0.5}, Y: []float64{0.5}, G: []float64{1}},
	} {
		seg.Warm = []*gossip.CampaignState{ws, nil, nil, nil, nil}
		buf.Reset()
		if err := seg.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadShardSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
			t.Fatalf("%s: corrupt warm payload accepted", name)
		}
	}
}
