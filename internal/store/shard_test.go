package store

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
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

// TestReshardRoundTrip: Reshard moves every subject's column with its stamps,
// global value and rater count verbatim between any two layouts, stamps the conservative
// fold point (Seq = min, Epoch = max) on every new segment, and going back to
// the original shard count restores the data.
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
				// randomSegments stamps shard 0 with the lowest Seq and the
				// last shard with the highest Epoch.
				if seg.Seq != 123 || seg.Epoch != uint64(5+from-1) {
					t.Fatalf("%d→%d: segment %d at epoch %d/seq %d, want %d/123", from, to, sh, seg.Epoch, seg.Seq, 5+from-1)
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
	gh.Global, gh.Raters, gh.Cols = nil, nil, nil
	wh.Global, wh.Raters, wh.Cols = nil, nil, nil
	if !reflect.DeepEqual(gh, wh) || !reflect.DeepEqual(got.Global, want.Global) || !reflect.DeepEqual(got.Raters, want.Raters) {
		t.Fatalf("reloaded segment %+v, want %+v", got, want)
	}
	for s := range want.Cols.Subjects() {
		j, gi, gv, gs := got.Cols.ColumnAt(s)
		_, wi, wv, ws := want.Cols.ColumnAt(s)
		if !reflect.DeepEqual(gi, wi) || !reflect.DeepEqual(gv, wv) || !reflect.DeepEqual(gs, ws) {
			t.Fatalf("subject %d: reloaded column (%v, %v, %+v), want (%v, %v, %+v)", j, gi, gv, gs, wi, wv, ws)
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
	sameSegment(t, got, seg)
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

	// A segment in the older warm-payload shape is refused at every version
	// but the current one; TestShardSnapshotWarmRoundTrip covers that one.
	seg := randomSegments(t, 15, 3, 9)[1]
	for _, version := range []int{1, shardWireVersion + 1} {
		_, err := LoadShardSnapshot(bytes.NewReader(parentSegment(t, seg, version)))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d only", shardWireVersion)) {
			t.Fatalf("version %d segment with a warm payload: err %v, want a version refusal", version, err)
		}
	}
}

// TestShardSnapshotWarmRoundTrip: older builds wrote version 2 with per-slot
// campaign states, a graph fingerprint and warm/cold counts. Gob skips the
// fields this build lacks, so such a segment loads with everything else bit
// for bit; its campaign states, well-formed or corrupt, are dropped rather
// than kept for any later epoch, and saving the loaded segment again writes
// none of them.
func TestShardSnapshotWarmRoundTrip(t *testing.T) {
	seg := randomSegments(t, 15, 3, 9)[1] // subjects 1, 4, 7, 10, 13 → 5 slots
	seg.Computed, seg.TotalSteps = 5, 42
	for name, ws := range map[string]parentWarmWire{
		"sparse": {Present: true, Sparse: true, Raters: []int{2, 9}, PrevVals: []float64{0.5, 0.25},
			Y: []float64{0.4, 0.35}, G: []float64{1, 1}, Steps: 7, Converged: true},
		"dense":             {Present: true, Raters: []int{3}, PrevVals: []float64{1}, Y: make([]float64, 15), G: make([]float64, 15), Steps: 12},
		"absent":            {},
		"nan-mass":          {Present: true, Sparse: true, Raters: []int{1}, PrevVals: []float64{0.5}, Y: []float64{math.NaN()}, G: []float64{1}},
		"descending-raters": {Present: true, Sparse: true, Raters: []int{9, 2}, PrevVals: []float64{0.5, 0.5}, Y: []float64{0, 0}, G: []float64{1, 1}},
		"dense-wrong-len":   {Present: true, Raters: []int{1}, PrevVals: []float64{0.5}, Y: []float64{0.5}, G: []float64{1}},
	} {
		got, err := LoadShardSnapshot(bytes.NewReader(encodeParentSegment(t, seg, shardWireVersion, ws)))
		if err != nil {
			t.Fatalf("%s: a segment with a warm payload is refused: %v", name, err)
		}
		sameSegment(t, got, seg)

		var buf bytes.Buffer
		if err := got.Save(&buf); err != nil {
			t.Fatal(err)
		}
		var old parentShardWire
		if err := gob.NewDecoder(&buf).Decode(&old); err != nil {
			t.Fatal(err)
		}
		if old.Warm != nil || old.GraphFP != 0 || old.WarmStarts != 0 || old.ColdStarts != 0 {
			t.Fatalf("%s: re-saved segment still carries warm fields: warm %d slots, fp %#x, warm/cold %d/%d",
				name, len(old.Warm), old.GraphFP, old.WarmStarts, old.ColdStarts)
		}
		if old.Version != shardWireVersion || old.TotalSteps != 42 || old.Computed != 5 {
			t.Fatalf("%s: re-saved header drifted: %+v", name, old)
		}
	}
}

// parentShardWire is the version-2 segment shape older builds wrote:
// shardWire plus the fields they kept for warm-started campaigns.
type parentShardWire struct {
	Version          int
	Shard, Shards, N int
	Epoch, Seq       uint64
	Global           []float64
	Raters           []int
	Steps            int
	Converged        bool
	Computed         int
	TotalSteps       int
	WarmStarts       int
	ColdStarts       int
	ElapsedNs        int64
	CreatedUnixNano  int64
	GraphFP          uint64
	Cols             []byte
	Warm             []parentWarmWire
}

// parentWarmWire is one slot's campaign state in parentShardWire.
type parentWarmWire struct {
	Present   bool
	Sparse    bool
	Raters    []int
	PrevVals  []float64
	Y, G      []float64
	Steps     int
	Converged bool
}

// parentSegment encodes seg in the parentShardWire shape at the given
// version, with every warm-start field populated: a sparse state in slot 0,
// absent states elsewhere.
func parentSegment(t testing.TB, seg *ShardSnapshot, version int) []byte {
	t.Helper()
	return encodeParentSegment(t, seg, version, parentWarmWire{Present: true, Sparse: true,
		Raters: []int{2, 9}, PrevVals: []float64{0.5, 0.25}, Y: []float64{0.4, 0.35}, G: []float64{1, 1},
		Steps: 7, Converged: true})
}

// encodeParentSegment is parentSegment with slot 0's campaign state given.
func encodeParentSegment(t testing.TB, seg *ShardSnapshot, version int, slot0 parentWarmWire) []byte {
	t.Helper()
	var cb bytes.Buffer
	if err := seg.Cols.Save(&cb); err != nil {
		t.Fatal(err)
	}
	warm := make([]parentWarmWire, len(seg.Global))
	warm[0] = slot0
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(parentShardWire{
		Version: version,
		Shard:   seg.Shard, Shards: seg.Shards, N: seg.N,
		Epoch: seg.Epoch, Seq: seg.Seq,
		Global: seg.Global, Raters: seg.Raters,
		Steps: seg.Steps, Converged: seg.Converged, Computed: seg.Computed,
		TotalSteps: seg.TotalSteps, WarmStarts: 2, ColdStarts: 3,
		ElapsedNs: seg.ElapsedNs, CreatedUnixNano: seg.CreatedUnixNano,
		GraphFP: 0xfeedbeef,
		Cols:    cb.Bytes(),
		Warm:    warm,
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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
