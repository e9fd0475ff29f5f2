//go:build !race

package store

import (
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"diffgossip/internal/rng"
	"diffgossip/internal/trust"
)

// The write path's mechanism as counts (the race detector changes what
// allocates, so the file is built without it). Before the codec a WAL-backed
// Append allocated twice (json.Marshal's result and its boxed argument) and a
// 1,024-entry AppendBatch more than 2,000 times.

// TestLedgerAppendWALZeroAllocs: a steady-state Append on a file-backed
// ledger encodes its line into the ledger's buffer and allocates nothing.
func TestLedgerAppendWALZeroAllocs(t *testing.T) {
	l, _, err := OpenLedger(filepath.Join(t.TempDir(), "ledger.jsonl"), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Pre-grow the pending window so its amortised doubling stays out of the
	// measured calls.
	l.pending = make([]Feedback, 0, 4096)
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := l.Append(3, 4, 0.7342, 1_700_000_000_000_000_000); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("WAL-backed Append allocates %.1f times per call, want 0", avg)
	}
}

// TestLedgerAppendBatchWALAllocs: a 1,024-entry batch on a file-backed ledger
// allocates at most twice beyond the pending window's own growth (taken, and
// so re-grown once, per run).
func TestLedgerAppendBatchWALAllocs(t *testing.T) {
	const n, size = 64, 1024
	l, _, err := OpenLedger(filepath.Join(t.TempDir(), "ledger.jsonl"), n)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	batch := make([]Feedback, size)
	for k := range batch {
		batch[k] = Feedback{Rater: k % n, Subject: (k + 1) % n, Value: float64(k) / size, UnixNano: int64(k + 1)}
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, _, err := l.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		l.TakePending()
	})
	t.Logf("%.0f allocations per %d-entry batch", avg, size)
	if avg > 1+2 {
		t.Fatalf("WAL-backed AppendBatch of %d entries allocates %.1f times per call, want at most 3", size, avg)
	}
}

// TestPendingWindowGrowthBytes: filling the pending window with one
// http-ingest segment's batches (240 AppendBatch calls of 1,024 entries)
// allocates at most 2.5× the window's bytes, and once TakePending hands the
// window out the ledger keeps no backing of its own. append's 1.25× steps
// copied, and zeroed, the 17.7 MB window 5.13 times over.
func TestPendingWindowGrowthBytes(t *testing.T) {
	const n, size, batches = 1000, 1024, 240
	l := NewLedger(n)
	batch := make([]Feedback, size)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b := 0; b < batches; b++ {
		for k := range batch {
			batch[k] = Feedback{Rater: k % n, Subject: (k + b) % n, Value: 0.5, UnixNano: int64(b + 1)}
		}
		if _, _, err := l.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	window := float64(batches*size) * float64(unsafe.Sizeof(Feedback{}))
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / window
	t.Logf("%.1f MB window, %.2f× its bytes allocated", window/1e6, ratio)
	if ratio > 2.5 {
		t.Fatalf("filling a %.1f MB pending window allocated %.2f× its bytes, want at most 2.5×", window/1e6, ratio)
	}
	if out := l.TakePending(); len(out) != batches*size || l.pending != nil {
		t.Fatalf("TakePending handed out %d entries and left a backing of %d", len(out), cap(l.pending))
	}
}

// TestShardSnapshotDecodeAllocs pins the allocations of one segment decode at
// the benchmark's shape (N = 2,500, 20 shards, 48 stamped raters per
// subject): a fixed 13 — the snapshot, its Global slots, the columns and
// their subject list, offsets, origin table, stamp index, flat raters and
// values, per-slot rater and value views, and the row index's two arrays —
// plus one per non-empty origin and one per slot holding a stamp. A boot
// segment's three cell-sized arrays are empty and allocate nothing. Each
// stamped slot owning its stamps is what lets With free a rewritten slot's
// old ones; a single shared backing would keep them all alive.
func TestShardSnapshotDecodeAllocs(t *testing.T) {
	const n, shards, per = 2500, 20, 48
	origins := []string{"node-a", "node-b"}
	seg := NewBootShardSnapshot(n, 3, shards, 1)
	src := rng.New(11)
	var cells []trust.Cell
	for _, j := range seg.Cols.Subjects() {
		for _, i := range src.Sample(n, per) {
			cells = append(cells, trust.Cell{Rater: i, Subject: j, Value: src.Float64(),
				Stamp: trust.Stamp{UnixNano: int64(1 + src.Intn(1000)), Origin: origins[src.Intn(2)], Seq: uint64(1 + src.Intn(50))}})
		}
	}
	var err error
	if seg.Cols, _, err = seg.Cols.With(cells); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		seg  *ShardSnapshot
		want float64
	}{
		{NewBootShardSnapshot(n, 3, shards, 1), 10},
		{seg, 13 + float64(len(origins)+len(seg.Global))},
	} {
		b := saveBytes(t, tc.seg)
		if got := testing.AllocsPerRun(20, func() {
			if _, err := decodeShardSnapshot(b); err != nil {
				t.Fatal(err)
			}
		}); got != tc.want {
			t.Fatalf("decoding a %d-cell segment allocates %v times, want %v", tc.seg.Cols.NumEntries(), got, tc.want)
		}
		t.Logf("%d cells: %d bytes, %v allocations", tc.seg.Cols.NumEntries(), len(b), tc.want)
	}
}
