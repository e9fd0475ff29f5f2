//go:build !race

package store

import (
	"path/filepath"
	"testing"
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
