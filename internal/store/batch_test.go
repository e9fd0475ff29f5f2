package store

import (
	"bufio"
	"errors"
	"path/filepath"
	"testing"
)

func TestLedgerAppendBatch(t *testing.T) {
	l := NewLedger(8)
	first, last, err := l.AppendBatch([]Feedback{
		{Rater: 1, Subject: 2, Value: 0.9, UnixNano: 100},
		{Rater: 3, Subject: 2, Value: 0.4, UnixNano: 200},
		{Rater: 1, Subject: 5, Value: 0.7, UnixNano: 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 || last != 3 {
		t.Fatalf("batch seqs [%d,%d], want [1,3]", first, last)
	}
	if l.Seq() != 3 || l.PendingCount() != 3 {
		t.Fatalf("Seq=%d PendingCount=%d, want 3/3", l.Seq(), l.PendingCount())
	}
	pending := l.TakePending()
	for i, fb := range pending {
		if fb.Seq != uint64(i+1) {
			t.Fatalf("pending[%d].Seq = %d, want contiguous from 1", i, fb.Seq)
		}
		if fb.Shard != ShardOf(fb.Subject, 1) {
			t.Fatalf("pending[%d].Shard = %d, want %d", i, fb.Shard, ShardOf(fb.Subject, 1))
		}
	}
	// Sequence space is shared with single appends: the next Append
	// continues after the batch.
	seq, err := l.Append(0, 1, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 4 {
		t.Fatalf("post-batch Append seq = %d, want 4", seq)
	}
}

func TestLedgerAppendBatchAllOrNothing(t *testing.T) {
	l := NewLedger(4)
	cases := map[string][]Feedback{
		"empty":        {},
		"bad value":    {{Rater: 1, Subject: 2, Value: 0.5}, {Rater: 2, Subject: 3, Value: 1.5}},
		"bad subject":  {{Rater: 1, Subject: 9, Value: 0.5}},
		"origin tags":  {{Rater: 1, Subject: 2, Value: 0.5, Origin: "peer", OriginSeq: 7}},
		"negative idx": {{Rater: -1, Subject: 2, Value: 0.5}},
	}
	for name, batch := range cases {
		if _, _, err := l.AppendBatch(batch); err == nil {
			t.Errorf("%s batch accepted", name)
		}
	}
	if l.Seq() != 0 || l.PendingCount() != 0 {
		t.Fatalf("rejected batches moved state: seq=%d pending=%d", l.Seq(), l.PendingCount())
	}
	// The empty batch rejection is a validation error, same family as a bad
	// rating — callers map both to 400.
	if _, _, err := l.AppendBatch(nil); !errors.Is(err, ErrInvalidFeedback) {
		t.Fatalf("empty batch error = %v, want ErrInvalidFeedback", err)
	}
}

func TestLedgerAppendBatchPersistReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l, _, err := OpenLedger(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(0, 1, 0.2, 50); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.AppendBatch([]Feedback{
		{Rater: 1, Subject: 2, Value: 0.9, UnixNano: 100},
		{Rater: 3, Subject: 4, Value: 0.4, UnixNano: 200},
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, replayed, err := OpenLedger(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(replayed) != 3 {
		t.Fatalf("replayed %d entries, want 3", len(replayed))
	}
	want := []Feedback{
		{Seq: 1, Rater: 0, Subject: 1, Value: 0.2, UnixNano: 50},
		{Seq: 2, Rater: 1, Subject: 2, Value: 0.9, UnixNano: 100},
		{Seq: 3, Rater: 3, Subject: 4, Value: 0.4, UnixNano: 200},
	}
	for i, fb := range replayed {
		if fb != want[i] {
			t.Errorf("replayed[%d] = %+v, want %+v", i, fb, want[i])
		}
	}
}

// TestLedgerAppendBatchOneFsync pins the batch-ingest claim as a count: a
// 1,024-entry batch on a file-backed ledger costs exactly one fsync (the
// counter behind diffgossip_store_wal_fsyncs_total) and every entry survives
// a reopen.
func TestLedgerAppendBatchOneFsync(t *testing.T) {
	const n, size = 64, 1024
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l, _, err := OpenLedger(path, n)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Feedback, size)
	for k := range batch {
		batch[k] = Feedback{Rater: k % n, Subject: (k/n + k%n + 1) % n, Value: float64(k) / size, UnixNano: int64(k + 1)}
	}
	before := l.mFsyncs.Value()
	if _, _, err := l.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if got := l.mFsyncs.Value() - before; got != 1 {
		t.Fatalf("AppendBatch of %d entries issued %d fsyncs, want exactly 1", size, got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, replayed, err := OpenLedger(path, n)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(replayed) != size {
		t.Fatalf("replayed %d entries, want %d", len(replayed), size)
	}
	for k, fb := range replayed {
		want := batch[k]
		want.Seq = uint64(k + 1)
		if fb != want {
			t.Fatalf("replayed[%d] = %+v, want %+v", k, fb, want)
		}
	}
}

func TestLedgerAppendBatchHistory(t *testing.T) {
	l := NewLedger(8)
	if err := l.EnableReplication("self", nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.AppendBatch([]Feedback{
		{Rater: 1, Subject: 2, Value: 0.9, UnixNano: 100},
		{Rater: 3, Subject: 4, Value: 0.4, UnixNano: 200},
	}); err != nil {
		t.Fatal(err)
	}
	// Batched entries enter the local replication history like single
	// appends do, so anti-entropy ships them to peers.
	got := l.EntriesSince("self", 0, 16)
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("local history after batch = %+v, want seqs 1,2", got)
	}
}

// TestLedgerAppendBatchRecoversAfterWriteError: a batch that dies mid-write
// admits nothing — no seqs consumed, no pending entries — and the WAL
// truncates back to the last good line so the next write starts clean.
func TestLedgerAppendBatchRecoversAfterWriteError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l, _, err := OpenLedger(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, 2, 0.5, 0); err != nil {
		t.Fatal(err)
	}
	// As in TestLedgerAppendRecoversAfterWriteError: a sticky failing writer
	// plus a partial line already spilled into the backing file.
	l.mu.Lock()
	l.w = bufio.NewWriterSize(failingWriter{}, 1)
	if _, err := l.f.WriteString(`{"seq":2,"ra`); err != nil {
		l.mu.Unlock()
		t.Fatal(err)
	}
	l.mu.Unlock()
	if _, _, err := l.AppendBatch([]Feedback{
		{Rater: 3, Subject: 4, Value: 0.25},
		{Rater: 5, Subject: 6, Value: 0.75},
	}); err == nil {
		t.Fatal("batch through a failing writer should error")
	}
	if l.Seq() != 1 || l.PendingCount() != 1 {
		t.Fatalf("failed batch moved state: seq=%d pending=%d", l.Seq(), l.PendingCount())
	}
	// The next batch resyncs and lands with fresh contiguous seqs.
	first, last, err := l.AppendBatch([]Feedback{
		{Rater: 3, Subject: 4, Value: 0.25},
		{Rater: 5, Subject: 6, Value: 0.75},
	})
	if err != nil {
		t.Fatalf("batch after write error did not recover: %v", err)
	}
	if first != 2 || last != 3 {
		t.Fatalf("recovered batch seqs [%d,%d], want [2,3]", first, last)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, replayed, err := OpenLedger(path, 8)
	if err != nil {
		t.Fatalf("reopen after recovered batch error: %v", err)
	}
	defer l2.Close()
	if len(replayed) != 3 || replayed[2].Rater != 5 {
		t.Fatalf("replayed %+v, want the three good entries", replayed)
	}
}
