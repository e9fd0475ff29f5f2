package store

import (
	"bufio"
	"os"
	"path/filepath"
	"testing"
)

func TestAppendReplicatedIdempotent(t *testing.T) {
	l := NewLedger(10)
	if err := l.EnableReplication("self", nil); err != nil {
		t.Fatal(err)
	}
	fb := Feedback{Origin: "peer-a", OriginSeq: 3, Rater: 1, Subject: 2, Value: 0.5}
	applied, err := l.AppendReplicated(nil, []Feedback{fb})
	if err != nil || len(applied) != 1 || applied[0].Seq != 1 {
		t.Fatalf("first apply: applied=%+v err=%v", applied, err)
	}
	// Exact duplicate and an older entry are both no-ops.
	for _, dup := range []Feedback{fb, {Origin: "peer-a", OriginSeq: 2, Rater: 4, Subject: 5, Value: 0.9}} {
		applied, err = l.AppendReplicated(nil, []Feedback{dup})
		if err != nil || len(applied) != 0 || l.Seq() != 1 {
			t.Fatalf("duplicate apply: applied=%+v seq=%d err=%v", applied, l.Seq(), err)
		}
	}
	if got := l.OriginMark("peer-a"); got != 3 {
		t.Fatalf("watermark = %d, want 3", got)
	}
	if got := l.PendingCount(); got != 1 {
		t.Fatalf("pending = %d, want 1", got)
	}
	// Within one batch the mark runs: an entry at or below one applied
	// earlier in the same batch is a duplicate too.
	batch := []Feedback{
		{Origin: "peer-a", OriginSeq: 5, Rater: 1, Subject: 3, Value: 0.1},
		{Origin: "peer-a", OriginSeq: 4, Rater: 1, Subject: 4, Value: 0.2},
		{Origin: "peer-a", OriginSeq: 5, Rater: 1, Subject: 5, Value: 0.3},
	}
	if applied, err = l.AppendReplicated(nil, batch); err != nil || len(applied) != 1 || applied[0].Subject != 3 {
		t.Fatalf("running-mark batch applied %+v, err %v; want only seq 5's first copy", applied, err)
	}
}

func TestAppendReplicatedValidation(t *testing.T) {
	l := NewLedger(10)
	if err := l.EnableReplication("self", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendReplicated(nil, []Feedback{{Rater: 1, Subject: 2, Value: 0.5}}); err == nil {
		t.Fatal("entry without origin tags accepted")
	}
	if _, err := l.AppendReplicated(nil, []Feedback{{Origin: "p", OriginSeq: 1, Rater: 99, Subject: 2, Value: 0.5}}); err == nil {
		t.Fatal("out-of-range rater accepted")
	}
	if _, err := l.AppendReplicated(nil, []Feedback{{Origin: "self", OriginSeq: 1, Rater: 1, Subject: 2, Value: 0.5}}); err == nil {
		t.Fatal("entry of the ledger's own stream accepted as replicated")
	}
	l2 := NewLedger(10)
	if _, err := l2.AppendReplicated(nil, []Feedback{{Origin: "p", OriginSeq: 1, Rater: 1, Subject: 2, Value: 0.5}}); err == nil {
		t.Fatal("replicated append without EnableReplication accepted")
	}
}

func TestEntriesSinceLocalAndRemote(t *testing.T) {
	l := NewLedger(10)
	if err := l.EnableReplication("a", nil); err != nil {
		t.Fatal(err)
	}
	// Interleave local and replicated entries; local seqs then have gaps
	// from each origin's point of view.
	if _, err := l.Append(0, 1, 0.1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendReplicated(nil, []Feedback{{Origin: "b", OriginSeq: 1, Rater: 2, Subject: 3, Value: 0.2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(4, 5, 0.3, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendReplicated(nil, []Feedback{{Origin: "b", OriginSeq: 4, Rater: 6, Subject: 7, Value: 0.4}}); err != nil {
		t.Fatal(err)
	}

	local := l.EntriesSince("a", 0, 0)
	if len(local) != 2 || local[0].Seq != 1 || local[1].Seq != 3 {
		t.Fatalf("local stream = %+v", local)
	}
	// Local entries come back as they replicate: under the ledger's id, with
	// their Seq as the origin seq.
	for _, fb := range local {
		if fb.Origin != "a" || fb.OriginSeq != fb.Seq {
			t.Fatalf("local entry not stamped with the ledger's id: %+v", fb)
		}
	}
	if got := l.EntriesSince("a", 1, 0); len(got) != 1 || got[0].Seq != 3 {
		t.Fatalf("local past 1 = %+v", got)
	}
	remote := l.EntriesSince("b", 1, 0)
	if len(remote) != 1 || remote[0].OriginSeq != 4 {
		t.Fatalf("remote past 1 = %+v", remote)
	}
	if got := l.EntriesSince("b", 4, 0); got != nil {
		t.Fatalf("remote past watermark = %+v, want nil", got)
	}
	if got := l.EntriesSince("a", 0, 1); len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("limit=1 = %+v", got)
	}
	// TakePending drains the fold window but never the retained history.
	l.TakePending()
	if got := l.EntriesSince("a", 0, 0); len(got) != 2 {
		t.Fatalf("history after TakePending = %+v", got)
	}
}

// TestReplicationSurvivesReopen proves the WAL round-trips origin tags: a
// reopened ledger re-seeded from its own replay serves the same watermarks
// and pull answers as the original.
func TestReplicationSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ledger.jsonl")
	l, replayed, err := OpenLedger(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.EnableReplication("self", replayed); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(0, 1, 0.9, 42); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendReplicated(nil, []Feedback{{Origin: "peer-b", OriginSeq: 7, Rater: 2, Subject: 3, Value: 0.4, UnixNano: 43}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, replayed2, err := OpenLedger(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := l2.EnableReplication("self", replayed2); err != nil {
		t.Fatal(err)
	}
	if got := l2.OriginMark("peer-b"); got != 7 {
		t.Fatalf("reopened watermark = %d, want 7", got)
	}
	// The local stream's watermark is the last locally-originated entry's
	// seq (1); the replicated entry consumed ledger seq 2 but belongs to
	// peer-b's stream.
	if got := l2.OriginMark("self"); got != 1 {
		t.Fatalf("reopened local-stream mark = %d, want 1", got)
	}
	if got := l2.Seq(); got != 2 {
		t.Fatalf("reopened ledger seq = %d, want 2", got)
	}
	remote := l2.EntriesSince("peer-b", 0, 0)
	if len(remote) != 1 || remote[0].OriginSeq != 7 || remote[0].Value != 0.4 || remote[0].UnixNano != 43 {
		t.Fatalf("reopened remote stream = %+v", remote)
	}
	// A duplicate of the persisted entry is still recognised after reopen.
	if applied, err := l2.AppendReplicated(nil, []Feedback{{Origin: "peer-b", OriginSeq: 7, Rater: 2, Subject: 3, Value: 0.4}}); err != nil || len(applied) != 0 {
		t.Fatalf("duplicate after reopen: applied=%+v err=%v", applied, err)
	}
}

// TestAppendReplicatedBatchAllOrNothing: a replicated batch that fails —
// one invalid entry, folded or queued, or a write error — applies nothing,
// consumes no seq and leaves the origin's mark where it was; the next valid
// batch applies normally, queues only its queued entries, and replays.
func TestAppendReplicatedBatchAllOrNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l, replayed, err := OpenLedger(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.EnableReplication("self", replayed); err != nil {
		t.Fatal(err)
	}
	batch := func(lastRater int) []Feedback {
		return []Feedback{
			{Origin: "p", OriginSeq: 1, Rater: 1, Subject: 2, Value: 0.25, UnixNano: 10},
			{Origin: "p", OriginSeq: 2, Rater: lastRater, Subject: 3, Value: 0.75, UnixNano: 11},
		}
	}
	unmoved := func(what string) {
		t.Helper()
		if l.Seq() != 0 || l.OriginMark("p") != 0 || l.PendingCount() != 0 || l.EntriesSince("p", 0, 0) != nil {
			t.Fatalf("%s moved state: seq=%d mark=%d pending=%d", what, l.Seq(), l.OriginMark("p"), l.PendingCount())
		}
	}
	if applied, err := l.AppendReplicated(nil, batch(99)); err == nil || applied != nil {
		t.Fatalf("batch with an out-of-range entry: applied=%+v err=%v", applied, err)
	}
	unmoved("invalid batch")
	if applied, err := l.AppendReplicated(batch(4)[:1], batch(99)[1:]); err == nil || applied != nil {
		t.Fatalf("valid folded entry, out-of-range queued one: applied=%+v err=%v", applied, err)
	}
	unmoved("invalid queued entry")

	// As in TestLedgerAppendBatchRecoversAfterWriteError: a sticky failing
	// writer plus a partial line already spilled into the backing file.
	l.mu.Lock()
	l.w = bufio.NewWriterSize(failingWriter{}, 1)
	if _, err := l.f.WriteString(`{"seq":1,"ra`); err != nil {
		l.mu.Unlock()
		t.Fatal(err)
	}
	l.mu.Unlock()
	if applied, err := l.AppendReplicated(nil, batch(4)); err == nil || applied != nil {
		t.Fatalf("batch through a failing writer: applied=%+v err=%v", applied, err)
	}
	unmoved("failed write")

	applied, err := l.AppendReplicated(batch(4)[:1], batch(4)[1:])
	if err != nil || len(applied) != 2 || applied[0].Seq != 1 || applied[1].Seq != 2 {
		t.Fatalf("batch after the failures: applied=%+v err=%v", applied, err)
	}
	if l.OriginMark("p") != 2 || l.PendingCount() != 1 {
		t.Fatalf("after valid batch: mark=%d pending=%d, want 2/1", l.OriginMark("p"), l.PendingCount())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, replayed2, err := OpenLedger(path, 8)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if len(replayed2) != 2 || replayed2[1].Origin != "p" || replayed2[1].OriginSeq != 2 {
		t.Fatalf("replayed %+v, want the valid batch only", replayed2)
	}
}

// TestLedgerAppendReplicatedOneWrite mirrors TestLedgerAppendBatchOneWrite
// for a replicated batch: 256 entries reach the file as ONE write through
// the ledger's writer, and — unlike AppendBatch — with no fsync.
func TestLedgerAppendReplicatedOneWrite(t *testing.T) {
	const n, size = 64, 256
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l, replayed, err := OpenLedger(path, n)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.EnableReplication("self", replayed); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, 2, 0.5, 0); err != nil {
		t.Fatal(err)
	}
	cw := &countingWriter{w: l.f}
	l.mu.Lock()
	l.w.Reset(cw)
	l.mu.Unlock()
	batch := make([]Feedback, size)
	for k := range batch {
		batch[k] = Feedback{Origin: "peer", OriginSeq: uint64(k + 1), Rater: k % n, Subject: (k + 1) % n, Value: float64(k) / size, UnixNano: int64(k + 1)}
	}
	fsyncs := l.mFsyncs.Value()
	if applied, err := l.AppendReplicated(nil, batch); err != nil || len(applied) != size {
		t.Fatalf("applied %d of %d: %v", len(applied), size, err)
	}
	if cw.writes != 1 {
		t.Fatalf("replicated batch of %d entries issued %d writes, want exactly 1", size, cw.writes)
	}
	if got := l.mFsyncs.Value() - fsyncs; got != 0 {
		t.Fatalf("replicated batch issued %d fsyncs, want 0", got)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != l.goodOff {
		t.Fatalf("file size vs ledger's accounted %d: %v", l.goodOff, err)
	}
}

// TestEnableReplicationRejectsNonMonotonicWAL: a tampered WAL whose
// replicated origin sequence numbers regress must be refused, not silently
// re-marked.
func TestEnableReplicationRejectsNonMonotonicWAL(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ledger.jsonl")
	wal := `{"seq":1,"rater":0,"subject":1,"value":0.5,"origin":"p","origin_seq":5}
{"seq":2,"rater":0,"subject":2,"value":0.5,"origin":"p","origin_seq":4}
`
	if err := os.WriteFile(path, []byte(wal), 0o644); err != nil {
		t.Fatal(err)
	}
	l, replayed, err := OpenLedger(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.EnableReplication("self", replayed); err == nil {
		t.Fatal("non-monotonic origin seq accepted")
	}
}
