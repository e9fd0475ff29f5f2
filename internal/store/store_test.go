package store

import (
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestLedgerAppendValidates(t *testing.T) {
	l := NewLedger(5)
	if _, err := l.Append(-1, 0, 0.5, 0); err == nil {
		t.Error("negative rater accepted")
	}
	if _, err := l.Append(0, 5, 0.5, 0); err == nil {
		t.Error("out-of-range subject accepted")
	}
	if _, err := l.Append(0, 1, 1.5, 0); err == nil {
		t.Error("value > 1 accepted")
	}
	if _, err := l.Append(0, 1, math.NaN(), 0); err == nil {
		t.Error("NaN value accepted")
	}
	if l.PendingCount() != 0 {
		t.Fatalf("rejected appends left %d pending entries", l.PendingCount())
	}
}

func TestLedgerSeqAndPending(t *testing.T) {
	l := NewLedger(4)
	for i := 0; i < 3; i++ {
		seq, err := l.Append(i, 3, 0.25*float64(i+1), 0)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	if got := l.PendingCount(); got != 3 {
		t.Fatalf("PendingCount = %d, want 3", got)
	}
	batch := l.TakePending()
	if len(batch) != 3 || batch[0].Seq != 1 || batch[2].Seq != 3 {
		t.Fatalf("TakePending returned %+v", batch)
	}
	if l.PendingCount() != 0 {
		t.Fatal("pending not drained")
	}
	if l.Seq() != 3 {
		t.Fatalf("Seq = %d, want 3", l.Seq())
	}
}

func TestLedgerPersistReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l, replayed, err := OpenLedger(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 0 {
		t.Fatalf("fresh ledger replayed %d entries", len(replayed))
	}
	want := []Feedback{
		{Seq: 1, Rater: 1, Subject: 2, Value: 0.9, UnixNano: 100},
		{Seq: 2, Rater: 3, Subject: 2, Value: 0.4, UnixNano: 200},
		{Seq: 3, Rater: 1, Subject: 2, Value: 0.7, UnixNano: 300},
	}
	for _, fb := range want {
		if _, err := l.Append(fb.Rater, fb.Subject, fb.Value, fb.UnixNano); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, replayed, err := OpenLedger(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(replayed) != len(want) {
		t.Fatalf("replayed %d entries, want %d", len(replayed), len(want))
	}
	for i, fb := range replayed {
		if fb != want[i] {
			t.Errorf("replayed[%d] = %+v, want %+v", i, fb, want[i])
		}
	}
	// Appends resume after the highest replayed seq.
	seq, err := l2.Append(0, 1, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 4 {
		t.Fatalf("post-replay seq = %d, want 4", seq)
	}
}

func TestLedgerReplayRejectsCorruptLines(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"garbage.jsonl": "{not json\n",
		"range.jsonl":   `{"seq":1,"rater":99,"subject":0,"value":0.5}` + "\n",
		"seq.jsonl":     `{"seq":2,"rater":0,"subject":1,"value":0.5}` + "\n" + `{"seq":2,"rater":0,"subject":1,"value":0.5}` + "\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := OpenLedger(path, 10); err == nil {
			t.Errorf("%s: corrupt ledger accepted", name)
		}
	}
}

// TestLedgerTornTailTruncated: an unterminated final line — the artifact of
// an append that crashed mid-write — is dropped and truncated away, and the
// ledger keeps working; the same malformed content as a *complete* line is
// real corruption and still fails hard.
func TestLedgerTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	good := `{"seq":1,"rater":0,"subject":1,"value":0.5}` + "\n"
	if err := os.WriteFile(path, []byte(good+`{"seq":2,"rater":0,"sub`), 0o644); err != nil {
		t.Fatal(err)
	}
	l, replayed, err := OpenLedger(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 1 || replayed[0].Seq != 1 {
		t.Fatalf("replayed %+v, want just seq 1", replayed)
	}
	// The torn bytes are gone and the next append reuses the freed seq slot
	// on a clean line boundary.
	seq, err := l.Append(2, 3, 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("post-truncate seq = %d, want 2", seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, replayed, err = OpenLedger(path, 10); err != nil || len(replayed) != 2 {
		t.Fatalf("reopen after truncate: %d entries, err %v", len(replayed), err)
	}
}

// TestLedgerRestorePrepends: restored entries fold BEFORE anything already
// pending (they are older), preserving last-wins order.
func TestLedgerRestorePrepends(t *testing.T) {
	l := NewLedger(4)
	if _, err := l.Append(0, 1, 0.9, 0); err != nil { // seq 1
		t.Fatal(err)
	}
	batch := l.TakePending()
	if _, err := l.Append(0, 1, 0.2, 0); err != nil { // seq 2, newer
		t.Fatal(err)
	}
	l.Restore(batch)
	got := l.TakePending()
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("pending order %+v, want seq 1 then 2", got)
	}
}

func TestLedgerConcurrentAppend(t *testing.T) {
	l := NewLedger(8)
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := l.Append(w, (w+i)%8, 0.5, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := l.Seq(); got != workers*per {
		t.Fatalf("Seq = %d, want %d", got, workers*per)
	}
	batch := l.TakePending()
	if len(batch) != workers*per {
		t.Fatalf("pending = %d, want %d", len(batch), workers*per)
	}
	seen := make(map[uint64]bool, len(batch))
	for _, fb := range batch {
		if seen[fb.Seq] {
			t.Fatalf("duplicate seq %d", fb.Seq)
		}
		seen[fb.Seq] = true
	}
}
