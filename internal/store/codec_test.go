package store

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// decodeLine is replay's decode of one WAL line: the scanner, and
// encoding/json for whatever the scanner does not recognise.
func decodeLine(line []byte) (Feedback, bool, error) {
	var fb Feedback
	if ScanFeedback(line, WALKeys, &fb) {
		return fb, true, nil
	}
	err := json.Unmarshal(line, &fb)
	return fb, false, err
}

// sameFeedback is == with the value compared bit for bit, so 0 and -0
// differ and the comparison has no NaN hole.
func sameFeedback(a, b Feedback) bool {
	av, bv := a.Value, b.Value
	a.Value, b.Value = 0, 0
	return a == b && math.Float64bits(av) == math.Float64bits(bv)
}

// TestGoldenWAL holds the codec to a WAL written by the encoder it replaced.
// testdata/golden_wal.jsonl was produced at the parent commit (json.Marshal
// per line) through Append, AppendBatch and AppendReplicated on an N=16
// ledger: standalone lines over every float shape the encoder special-cases,
// stamped singles, a stamped batch, and replicated lines whose origin ids are
// plain, HTML-sensitive, quoted, control-byte and non-ASCII.
// golden_wal.compacted.jsonl is the parent's Compact of it at Origin "self",
// everything up to seq 37 folded. The file must replay, re-encode line by
// line, and compact — as a no-op rewrite and for real — to the same bytes.
func TestGoldenWAL(t *testing.T) {
	const n = 16
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_wal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	wantCompacted, err := os.ReadFile(filepath.Join("testdata", "golden_wal.compacted.jsonl"))
	if err != nil {
		t.Fatal(err)
	}

	scanned := 0
	var reencoded []byte
	for k, line := range bytes.Split(bytes.TrimSuffix(golden, []byte("\n")), []byte("\n")) {
		fb, fast, err := decodeLine(line)
		if err != nil {
			t.Fatalf("line %d: %v", k+1, err)
		}
		var want Feedback
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("line %d: %v", k+1, err)
		}
		if !sameFeedback(fb, want) {
			t.Fatalf("line %d decodes to %+v, encoding/json says %+v", k+1, fb, want)
		}
		// Every line without an escape, a non-ASCII byte or the one 20-digit
		// origin_seq is canonical: the scanner must be what decoded it, or it
		// accelerates nothing.
		plain := !bytes.ContainsFunc(line, func(r rune) bool { return r == '\\' || r > 0x7e }) &&
			!bytes.Contains(line, []byte(`"origin_seq":18446744073709551614`))
		if fast != plain {
			t.Errorf("line %d: scanner took it = %v, want %v: %s", k+1, fast, plain, line)
		}
		if fast {
			scanned++
		}
		reencoded = append(AppendFeedback(reencoded, &fb), '\n')
	}
	if scanned < 30 {
		t.Errorf("scanner decoded %d golden lines, want at least 30", scanned)
	}
	if !bytes.Equal(reencoded, golden) {
		t.Fatalf("re-encoded WAL differs from the golden:\n%s", reencoded)
	}

	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	l, replayed, err := OpenLedger(path, n)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(replayed) != 40 || l.Seq() != 40 {
		t.Fatalf("replayed %d entries to seq %d, want 40/40", len(replayed), l.Seq())
	}
	// The parent compacted at origin "self", which the ledger now names itself.
	if err := l.EnableReplication("self", replayed); err != nil {
		t.Fatal(err)
	}
	// Nothing folded: compaction keeps every line and rewrites the same bytes.
	if _, err := l.Compact(nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, golden) {
		t.Fatalf("no-op compaction changed the WAL:\n%s", got)
	}
	st, err := l.Compact(foldedTo(t, l, 37))
	if err != nil {
		t.Fatal(err)
	}
	if st.EntriesAfter != 30 || st.BytesAfter != int64(len(wantCompacted)) {
		t.Fatalf("compaction kept %d entries in %d bytes, want 30 in %d", st.EntriesAfter, st.BytesAfter, len(wantCompacted))
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, wantCompacted) {
		t.Fatalf("compacted WAL differs from the parent's:\n%s", got)
	}
	// The compacted file keeps accepting appends where the original left off.
	if seq, err := l.Append(1, 2, 0.5, 0); err != nil || seq != 41 {
		t.Fatalf("append after compaction: seq %d, %v", seq, err)
	}
}

// TestScanFeedbackCanonicalOnly lists, by example, what the scanner takes and
// what it leaves to encoding/json. Every refusal here is still a body or line
// encoding/json has an opinion on; FuzzFeedbackDecode checks the scanner
// never disagrees with that opinion where it has one of its own.
func TestScanFeedbackCanonicalOnly(t *testing.T) {
	for _, c := range []struct {
		line string
		keys FeedbackKeys
		want bool
	}{
		{`{"seq":1,"rater":3,"subject":4,"value":0.25,"unix_nano":123}`, WALKeys, true},
		{" \t{ \"value\" : 5e-1 ,\r\n\"rater\":-0 } \n", WALKeys, true},
		{`{"seq":9,"rater":1,"subject":2,"value":1,"origin":"node-1","origin_seq":7}`, WALKeys, true},
		{`{"rater":1,"subject":2,"value":1E+0}`, RequestKeys, true},
		{`{"seq":1,"rater":1,"subject":2,"value":1}`, RequestKeys, false},                // seq is not a request key
		{`{"origin":"x","rater":1,"subject":2,"value":1}`, RequestKeys, false},           // nor origin
		{`{"Rater":1,"subject":2,"value":1}`, WALKeys, false},                            // case-folded key
		{`{"ra\u0074er":1,"subject":2,"value":1}`, WALKeys, false},                       // escaped key
		{`{"rater":1,"rater":2,"subject":2,"value":1}`, WALKeys, false},                  // duplicate key
		{`{"rater":null,"subject":2,"value":1}`, WALKeys, false},                         // null
		{`{"rater":01,"subject":2,"value":1}`, WALKeys, false},                           // leading zero
		{`{"rater":1e2,"subject":2,"value":1}`, WALKeys, false},                          // exponent into an int
		{`{"rater":1.0,"subject":2,"value":1}`, WALKeys, false},                          // fraction into an int
		{`{"seq":-1,"rater":1,"subject":2,"value":1}`, WALKeys, false},                   // sign on an unsigned field
		{`{"seq":12345678901234567890,"rater":1,"subject":2,"value":1}`, WALKeys, false}, // 20 digits
		{`{"seq":9999999999999999999,"rater":1,"subject":2,"value":1}`, WALKeys, true},   // 19 digits always fit
		{`{"rater":1,"subject":2,"value":1,"unix_nano":9223372036854775807}`, WALKeys, true},
		{`{"rater":1,"subject":2,"value":1,"unix_nano":9223372036854775808}`, WALKeys, false},  // over MaxInt64
		{`{"rater":1,"subject":2,"value":1,"unix_nano":-9223372036854775808}`, WALKeys, false}, // MinInt64: left to encoding/json
		{`{"rater":1,"subject":2,"value":1e400}`, WALKeys, false},                              // out of float64 range
		{`{"rater":1,"subject":2,"value":.5}`, WALKeys, false},                                 // not a JSON number
		{`{"rater":1,"subject":2,"value":1.}`, WALKeys, false},                                 //
		{`{"rater":1,"subject":2,"value":0x1p-2}`, WALKeys, false},                             // ParseFloat would take it
		{`{"rater":1,"subject":2,"value":"0.5"}`, WALKeys, false},                              // string for a number
		{`{"rater":1,"subject":2,"value":1,"origin":"a\"b"}`, WALKeys, false},                  // escape in origin
		{`{"rater":1,"subject":2,"value":1,"origin":"nœud"}`, WALKeys, false},                  // non-ASCII origin
		{`{"rater":1,"subject":2,"value":1,"bogus":1}`, WALKeys, false},                        // unknown key
		{`{"rater":1,"subject":2,"value":1,}`, WALKeys, false},                                 // trailing comma
		{`{"rater":1,"subject":2,"value":1`, WALKeys, false},                                   // unterminated
		{`{"rater":1,"subject":2,"value":1} x`, WALKeys, false},                                // trailing data
		{`{"rater":1,"subject":2,"value":1}{"rater":1,"subject":2,"value":1}`, WALKeys, false},
		{`{}`, WALKeys, false},
		{`[]`, WALKeys, false},
		{``, WALKeys, false},
	} {
		fb := Feedback{Seq: 99}
		if got := ScanFeedback([]byte(c.line), c.keys, &fb); got != c.want {
			t.Errorf("ScanFeedback(%s) = %v, want %v", c.line, got, c.want)
		} else if !got && fb != (Feedback{Seq: 99}) {
			t.Errorf("ScanFeedback(%s) refused but wrote %+v", c.line, fb)
		}
	}
}

// TestLedgerAppendBatchOneWrite pins that a batch reaches the file as ONE
// write: the whole batch is encoded into the ledger's buffer first, and a
// write larger than the bufio buffer passes straight through it.
func TestLedgerAppendBatchOneWrite(t *testing.T) {
	const n, size = 64, 1024
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l, _, err := OpenLedger(path, n)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(1, 2, 0.5, 0); err != nil {
		t.Fatal(err)
	}
	cw := &countingWriter{w: l.f}
	l.mu.Lock()
	l.w.Reset(cw)
	l.mu.Unlock()
	batch := make([]Feedback, size)
	for k := range batch {
		batch[k] = Feedback{Rater: k % n, Subject: (k + 1) % n, Value: float64(k) / size, UnixNano: int64(k + 1)}
	}
	if _, _, err := l.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if cw.writes != 1 {
		t.Fatalf("AppendBatch of %d entries issued %d writes, want exactly 1", size, cw.writes)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != l.goodOff || int64(cw.bytes) >= l.goodOff {
		t.Fatalf("file holds %d bytes, ledger accounts for %d (%d in the batch): %v", fi.Size(), l.goodOff, cw.bytes, err)
	}
}

type countingWriter struct {
	w             *os.File
	writes, bytes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	c.bytes += len(p)
	return c.w.Write(p)
}

// TestLedgerEncodeBufferBounded: the WAL encode buffer never outlives a bulk
// append. After a 120,000-entry AppendBatch, and after an AppendReplicated
// of the same size (a bootstrap install's shape), the ledger keeps at most
// maxEncCap (1 MiB) of it; the transient buffer of such an append is about
// 11 MB.
func TestLedgerEncodeBufferBounded(t *testing.T) {
	const n, size = 2500, 120_000
	l, _, err := OpenLedger(filepath.Join(t.TempDir(), "ledger.jsonl"), n)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.EnableReplication("node-a", nil); err != nil {
		t.Fatal(err)
	}
	batch := make([]Feedback, size)
	for k := range batch {
		batch[k] = Feedback{Rater: k % n, Subject: (k / n) % n, Value: float64(k) / size, UnixNano: int64(k + 1)}
	}
	if _, _, err := l.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if c := cap(l.enc); c > 1<<20 {
		t.Fatalf("after a %d-entry AppendBatch the ledger keeps a %d-byte encode buffer, want ≤ 1 MiB", size, c)
	}
	for k := range batch {
		batch[k].Origin, batch[k].OriginSeq = "node-b", uint64(k+1)
	}
	if fresh, err := l.AppendReplicated(nil, batch); err != nil || len(fresh) != size {
		t.Fatalf("AppendReplicated applied %d of %d entries: %v", len(fresh), size, err)
	}
	if c := cap(l.enc); c > 1<<20 {
		t.Fatalf("after a %d-entry AppendReplicated the ledger keeps a %d-byte encode buffer, want ≤ 1 MiB", size, c)
	}
}
