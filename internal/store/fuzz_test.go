package store

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"diffgossip/internal/trust"
)

// FuzzLedgerOpen throws arbitrary bytes at the WAL replay path. Whatever the
// input — torn tails, garbage lines, hostile JSON — OpenLedger must never
// panic, and when it accepts a file the result must be coherent:
//
//   - every replayed entry is valid (ids in range, value in [0,1], strictly
//     increasing seq);
//   - the open is idempotent: closing and reopening replays exactly the
//     same entries (the first open may truncate a torn tail; doing so must
//     not change what replays);
//   - appends keep working and survive a reopen.
func FuzzLedgerOpen(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("{\"seq\":1,\"rater\":0,\"subject\":1,\"value\":0.5}\n"))
	f.Add([]byte("{\"seq\":1,\"rater\":0,\"subject\":1,\"value\":0.5}\n{\"seq\":2,\"rater\":1,\"subject\":0,\"value\":1}\n"))
	f.Add([]byte("{\"seq\":1,\"rater\":0,\"subject\":1,\"value\":0.5}\n{\"seq\":2,\"rater\":1,\"sub")) // torn tail
	f.Add([]byte("\n\n{\"seq\":3,\"rater\":2,\"subject\":3,\"value\":0}\n"))
	f.Add([]byte("{\"seq\":1,\"rater\":0,\"subject\":1,\"value\":1e999}\n"))
	f.Add([]byte("not json at all\n"))
	f.Add([]byte("{\"seq\":0,\"rater\":0,\"subject\":0,\"value\":0}\n"))
	f.Add([]byte("{\"seq\":1,\"rater\":-1,\"subject\":0,\"value\":0}\n"))
	f.Add([]byte("{\"seq\":18446744073709551615,\"rater\":0,\"subject\":0,\"value\":0}\n{\"seq\":1,\"rater\":0,\"subject\":0,\"value\":0}\n"))
	// Compacted-file shapes (see Compact): sparse seqs and a min seq > 1 are
	// valid — only non-increasing seqs are corruption.
	f.Add([]byte("{\"seq\":7,\"rater\":0,\"subject\":1,\"value\":0.5}\n"))
	f.Add([]byte("{\"seq\":2,\"rater\":0,\"subject\":1,\"value\":0.5}\n{\"seq\":9,\"rater\":1,\"subject\":0,\"value\":1}\n{\"seq\":10,\"rater\":2,\"subject\":3,\"value\":0.25}\n"))
	f.Add([]byte("{\"seq\":3,\"rater\":0,\"subject\":1,\"value\":0.5,\"origin\":\"node-1\",\"origin_seq\":8}\n{\"seq\":12,\"rater\":1,\"subject\":0,\"value\":1,\"origin\":\"node-1\",\"origin_seq\":20}\n"))

	const n = 16
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "ledger.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, replayed, err := OpenLedger(path, n)
		if err != nil {
			return // rejected corrupt input: fine, as long as it didn't panic
		}
		var lastSeq uint64
		for k, fb := range replayed {
			if fb.Rater < 0 || fb.Rater >= n || fb.Subject < 0 || fb.Subject >= n {
				t.Fatalf("replayed entry %d has out-of-range ids: %+v", k, fb)
			}
			if fb.Value < 0 || fb.Value > 1 || math.IsNaN(fb.Value) {
				t.Fatalf("replayed entry %d has invalid value: %+v", k, fb)
			}
			if fb.Seq <= lastSeq {
				t.Fatalf("replayed entry %d seq not increasing: %d after %d", k, fb.Seq, lastSeq)
			}
			lastSeq = fb.Seq
		}
		// An accepted ledger accepts appends and assigns the next seq — the
		// single exception is an exhausted sequence space (a replayed entry
		// at MaxUint64), which must refuse rather than wrap and poison the
		// file. A refused append must leave no trace.
		seq, err := l.Append(1, 2, 0.25, 0)
		appended := err == nil
		if err != nil && lastSeq != math.MaxUint64 {
			t.Fatalf("append after replay: %v", err)
		}
		if appended && seq != lastSeq+1 {
			t.Fatalf("append seq %d, want %d", seq, lastSeq+1)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		// Reopen: same entries (plus the append if it succeeded), bit for
		// bit.
		l2, replayed2, err := OpenLedger(path, n)
		if err != nil {
			t.Fatalf("reopen of a once-accepted ledger failed: %v", err)
		}
		defer l2.Close()
		want := len(replayed)
		if appended {
			want++
		}
		if len(replayed2) != want {
			t.Fatalf("reopen replayed %d entries, want %d", len(replayed2), want)
		}
		for k := range replayed {
			if replayed2[k] != replayed[k] {
				t.Fatalf("entry %d changed across reopen: %+v vs %+v", k, replayed2[k], replayed[k])
			}
		}
		if appended {
			if got := replayed2[len(replayed)]; got.Seq != seq || got.Rater != 1 || got.Subject != 2 || got.Value != 0.25 {
				t.Fatalf("appended entry did not survive reopen: %+v", got)
			}
		}
	})
}

// FuzzFeedbackDecode targets the per-line decoding contract directly. The
// line goes through replay's decode — the scanner, encoding/json behind it —
// and through plain json.Unmarshal: both must reach the same verdict and,
// when they accept, bit-equal entries (so the scanner can only ever be a
// faster way to the answer encoding/json defines). An accepted in-range
// entry must then re-encode through AppendFeedback to a line that decodes
// back unchanged.
func FuzzFeedbackDecode(f *testing.F) {
	f.Add([]byte(`{"seq":1,"rater":3,"subject":4,"value":0.25,"unix_nano":123}`))
	f.Add([]byte(`{"value":5e-1}`))
	f.Add([]byte(`{"rater":1e3}`))
	f.Add([]byte(`{"seq":-1}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"value":"0.5"}`))
	f.Add([]byte(`{"seq":7,"rater":1,"subject":2,"value":1,"origin":"node-1","origin_seq":3}`))
	f.Add([]byte(`{"rater":1,"rater":2,"value":0.5,"value":0.25}`))               // duplicate keys: last wins
	f.Add([]byte(`{"seq":null,"rater":null,"value":null,"origin":null}`))         // null is a no-op
	f.Add([]byte(`{"rater":007,"value":00.5}`))                                   // leading zeros
	f.Add([]byte(`{"seq":1234567890123456789,"unix_nano":-1234567890123456789}`)) // 19-digit ints
	f.Add([]byte(`{"seq":18446744073709551616}`))                                 // uint64 overflow
	f.Add([]byte(`{"rater":-0,"value":-0,"unix_nano":-0}`))
	f.Add([]byte(`{"value":1e400}`))
	f.Add([]byte(`{"value":1e-400}`))
	f.Add([]byte(`{"seq":1,"rater":3,"subject":4,"value":0.25`)) // unterminated
	f.Add([]byte(`{"value":0.1234567890123456789012345678901234567890}`))
	f.Add([]byte(`{"Rater":1,"SUBJECT":2,"val\u0075e":0.5,"origin":"a\u003cb"}`))
	f.Add([]byte(" {\t\"value\" :\r\n 1E-2 , \"origin_seq\":0 } "))
	// scanFloat's fast path and its edges: 15-, 16- and 17-digit mantissas
	// (2^53 lies between the last two), decimal exponents ±22 in and ±23 out.
	f.Add([]byte(`{"value":0.123456789012345}`))
	f.Add([]byte(`{"value":9007199254740993}`))
	f.Add([]byte(`{"value":0.30000000000000004}`))
	f.Add([]byte(`{"value":1e22,"rater":1}`))
	f.Add([]byte(`{"value":1e-22}`))
	f.Add([]byte(`{"value":1e23}`))
	f.Add([]byte(`{"value":-1E-23}`))
	f.Add([]byte(`{"value":-0}`))
	f.Add([]byte(`{"value":0.000001}`))
	f.Add([]byte(`{"value":1E-6}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		var want Feedback
		wantErr := json.Unmarshal(line, &want)
		fb, fast, err := decodeLine(line)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decode verdict %v, encoding/json says %v: %q", err, wantErr, line)
		}
		if err != nil {
			return
		}
		if !sameFeedback(fb, want) {
			t.Fatalf("decoded %+v (scanner=%v), encoding/json says %+v: %q", fb, fast, want, line)
		}
		l := NewLedger(8)
		if err := l.check(fb.Rater, fb.Subject, fb.Value); err != nil {
			return
		}
		out := AppendFeedback(nil, &fb)
		back, _, err := decodeLine(out)
		if err != nil {
			t.Fatalf("re-encoded entry does not decode: %s: %v", out, err)
		}
		// Only an origin encoding/json had to repair (invalid UTF-8 becomes
		// U+FFFD) may change, and it is already repaired in fb.
		if !sameFeedback(back, fb) {
			t.Fatalf("entry changed across a round-trip: %+v vs %+v", back, fb)
		}
	})
}

// FuzzFeedbackEncode holds AppendFeedback to json.Marshal, byte for byte, over
// every field — origins with quotes, HTML-sensitive characters, control bytes
// and invalid UTF-8, values on both sides of each format switch.
func FuzzFeedbackEncode(f *testing.F) {
	f.Add(uint64(1), 3, 4, 0.25, int64(123), "", uint64(0))
	f.Add(uint64(math.MaxUint64), -1, math.MaxInt, 0.0, int64(math.MinInt64), "node-1", uint64(7))
	f.Add(uint64(0), 0, 0, math.Copysign(0, -1), int64(0), `q"uo\te`, uint64(math.MaxUint64))
	f.Add(uint64(2), 1, 2, 1e-7, int64(-5), "a<b>&c", uint64(1))
	f.Add(uint64(2), 1, 2, 9.99e-7, int64(5), "ctl\x00\x01\n\t\x7f", uint64(1))
	f.Add(uint64(2), 1, 2, 1e-6, int64(5), "bad\xff\xfeutf8", uint64(1))
	f.Add(uint64(2), 1, 2, 1e21, int64(5), "nœud-é\u2028\u2029", uint64(1))
	f.Add(uint64(2), 1, 2, 9.999999999999999e20, int64(5), " ", uint64(1))
	f.Add(uint64(2), 1, 2, math.MaxFloat64, int64(5), "~", uint64(1))
	f.Add(uint64(2), 1, 2, -math.MaxFloat64, int64(5), "x", uint64(1))
	f.Add(uint64(2), 1, 2, 5e-324, int64(5), "x", uint64(1))                  // smallest denormal
	f.Add(uint64(2), 1, 2, 2.2250738585072009e-308, int64(5), "x", uint64(1)) // largest denormal
	f.Add(uint64(2), 1, 2, 1e-10, int64(5), "x", uint64(1))                   // e-10: two exponent digits, no clean-up
	f.Add(uint64(2), 1, 2, 1.0/3, int64(5), "x", uint64(1))
	// appendShortDecimal's edges: a 16-digit scale printed the first as
	// −0.0009789858406818126; the rest sit at 15, 16 and 17 digits, at the
	// 1e-6 switch to 'e', below it, and at the top of the 15-digit range.
	f.Add(uint64(2), 1, 2, -0.0009789858406818125, int64(5), "", uint64(0))
	f.Add(uint64(2), 1, 2, -64.9999999, int64(5), "", uint64(0))
	f.Add(uint64(2), 1, 2, 9.999999999999999, int64(5), "", uint64(0))
	f.Add(uint64(2), 1, 2, 0.30000000000000004, int64(5), "", uint64(0))
	f.Add(uint64(2), 1, 2, 1e-6, int64(5), "", uint64(0))
	f.Add(uint64(2), 1, 2, 0.0000012345678901234, int64(5), "", uint64(0))
	f.Add(uint64(2), 1, 2, 999999999999999.0, int64(5), "", uint64(0))
	f.Fuzz(func(t *testing.T, seq uint64, rater, subject int, value float64, unixNano int64, origin string, originSeq uint64) {
		fb := Feedback{Seq: seq, Rater: rater, Subject: subject, Value: value,
			UnixNano: unixNano, Origin: origin, OriginSeq: originSeq, Shard: 5}
		want, err := json.Marshal(fb)
		if err != nil {
			return // NaN or ±Inf: no ledger path encodes one (Ledger.check)
		}
		if got := AppendFeedback([]byte("prefix"), &fb); string(got) != "prefix"+string(want) {
			t.Fatalf("AppendFeedback(%+v) =\n%s, json.Marshal says\n%s", fb, got[len("prefix"):], want)
		}
	})
}

// FuzzShardSnapshotLoad throws arbitrary bytes at the shard segment decoder
// (which nests the trust columns decoder). It must reject corrupt input with
// an error — never a panic or an out-of-bounds allocation — and anything it
// accepts must satisfy the segment's layout invariants and re-save to the
// very bytes it was read from, so load→save→load→save is byte-identical.
func FuzzShardSnapshotLoad(f *testing.F) {
	// Seed with a genuine segment so the fuzzer mutates realistic bytes.
	seg := NewBootShardSnapshot(9, 1, 3, 1) // subjects 1, 4, 7
	var err error
	if seg.Cols, _, err = seg.Cols.With([]trust.Cell{{Rater: 1, Subject: 4, Value: 0.5}, {Rater: 2, Subject: 4, Value: 0.25}}); err != nil {
		f.Fatal(err)
	}
	seg.Global[1] = 0.375
	f.Add(saveBytes(f, seg))
	// A second seed an older build wrote (gob), which must be refused.
	old, err := os.ReadFile(filepath.Join("testdata", "shard-0001.gob"))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := LoadShardSnapshot(bytes.NewReader(old)); err == nil {
		f.Fatal("an older build's segment is accepted")
	}
	f.Add(old)
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	// A segment whose cells carry stamps from two origins.
	if seg.Cols, _, err = seg.Cols.With([]trust.Cell{{Rater: 0, Subject: 7, Value: 1, Stamp: trust.Stamp{UnixNano: 5, Origin: "a", Seq: 1}},
		{Rater: 2, Subject: 4, Value: 0.75, Stamp: trust.Stamp{UnixNano: 6, Origin: "b", Seq: 3}}}); err != nil {
		f.Fatal(err)
	}
	f.Add(saveBytes(f, seg))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := LoadShardSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !bytes.Equal(saveBytes(t, s), data) {
			t.Fatal("accepted segment does not re-save byte for byte")
		}
		if s.Shard < 0 || s.Shard >= s.Shards || s.N < 0 {
			t.Fatalf("accepted segment with bad layout: shard %d/%d over N=%d", s.Shard, s.Shards, s.N)
		}
		want := len(ShardSubjects(s.N, s.Shard, s.Shards))
		if len(s.Global) != want || len(s.Cols.Subjects()) != want {
			t.Fatalf("accepted segment with inconsistent slots: %d/%d want %d",
				len(s.Global), len(s.Cols.Subjects()), want)
		}
		for k, j := range s.Cols.Subjects() {
			if ShardOf(j, s.Shards) != s.Shard || SlotOf(j, s.Shards) != k {
				t.Fatalf("accepted segment whose column %d holds foreign subject %d", k, j)
			}
		}
	})
}
