package store

import (
	"strconv"
	"testing"

	"diffgossip/internal/rng"
)

// ingestBatch is one http-ingest batch as the ledger holds it: 1,024 ratings
// over N = 1,000, each value the double nearest a six-decimal literal (the
// harness's clients print 'f' with 6 digits), one ingest stamp for the whole
// batch (SubmitBatch), and consecutive sequence numbers past the fixture's
// 48,000 seeded ratings.
func ingestBatch() []Feedback {
	const n, size = 1000, 1024
	src := rng.New(71)
	out := make([]Feedback, size)
	for k := range out {
		v, _ := strconv.ParseFloat(strconv.FormatFloat(src.Float64(), 'f', 6, 64), 64)
		out[k] = Feedback{Seq: 48_001 + uint64(k), Rater: src.Intn(n), Subject: src.Intn(n),
			Value: v, UnixNano: 1_760_000_000_123_456_789}
	}
	return out
}

// BenchmarkAppendFeedbackLines times the WAL encode of one ingest batch, the
// loop Ledger.appendLocked runs under the append lock.
func BenchmarkAppendFeedbackLines(b *testing.B) {
	entries := ingestBatch()
	buf := appendFeedbackLines(nil, entries)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for b.Loop() {
		buf = appendFeedbackLines(buf[:0], entries)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(entries)), "ns/entry")
}

// BenchmarkScanFeedbackBatch times the scanner over the same batch in both of
// its spellings: "body" is the JSON array a client POSTs (request keys, no
// stamp, six-decimal values), "wal" the batch's ledger lines as replay and
// compaction read them.
func BenchmarkScanFeedbackBatch(b *testing.B) {
	entries := ingestBatch()
	body := []byte{'['}
	for k, fb := range entries {
		if k > 0 {
			body = append(body, ',')
		}
		body = append(body, `{"rater":`...)
		body = strconv.AppendInt(body, int64(fb.Rater), 10)
		body = append(body, `,"subject":`...)
		body = strconv.AppendInt(body, int64(fb.Subject), 10)
		body = append(body, `,"value":`...)
		body = strconv.AppendFloat(body, fb.Value, 'f', 6, 64)
		body = append(body, '}')
	}
	body = append(body, ']')
	for _, c := range []struct {
		name string
		in   []byte
		keys FeedbackKeys
	}{
		{"body", body, RequestKeys},
		{"wal", appendFeedbackLines(nil, entries), WALKeys},
	} {
		b.Run(c.name, func(b *testing.B) {
			dst := make([]Feedback, 0, len(entries))
			b.SetBytes(int64(len(c.in)))
			b.ReportAllocs()
			for b.Loop() {
				var ok bool
				if dst, ok = ScanFeedbackBatch(dst, c.in, c.keys, 0); !ok || len(dst) != len(entries) {
					b.Fatalf("scanned %d entries, ok %v", len(dst), ok)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(entries)), "ns/entry")
		})
	}
}
