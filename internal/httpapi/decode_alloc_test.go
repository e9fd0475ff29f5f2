//go:build !race

package httpapi

import (
	"bytes"
	"strconv"
	"testing"

	"diffgossip/internal/store"
)

// canonicalBatch is a 1,024-entry batch body in the spelling clients send.
func canonicalBatch() []byte {
	const size = 1024
	body := []byte{'['}
	for k := 0; k < size; k++ {
		if k > 0 {
			body = append(body, ',')
		}
		body = append(body, `{"rater":`...)
		body = strconv.AppendInt(body, int64(k%64), 10)
		body = append(body, `,"subject":`...)
		body = strconv.AppendInt(body, int64((k+1)%64), 10)
		body = append(body, `,"value":`...)
		body = strconv.AppendFloat(body, float64(k)/size, 'f', 6, 64)
		body = append(body, `,"unix_nano":`...)
		body = strconv.AppendInt(body, 1_700_000_000_000_000_000+int64(k), 10)
		body = append(body, '}')
	}
	return append(body, ']')
}

// TestDecodeBatchAllocs pins the decode mechanism as a count (without the
// race detector, which changes what allocates): a canonical 1,024-entry body
// costs the entries slice and the caller's reader, not one allocation per
// entry — 1,046 through encoding/json. The pooled body buffer is warm after
// the first call.
func TestDecodeBatchAllocs(t *testing.T) {
	body := canonicalBatch()
	avg := testing.AllocsPerRun(50, func() {
		entries, err := DecodeBatch(bytes.NewReader(body), DefaultMaxBatch)
		if err != nil || len(entries) != 1024 {
			t.Fatalf("decoded %d entries: %v", len(entries), err)
		}
	})
	t.Logf("%.0f allocations per 1024-entry body", avg)
	if avg > 4 {
		t.Fatalf("DecodeBatch of a canonical 1024-entry body allocates %.1f times, want at most 4", avg)
	}
}

// TestDecodeEntriesWarmAllocs: the batch route decodes into a pooled entry
// slice, so once that slice has held a batch of this size, decoding the next
// one allocates nothing.
func TestDecodeEntriesWarmAllocs(t *testing.T) {
	body := canonicalBatch()
	var dst []store.Feedback
	if avg := testing.AllocsPerRun(50, func() {
		var err error
		if dst, err = decodeEntries(dst[:0], body, DefaultMaxBatch); err != nil || len(dst) != 1024 {
			t.Fatalf("decoded %d entries: %v", len(dst), err)
		}
	}); avg != 0 {
		t.Fatalf("decoding into a warm entry slice allocates %.1f times, want 0", avg)
	}
}
