//go:build !race

package httpapi

import (
	"bytes"
	"strconv"
	"testing"
)

// TestDecodeBatchAllocs pins the decode mechanism as a count (without the
// race detector, which changes what allocates): a canonical 1,024-entry body
// costs the entries slice and the caller's reader, not one allocation per
// entry — 1,046 through encoding/json. The pooled body buffer is warm after
// the first call.
func TestDecodeBatchAllocs(t *testing.T) {
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
	body = append(body, ']')
	avg := testing.AllocsPerRun(50, func() {
		entries, err := DecodeBatch(bytes.NewReader(body), DefaultMaxBatch)
		if err != nil || len(entries) != size {
			t.Fatalf("decoded %d entries: %v", len(entries), err)
		}
	})
	t.Logf("%.0f allocations per %d-entry body", avg, size)
	if avg > 4 {
		t.Fatalf("DecodeBatch of a canonical %d-entry body allocates %.1f times, want at most 4", size, avg)
	}
}
