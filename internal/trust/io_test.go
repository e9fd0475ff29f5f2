package trust

import (
	"encoding/binary"
	"testing"
)

func TestLoadRejectsOversizedN(t *testing.T) {
	// Regression: a corrupt section header claiming N above the wire bound
	// must be an error, not an out-of-range Θ(N) allocation before any entry
	// is read.
	le := binary.LittleEndian
	b := le.AppendUint32(le.AppendUint32(nil, maxWireN+1), 0)
	b = le.AppendUint32(le.AppendUint32(b, 1), 0) // origin table [""]
	if _, _, err := DecodeColumns(b); err == nil {
		t.Fatal("oversized column set accepted")
	}
	// The same section at the bound loads.
	le.PutUint32(b, maxWireN)
	if _, _, err := DecodeColumns(b); err != nil {
		t.Fatal(err)
	}
}
