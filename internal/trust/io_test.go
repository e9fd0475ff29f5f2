package trust

import (
	"bytes"
	"encoding/gob"
	"testing"
)

func TestLoadRejectsOversizedN(t *testing.T) {
	// Regression: a corrupt wire header claiming N=2^40 must be an error, not
	// an out-of-range Θ(N) allocation before any entry is read.
	wire := columnsWire{N: 1 << 40, Version: wireVersion}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadColumns(&buf); err == nil {
		t.Fatal("oversized column set accepted")
	}
}
