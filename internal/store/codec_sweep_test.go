//go:build !race

package store

import (
	"encoding/json"
	"math"
	"strconv"
	"testing"

	"diffgossip/internal/rng"
)

// The sweep runs one goroutine, so the race detector would only slow it down
// tenfold; the file is built without it.

// TestShortDecimalSweep holds both hand-written number paths to the
// definition over 1,000,000 seeded random short decimals ±D·10^e, D of 1 to
// 17 digits and e in −25..14, each spelled at random as a plain decimal, as
// d.ddd with an exponent, or as D with one (e or E, with or without '+').
// AppendFeedback must write json.Marshal's bytes for the value, and the
// scanner, reading the literals as batches of objects, the bits
// encoding/json decodes from them.
func TestShortDecimalSweep(t *testing.T) {
	const count, chunk = 1_000_000, 1000
	src := rng.New(52)
	var (
		lit, got, want []byte
		body, array    []byte
		scanned        []Feedback
		decoded        []float64
		short          int
	)
	const head = `{"seq":0,"rater":0,"subject":0,"value":`
	for k := 0; k < count; k++ {
		lit = randomDecimal(lit[:0], src)
		v, err := strconv.ParseFloat(string(lit), 64)
		if err != nil {
			t.Fatalf("%s: %v", lit, err)
		}
		fb := Feedback{Value: v}
		got = AppendFeedback(got[:0], &fb)
		m, _ := json.Marshal(v)
		want = append(append(append(want[:0], head...), m...), '}')
		if string(got) != string(want) {
			t.Fatalf("%s: AppendFeedback wrote %s, json.Marshal says %s", lit, got, want)
		}
		if _, ok := appendShortDecimal(nil, v); ok {
			short++
		}

		if len(body) == 0 {
			body, array = append(body, '['), append(array, '[')
		} else {
			body, array = append(body, ','), append(array, ',')
		}
		body = append(append(append(body, `{"value":`...), lit...), '}')
		array = append(array, lit...)
		if k%chunk != chunk-1 {
			continue
		}
		body, array = append(body, ']'), append(array, ']')
		var ok bool
		if scanned, ok = ScanFeedbackBatch(scanned, body, RequestKeys, 0); !ok || len(scanned) != chunk {
			t.Fatalf("scanner refused a batch of canonical literals (%d scanned): %s", len(scanned), body)
		}
		decoded = decoded[:0]
		if err := json.Unmarshal(array, &decoded); err != nil {
			t.Fatal(err)
		}
		for i := range scanned {
			if math.Float64bits(scanned[i].Value) != math.Float64bits(decoded[i]) {
				t.Fatalf("literal %d of %s: scanned %v, encoding/json says %v", i, array, scanned[i].Value, decoded[i])
			}
		}
		body, array = body[:0], array[:0]
	}
	t.Logf("%d of %d values took the short-decimal path", short, count)
	if short < count/4 {
		t.Fatalf("only %d of %d values took the short-decimal path: the sweep misses it", short, count)
	}
}

// randomDecimal appends a random JSON number literal for ±D·10^e (see
// TestShortDecimalSweep).
func randomDecimal(b []byte, src *rng.Source) []byte {
	if src.Intn(2) == 0 {
		b = append(b, '-')
	}
	var d [17]byte
	nd := 1 + src.Intn(len(d))
	d[0] = byte('1' + src.Intn(9))
	for i := 1; i < nd; i++ {
		d[i] = byte('0' + src.Intn(10))
	}
	digits := d[:nd]
	e := src.Intn(40) - 25
	switch src.Intn(3) {
	case 0: // plain
		switch {
		case e >= 0:
			b = append(b, digits...)
			for ; e > 0; e-- {
				b = append(b, '0')
			}
		case -e < nd:
			b = append(append(append(b, digits[:nd+e]...), '.'), digits[nd+e:]...)
		default:
			b = append(b, "0."...)
			for i := nd; i < -e; i++ {
				b = append(b, '0')
			}
			b = append(b, digits...)
		}
		return b
	case 1: // d.ddd with an exponent
		b = append(b, digits[0])
		if nd > 1 {
			b = append(append(b, '.'), digits[1:]...)
		}
		e += nd - 1
	default: // D with an exponent
		b = append(b, digits...)
	}
	b = append(b, "eE"[src.Intn(2)])
	if e >= 0 && src.Intn(2) == 0 {
		b = append(b, '+')
	}
	return strconv.AppendInt(b, int64(e), 10)
}
