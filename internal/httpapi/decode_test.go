package httpapi

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestDecodeBatchArray(t *testing.T) {
	entries, err := DecodeBatch(strings.NewReader(
		` [ {"rater":1,"subject":2,"value":0.5}, {"rater":3,"subject":4,"value":0.25,"unix_nano":77} ] `), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Rater != 1 || entries[1].UnixNano != 77 {
		t.Fatalf("decoded %+v", entries)
	}
}

func TestDecodeBatchJSONLines(t *testing.T) {
	body := "{\"rater\":1,\"subject\":2,\"value\":0.5}\n{\"rater\":3,\"subject\":4,\"value\":0.25}\n"
	entries, err := DecodeBatch(strings.NewReader(body), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[1].Subject != 4 {
		t.Fatalf("decoded %+v", entries)
	}
}

func TestDecodeBatchRejects(t *testing.T) {
	for name, body := range map[string]string{
		"empty body":       "",
		"whitespace only":  "  \n\t ",
		"empty array":      "[]",
		"trailing garbage": `[{"rater":1,"subject":2,"value":0.5}] extra`,
		"unknown field":    `[{"rater":1,"subject":2,"value":0.5,"bogus":1}]`,
		"truncated":        `[{"rater":1,"sub`,
		"not feedback":     `"just a string"`,
	} {
		if entries, err := DecodeBatch(strings.NewReader(body), 10); err == nil {
			t.Errorf("%s accepted: %+v", name, entries)
		}
	}
}

func TestDecodeBatchEntryLimit(t *testing.T) {
	body := `[{"rater":1,"subject":2,"value":0.5},{"rater":3,"subject":4,"value":0.5},{"rater":5,"subject":6,"value":0.5}]`
	if _, err := DecodeBatch(strings.NewReader(body), 2); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("3 entries under limit 2: err = %v, want ErrBatchTooLarge", err)
	}
	// 0 or negative = unlimited.
	if _, err := DecodeBatch(strings.NewReader(body), 0); err != nil {
		t.Fatalf("unlimited decode: %v", err)
	}
}

// FuzzBatchDecode holds DecodeBatch to its contract on arbitrary bodies —
// never panic, never return entries alongside an error, never return an
// empty batch without one, never exceed the entry limit — and to
// decodeBatchJSON, the encoding/json loop that defines the batch language, on
// the same bytes: same verdict, bit-equal entries, same error text. Whatever
// the store's scanner accepts on DecodeBatch's fast route, encoding/json
// would have accepted to the same entries.
func FuzzBatchDecode(f *testing.F) {
	f.Add([]byte(`[{"rater":1,"subject":2,"value":0.5}]`), 10)
	f.Add([]byte("{\"rater\":1,\"subject\":2,\"value\":0.5}\n{\"rater\":2,\"subject\":3,\"value\":0.25}"), 4096)
	f.Add([]byte(`[]`), 1)
	f.Add([]byte(` [ {"rater":0,"subject":0,"value":0} ] trailing`), 2)
	f.Add([]byte(`[{"rater":1,"subject":2,"value":0.5},`), 0)
	f.Add([]byte("\xff\xfe"), 3)
	f.Add([]byte(`[{"rater":1,"subject":2,"value":0.5},{"rater":3,"subject":4,"value":0.5},{"rater":5,"subject":6,"value":0.5}]`), 2)
	f.Add([]byte(`[{"rater":1,"subject":2,"value":0.5},]`), 4)
	f.Add([]byte(`[{"rater":1,"subject":2,"value":0.5} {"rater":1,"subject":2,"value":0.5}]`), 4)
	f.Add([]byte(`{"rater":1,"subject":2,"value":0.5}{"rater":1,"subject":2,"value":0.5,"unix_nano":1700000000000000000}`), 4)
	f.Add([]byte(`{"rater":1,"subject":2,"value":0.5} [{"rater":1,"subject":2,"value":0.5}]`), 4)
	f.Add([]byte(`[{"rater":1,"rater":2,"subject":2,"value":0.5}]`), 4)         // duplicate key
	f.Add([]byte(`[{"rater":null,"subject":2,"value":null}]`), 4)               // null
	f.Add([]byte(`[{"rater":01,"subject":2,"value":0.5}]`), 4)                  // leading zero
	f.Add([]byte(`[{"rater":1234567890123456789,"subject":2,"value":0.5}]`), 4) // 19-digit int
	f.Add([]byte(`[{"rater":-0,"subject":-0,"value":-0,"unix_nano":-0}]`), 4)   // -0
	f.Add([]byte(`[{"rater":1,"subject":2,"value":1e400}]`), 4)                 // float overflow
	f.Add([]byte(`[{"rater":1,"subject":2,"value":0.5`), 4)                     // unterminated object
	f.Add([]byte(`[{"rater":1,"subject":2,"value":0.1234567890123456789012345678901234567890}]`), 4)
	f.Add([]byte(`[{"Rater":1,"SUBJECT":2,"val\u0075e":5e-1}]`), 4)   // non-canonical but valid
	f.Add([]byte(`[{"seq":1,"rater":1,"subject":2,"value":0.5}]`), 4) // a WAL key is an unknown field here
	f.Add([]byte(`[{}]`), 4)
	// scanFloat's fast path and its edges: 15-, 16- and 17-digit mantissas
	// (2^53 lies between the last two), decimal exponents ±22 in and ±23 out.
	f.Add([]byte(`[{"rater":1,"subject":2,"value":0.123456789012345},{"rater":1,"subject":2,"value":9007199254740993}]`), 4)
	f.Add([]byte(`[{"rater":1,"subject":2,"value":0.30000000000000004}]`), 4)
	f.Add([]byte(`[{"rater":1,"subject":2,"value":1e22},{"rater":1,"subject":2,"value":1e-22}]`), 4)
	f.Add([]byte(`[{"rater":1,"subject":2,"value":1e23},{"rater":1,"subject":2,"value":-1E-23}]`), 4)
	f.Add([]byte(`[{"rater":1,"subject":2,"value":-0},{"rater":1,"subject":2,"value":0.000001},{"rater":1,"subject":2,"value":1E-6}]`), 4)
	f.Fuzz(func(t *testing.T, body []byte, maxBatch int) {
		want, wantErr := decodeBatchJSON(nil, body, maxBatch)
		entries, err := DecodeBatch(bytes.NewReader(body), maxBatch)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("DecodeBatch error %v, encoding/json says %v: %q", err, wantErr, body)
		}
		if err != nil {
			if entries != nil {
				t.Fatalf("entries %+v returned alongside error %v", entries, err)
			}
			return
		}
		if len(entries) == 0 {
			t.Fatal("nil error with an empty batch")
		}
		if maxBatch > 0 && len(entries) > maxBatch {
			t.Fatalf("%d entries decoded past limit %d", len(entries), maxBatch)
		}
		if len(entries) != len(want) {
			t.Fatalf("decoded %d entries, encoding/json says %d: %q", len(entries), len(want), body)
		}
		for k := range entries {
			got, w := entries[k], want[k]
			if math.Float64bits(got.Value) != math.Float64bits(w.Value) {
				t.Fatalf("entry %d value %v, encoding/json says %v: %q", k, got.Value, w.Value, body)
			}
			got.Value, w.Value = 0, 0
			if got != w {
				t.Fatalf("entry %d = %+v, encoding/json says %+v: %q", k, got, w, body)
			}
		}
	})
}
