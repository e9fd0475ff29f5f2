package store

import (
	"encoding/json"
	"math"
	"strconv"
)

// This file is the write path's one Feedback codec: AppendFeedback writes
// the JSON line the ledger appends, ScanFeedback and ScanFeedbackBatch read
// WAL lines and request bodies back, and neither allocates per entry.
// encoding/json remains the DEFINITION of both directions. The encoder is
// byte-identical to json.Marshal(Feedback) (FuzzFeedbackEncode). The scanner
// takes only the canonical spelling clients and AppendFeedback emit, answers
// "not canonical" at the first byte it cannot account for, and never words an
// error: its callers (Ledger.replay, httpapi's two POST routes) then hand the
// same bytes to encoding/json, which alone defines what else is accepted and
// words every refusal (FuzzFeedbackDecode, httpapi.FuzzBatchDecode).

// FeedbackKeys is a set of Feedback JSON keys; the scanner accepts an object
// only if each of its keys is in the caller's set, at most once.
type FeedbackKeys uint8

const (
	keySeq FeedbackKeys = 1 << iota
	keyRater
	keySubject
	keyValue
	keyUnixNano
	keyOrigin
	keyOriginSeq

	// RequestKeys are httpapi.FeedbackRequest's: no seq, no origin tags.
	RequestKeys = keyRater | keySubject | keyValue | keyUnixNano
	// WALKeys are the keys of a ledger line: every persisted Feedback field.
	WALKeys = RequestKeys | keySeq | keyOrigin | keyOriginSeq
)

// AppendFeedback appends fb's JSON object to dst — exactly the bytes
// json.Marshal(*fb) returns (no trailing newline). fb.Value must be finite,
// which every ledger path has established (Ledger.check) before it encodes.
func AppendFeedback(dst []byte, fb *Feedback) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, fb.Seq, 10)
	dst = append(dst, `,"rater":`...)
	dst = strconv.AppendInt(dst, int64(fb.Rater), 10)
	dst = append(dst, `,"subject":`...)
	dst = strconv.AppendInt(dst, int64(fb.Subject), 10)
	dst = append(dst, `,"value":`...)
	// encoding/json's float rule: shortest digits, 'f' unless the magnitude is
	// below 1e-6 or at least 1e21, then 'e' with e-09 cleaned up to e-9.
	format := byte('f')
	if abs := math.Abs(fb.Value); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, fb.Value, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	if fb.UnixNano != 0 {
		dst = append(dst, `,"unix_nano":`...)
		dst = strconv.AppendInt(dst, fb.UnixNano, 10)
	}
	if fb.Origin != "" {
		dst = append(dst, `,"origin":`...)
		dst = appendJSONString(dst, fb.Origin)
	}
	if fb.OriginSeq != 0 {
		dst = append(dst, `,"origin_seq":`...)
		dst = strconv.AppendUint(dst, fb.OriginSeq, 10)
	}
	return append(dst, '}')
}

// appendJSONString quotes s: plain printable ASCII is copied, anything
// encoding/json would escape or repair (", \, <, >, &, control bytes,
// non-ASCII) is left to it.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string cannot fail to marshal
			return append(dst, b...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// ScanFeedback reports whether b is exactly one canonical Feedback object
// with nothing but JSON whitespace around it, and if so stores it in *fb
// (absent keys zero); on false *fb is untouched and encoding/json decodes b.
func ScanFeedback(b []byte, keys FeedbackKeys, fb *Feedback) bool {
	var out Feedback
	if i, ok := scanObject(b, skipSpace(b, 0), keys, &out); !ok || skipSpace(b, i) != len(b) {
		return false
	}
	*fb = out
	return true
}

// ScanFeedbackBatch reports whether b is a canonical batch — a JSON array of
// Feedback objects, or a stream of them separated by optional whitespace —
// of 1 to limit entries (limit <= 0: unlimited), and if so returns them
// appended to dst[:0]; on false encoding/json decodes b and words the refusal.
func ScanFeedbackBatch(dst []Feedback, b []byte, keys FeedbackKeys, limit int) ([]Feedback, bool) {
	dst = dst[:0]
	i := skipSpace(b, 0)
	array := i < len(b) && b[i] == '['
	if array {
		i = skipSpace(b, i+1)
	}
	for i < len(b) && b[i] == '{' {
		if limit > 0 && len(dst) >= limit {
			return nil, false
		}
		dst = append(dst, Feedback{})
		var ok bool
		if i, ok = scanObject(b, i, keys, &dst[len(dst)-1]); !ok {
			return nil, false
		}
		i = skipSpace(b, i)
		if !array {
			continue
		}
		if i == len(b) || b[i] != ',' {
			break
		}
		if i = skipSpace(b, i+1); i == len(b) || b[i] != '{' {
			return nil, false // "[{…},]"
		}
	}
	if array {
		if i == len(b) || b[i] != ']' {
			return nil, false
		}
		i = skipSpace(b, i+1)
	}
	return dst, i == len(b) && len(dst) > 0
}

// skipSpace returns the index of the first non-whitespace byte at or after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// scanObject scans one canonical object at b[i] into *fb (partly written on
// false) and returns the index past its closing brace. Canonical: at least
// one member; keys spelled exactly, drawn from keys, none repeated;
// values as scanUint, scanInt, scanFloat and scanString take them.
func scanObject(b []byte, i int, keys FeedbackKeys, fb *Feedback) (int, bool) {
	if i >= len(b) || b[i] != '{' {
		return 0, false
	}
	var seen FeedbackKeys
	for {
		if i = skipSpace(b, i+1); i >= len(b) || b[i] != '"' {
			return 0, false
		}
		start := i + 1
		for i = start; i < len(b) && b[i] != '"'; i++ {
		}
		if i >= len(b) {
			return 0, false
		}
		var key FeedbackKeys
		switch string(b[start:i]) {
		case "seq":
			key = keySeq
		case "rater":
			key = keyRater
		case "subject":
			key = keySubject
		case "value":
			key = keyValue
		case "unix_nano":
			key = keyUnixNano
		case "origin":
			key = keyOrigin
		case "origin_seq":
			key = keyOriginSeq
		}
		if key&keys == 0 || key&seen != 0 {
			return 0, false
		}
		seen |= key
		if i = skipSpace(b, i+1); i >= len(b) || b[i] != ':' {
			return 0, false
		}
		i = skipSpace(b, i+1)
		var n int64
		var ok bool
		switch key {
		case keySeq:
			fb.Seq, i, ok = scanUint(b, i)
		case keyOriginSeq:
			fb.OriginSeq, i, ok = scanUint(b, i)
		case keyRater, keySubject:
			// Like encoding/json, refuse what does not fit the platform's int.
			if n, i, ok = scanInt(b, i); int64(int(n)) != n {
				return 0, false
			} else if key == keyRater {
				fb.Rater = int(n)
			} else {
				fb.Subject = int(n)
			}
		case keyUnixNano:
			fb.UnixNano, i, ok = scanInt(b, i)
		case keyValue:
			fb.Value, i, ok = scanFloat(b, i)
		case keyOrigin:
			fb.Origin, i, ok = scanString(b, i)
		}
		if i = skipSpace(b, i); !ok || i >= len(b) || (b[i] != ',' && b[i] != '}') {
			return 0, false
		}
		if b[i] == '}' {
			return i + 1, true
		}
	}
}

// scanDigits returns the index past the digits starting at b[i], provided
// they are a JSON integer part: non-empty, "0" alone or no leading zero.
func scanDigits(b []byte, i int) (int, bool) {
	start := i
	for i < len(b) && b[i]-'0' <= 9 {
		i++
	}
	return i, i > start && (b[start] != '0' || i-start == 1)
}

// scanUint scans a JSON integer of at most 19 digits (a wall-clock unix_nano
// has 19), which always fits a uint64. A sign, fraction or exponent is the
// caller's "unexpected byte"; overflow rules stay with encoding/json.
func scanUint(b []byte, i int) (uint64, int, bool) {
	end, ok := scanDigits(b, i)
	if !ok || end-i > 19 {
		return 0, 0, false
	}
	var v uint64
	for ; i < end; i++ {
		v = v*10 + uint64(b[i]-'0')
	}
	return v, end, true
}

// scanInt is scanUint with an optional leading '-', for magnitudes up to
// math.MaxInt64; math.MinInt64 itself is left to encoding/json.
func scanInt(b []byte, i int) (int64, int, bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	v, end, ok := scanUint(b, i)
	if neg {
		return -int64(v), end, ok && v <= math.MaxInt64
	}
	return int64(v), end, ok && v <= math.MaxInt64
}

// scanFloat validates a JSON number literal (ParseFloat alone would also take
// hex floats, underscores, "inf", "nan") and converts it as encoding/json
// does; out of range is not canonical. The string conversion does not
// allocate up to 32 bytes: ParseFloat does not retain its argument.
func scanFloat(b []byte, i int) (float64, int, bool) {
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	i, ok := scanDigits(b, i)
	if !ok {
		return 0, 0, false
	}
	if i < len(b) && b[i] == '.' {
		frac := i + 1
		for i = frac; i < len(b) && b[i]-'0' <= 9; i++ {
		}
		if i == frac {
			return 0, 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		exp := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
		}
		if i == exp {
			return 0, 0, false
		}
	}
	v, err := strconv.ParseFloat(string(b[start:i]), 64)
	return v, i, err == nil
}

// scanString scans a JSON string of escape-free printable ASCII.
func scanString(b []byte, i int) (string, int, bool) {
	if i >= len(b) || b[i] != '"' {
		return "", 0, false
	}
	start := i + 1
	for i = start; i < len(b) && b[i] != '"'; i++ {
		if b[i] < 0x20 || b[i] > 0x7e || b[i] == '\\' {
			return "", 0, false
		}
	}
	if i >= len(b) {
		return "", 0, false
	}
	return string(b[start:i]), i + 1, true
}
