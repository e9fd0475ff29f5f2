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
// Floats go one pass each way: the common shapes — short decimals out
// (appendShortDecimal), mantissas below 2^53 in (scanFloat) — skip
// strconv's float conversions, which take every other value as before
// (TestShortDecimalSweep holds both to encoding/json).

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
	var st stamp
	return st.appendFeedback(dst, fb)
}

// appendFeedbackLines appends each entry's object and a newline to dst: the
// WAL lines of one append. SubmitBatch stamps a whole batch with one clock
// read, so a unix_nano equal to the previous line's is copied from that line
// instead of being formatted again.
func appendFeedbackLines(dst []byte, entries []Feedback) []byte {
	var st stamp
	for i := range entries {
		dst = append(st.appendFeedback(dst, &entries[i]), '\n')
	}
	return dst
}

// stamp remembers the last unix_nano an encoder wrote and its digits, which
// alias the bytes already appended (only ever appended past, never changed).
type stamp struct {
	unixNano int64
	digits   []byte
}

func (st *stamp) appendFeedback(dst []byte, fb *Feedback) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, fb.Seq, 10)
	dst = append(dst, `,"rater":`...)
	dst = strconv.AppendInt(dst, int64(fb.Rater), 10)
	dst = append(dst, `,"subject":`...)
	dst = strconv.AppendInt(dst, int64(fb.Subject), 10)
	dst = append(dst, `,"value":`...)
	dst = appendFloat(dst, fb.Value)
	if fb.UnixNano != 0 {
		dst = append(dst, `,"unix_nano":`...)
		if fb.UnixNano == st.unixNano {
			dst = append(dst, st.digits...)
		} else {
			start := len(dst)
			dst = strconv.AppendInt(dst, fb.UnixNano, 10)
			st.unixNano, st.digits = fb.UnixNano, dst[start:]
		}
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

// appendFloat appends v as encoding/json spells a float64: the shortest
// digits that round back to v, 'f' unless the magnitude is below 1e-6 or at
// least 1e21, then 'e' with e-09 cleaned up to e-9. Short decimals, which is
// what clients send, take appendShortDecimal; the rest strconv.
func appendFloat(dst []byte, v float64) []byte {
	if out, ok := appendShortDecimal(dst, v); ok {
		return out
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// appendShortDecimal appends v's shortest 'f' spelling when v is ±0, or when
// 1e-6 <= |v| < 1e15 and v is the double nearest some decimal d of at most
// 15 significant digits, and reports false, having appended nothing,
// otherwise. It scales
// |v| to 15 significant digits, k = round(|v|·10^p), and accepts k only if
// k/10^p == |v| in float64: k and 10^p (p <= 21) are exact, so the one
// rounded division says that k·10^-p is a decimal of at most 15 digits that
// rounds to v. No two such decimals round to the same double (15 is DBL_DIG:
// 10^15 < 2^52), so it is d, and d is also the shortest decimal that rounds
// to v — anything shorter would be a second one. d's digits are k's with
// trailing zeros dropped. At 16 digits the uniqueness fails: scaled to 16,
// the double nearest −0.0009789858406818125 prints as
// −0.0009789858406818126 (FuzzFeedbackEncode, TestShortDecimalSweep).
func appendShortDecimal(dst []byte, v float64) ([]byte, bool) {
	abs := math.Abs(v)
	if v == 0 {
		if math.Signbit(v) {
			return append(dst, "-0"...), true
		}
		return append(dst, '0'), true
	}
	if !(abs >= 1e-6 && abs < 1e15) {
		return dst, false
	}
	// floor(e2·log10 2) is log10|v| rounded down, or one less: p is the
	// scale that gives k 15 digits, or one more, which the check below
	// takes back.
	e2 := int(math.Float64bits(abs)>>52) - 1023
	p := 14 - (e2*78913)>>18
	s := abs * pow10[p]
	if s >= 1e15 {
		p--
		s = abs * pow10[p]
	}
	k := uint64(s + 0.5) // s < 2^50, so s + 0.5 is exact: round half up
	if float64(k)/pow10[p] != abs {
		return dst, false
	}
	for p >= 4 && k%10000 == 0 {
		k /= 10000
		p -= 4
	}
	for p > 0 && k%10 == 0 {
		k /= 10
		p--
	}
	var buf [20]byte
	digits := strconv.AppendUint(buf[:0], k, 10)
	if v < 0 {
		dst = append(dst, '-')
	}
	switch n := len(digits); {
	case p == 0:
		dst = append(dst, digits...)
	case n > p:
		dst = append(append(append(dst, digits[:n-p]...), '.'), digits[n-p:]...)
	default: // p <= 21: at most 20 zeros after the point
		dst = append(append(dst, "0.00000000000000000000"[:2+p-n]...), digits...)
	}
	return dst, true
}

// pow10 holds the powers of ten a float64 holds exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

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

// scanUint scans a JSON integer of at most 19 digits (a wall-clock unix_nano
// has 19), which always fits a uint64, summing it as it checks it: digits,
// "0" alone or no leading zero. A sign, fraction or exponent is the caller's
// "unexpected byte"; overflow rules stay with encoding/json.
func scanUint(b []byte, i int) (uint64, int, bool) {
	start := i
	var v uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		v = v*10 + uint64(b[i]-'0')
	}
	n := i - start
	return v, i, n > 0 && n <= 19 && (b[start] != '0' || n == 1)
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
// does; out of range is not canonical. It sums the mantissa m as it checks
// the digits. When m has at most 19 digits, m < 2^53 and the decimal
// exponent e is within ±22, m and 10^|e| are exact float64s and the value is
// their one correctly rounded product or quotient — Clinger's fast path,
// which ParseFloat takes too, after reading the literal a second time. A
// zero mantissa is ±0 whatever its exponent. Anything else goes to
// ParseFloat, whose string conversion does not allocate up to 32 bytes: it
// does not retain its argument.
func scanFloat(b []byte, i int) (float64, int, bool) {
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	digits := i
	var m uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		m = m*10 + uint64(b[i]-'0')
	}
	nd := i - digits
	if nd == 0 || (b[digits] == '0' && nd > 1) {
		return 0, 0, false
	}
	var frac int
	if i < len(b) && b[i] == '.' {
		digits = i + 1
		for i = digits; i < len(b) && b[i]-'0' <= 9; i++ {
			m = m*10 + uint64(b[i]-'0')
		}
		if frac = i - digits; frac == 0 {
			return 0, 0, false
		}
		nd += frac
	}
	exp := 0
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		expNeg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		digits = i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if exp < 10000 {
				exp = exp*10 + int(b[i]-'0')
			}
		}
		if i == digits {
			return 0, 0, false
		}
		if expNeg {
			exp = -exp
		}
	}
	if e := exp - frac; nd <= 19 && (m == 0 || m>>53 == 0 && e >= -22 && e <= 22) {
		f := float64(m)
		switch {
		case m == 0:
		case e < 0:
			f /= pow10[-e]
		default:
			f *= pow10[e]
		}
		if neg {
			f = -f
		}
		return f, i, true
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
