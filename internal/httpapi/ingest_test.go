package httpapi

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"diffgossip/internal/core"
	"diffgossip/internal/graph"
	"diffgossip/internal/rng"
	"diffgossip/internal/service"
)

// newIngestServer builds a front door over a fresh in-memory service of 16
// nodes, driven through ServeHTTP.
func newIngestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	g, err := graph.PreferentialAttachment(graph.PAConfig{N: 16, M: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Config{Graph: g, Params: core.Params{Epsilon: 1e-6, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	cfg.Service = svc
	return New(cfg)
}

func post(srv *Server, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, strings.NewReader(body)))
	return rec
}

// wantOutcome asserts one response's status, how many entries the service
// admitted, and that the refusal — if any — was counted once under reason and
// nowhere else.
func wantOutcome(t *testing.T, srv *Server, rec *httptest.ResponseRecorder, status, pending int, reason string) {
	t.Helper()
	if rec.Code != status {
		t.Errorf("status %d, want %d: %s", rec.Code, status, rec.Body.String())
	}
	if got := srv.svc.Pending(); got != pending {
		t.Errorf("%d entries admitted, want %d", got, pending)
	}
	for i, label := range refusedLabels {
		want := uint64(0)
		if label == reason {
			want = 1
		}
		if got := srv.m.refused[i].Value(); got != want {
			t.Errorf("refused{reason=%q} = %d, want %d", label, got, want)
		}
	}
}

// TestSingleFeedbackTrailingData: after the one object of POST /v1/feedback
// only JSON whitespace may remain. Anything else — garbage or a second
// rating, which used to be dropped silently behind a 202 — is 400 malformed
// with nothing appended, whichever decoder read the object: the store's
// scanner (canonical spelling) or encoding/json (here, a case-folded key).
func TestSingleFeedbackTrailingData(t *testing.T) {
	const canonical = `{"rater":1,"subject":2,"value":0.5}`
	const folded = `{"Rater":1,"subject":2,"value":5e-1}`
	for name, c := range map[string]struct {
		body   string
		status int
	}{
		"scanner, garbage":        {canonical + ` garbage {"rater":9,"subject":3,"value":1}`, http.StatusBadRequest},
		"scanner, second rating":  {canonical + "\n" + `{"rater":9,"subject":3,"value":1}`, http.StatusBadRequest},
		"scanner, stray bracket":  {canonical + `]`, http.StatusBadRequest},
		"fallback, garbage":       {folded + ` garbage`, http.StatusBadRequest},
		"fallback, second rating": {folded + `{"rater":9,"subject":3,"value":1}`, http.StatusBadRequest},
		"scanner, whitespace":     {" \t" + canonical + " \r\n", http.StatusAccepted},
		"fallback, whitespace":    {"\n" + folded + "\n\n", http.StatusAccepted},
	} {
		t.Run(name, func(t *testing.T) {
			srv := newIngestServer(t, Config{})
			rec := post(srv, "/v1/feedback", c.body)
			if c.status == http.StatusAccepted {
				wantOutcome(t, srv, rec, c.status, 1, "")
				return
			}
			wantOutcome(t, srv, rec, c.status, 0, "malformed")
		})
	}
}

// TestBatchOversizeRule pins the order of the batch endpoint's refusals now
// that the body is buffered before it is parsed: the byte limit first (413
// whatever the bytes are — a syntax error in front of the limit no longer
// turns the answer into 400), then the entry limit (413, ErrBatchTooLarge's
// text), then syntax (400); a body inside both limits is accepted in any
// spelling encoding/json accepts.
func TestBatchOversizeRule(t *testing.T) {
	const entry = `{"rater":1,"subject":2,"value":0.5}`
	array := func(n int) string { return "[" + strings.Repeat(entry+",", n-1) + entry + "]" }
	const byteLimit = 64 << 10
	for name, c := range map[string]struct {
		cfg      Config
		body     string
		status   int
		admitted int
		reason   string
		text     string
	}{
		"over byte limit, canonical": {Config{MaxBodyBytes: byteLimit}, array(2048), http.StatusRequestEntityTooLarge, 0, "oversized", "request body too large"},
		"over byte limit, malformed": {Config{MaxBodyBytes: byteLimit}, "not json " + array(2048), http.StatusRequestEntityTooLarge, 0, "oversized", "request body too large"},
		"in limit, 4,097 entries":    {Config{}, array(DefaultMaxBatch + 1), http.StatusRequestEntityTooLarge, 0, "oversized", ErrBatchTooLarge.Error() + ": max 4096 entries"},
		"in limit, 4,096 entries":    {Config{MaxPending: -1}, array(DefaultMaxBatch), http.StatusAccepted, DefaultMaxBatch, "", ""},
		"in limit, malformed":        {Config{}, "not json " + array(8), http.StatusBadRequest, 0, "malformed", "invalid character"},
		"in limit, non-canonical":    {Config{}, `[{"Rater":1,"subject":2,"value":5e-1}, {"RATER":3,"subject":4,"value":0.25,"unix_nano":7}]`, http.StatusAccepted, 2, "", ""},
	} {
		t.Run(name, func(t *testing.T) {
			srv := newIngestServer(t, c.cfg)
			rec := post(srv, "/v1/feedback/batch", c.body)
			wantOutcome(t, srv, rec, c.status, c.admitted, c.reason)
			if !strings.Contains(rec.Body.String(), c.text) {
				t.Errorf("body %s does not mention %q", rec.Body.String(), c.text)
			}
		})
	}
}

// TestAckEncodersMatchEncodingJSON holds the hand-written ingest
// acknowledgements to json.NewEncoder(w).Encode, trailing newline included,
// over seeded values of every width and each field type's extremes; then
// both routes' 202 bodies and headers to what writeJSON wrote for them.
func TestAckEncodersMatchEncodingJSON(t *testing.T) {
	src := rng.New(5)
	u64s := []uint64{0, 1, math.MaxInt64, math.MaxInt64 + 1, math.MaxUint64}
	ints := []int{0, 1, -1, math.MinInt, math.MaxInt}
	u64 := func() uint64 {
		if src.Intn(4) == 0 {
			return u64s[src.Intn(len(u64s))]
		}
		return src.Uint64() >> src.Intn(64)
	}
	anInt := func() int {
		if src.Intn(4) == 0 {
			return ints[src.Intn(len(ints))]
		}
		return int(int64(src.Uint64()) >> src.Intn(64))
	}
	encode := func(v any) string {
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for k := 0; k < 5000; k++ {
		single := FeedbackResponse{Seq: u64(), Shard: anInt(), Pending: anInt(), Epoch: u64()}
		if got, want := string(single.appendJSON(nil)), encode(single); got != want {
			t.Fatalf("%+v encodes to %q, encoding/json says %q", single, got, want)
		}
		batch := BatchResponse{Accepted: anInt(), FirstSeq: u64(), LastSeq: u64(), Pending: anInt(), Epoch: u64()}
		if got, want := string(batch.appendJSON(nil)), encode(batch); got != want {
			t.Fatalf("%+v encodes to %q, encoding/json says %q", batch, got, want)
		}
	}

	srv := newIngestServer(t, Config{})
	for _, c := range []struct {
		target, body string
		ack          any
	}{
		{"/v1/feedback", `{"rater":1,"subject":2,"value":0.5}`, &FeedbackResponse{}},
		{"/v1/feedback/batch", `[{"rater":1,"subject":2,"value":0.5},{"rater":3,"subject":4,"value":0.25}]`, &BatchResponse{}},
	} {
		rec := post(srv, c.target, c.body)
		if rec.Code != http.StatusAccepted || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%s: status %d, Content-Type %q", c.target, rec.Code, rec.Header().Get("Content-Type"))
		}
		if err := json.Unmarshal(rec.Body.Bytes(), c.ack); err != nil {
			t.Fatal(err)
		}
		if want := encode(c.ack); rec.Body.String() != want {
			t.Fatalf("%s answered %q, encoding/json says %q", c.target, rec.Body.String(), want)
		}
	}
}
