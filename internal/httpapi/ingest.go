package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"diffgossip/internal/obs"
	"diffgossip/internal/store"
)

// The refused-request counter children, one per documented shed reason.
const (
	refusedOversized    = iota // body or batch over its limit → 413
	refusedMalformed           // bad JSON or invalid ratings → 400
	refusedBackpressure        // pending-fold window full → 429
	refusedInflight            // admission gate full → 503
	refusedCanceled            // client abandoned the request → 499
	refusedReasons
)

// refusedLabels are the stable reason label values of
// dgserve_http_refused_total, indexed like the refused* constants.
var refusedLabels = [refusedReasons]string{
	"oversized", "malformed", "backpressure", "inflight", "canceled",
}

// ingressMetrics are the front door's own instruments, beyond the per-route
// middleware: why requests were refused, how many ratings arrived batched,
// and how many conditional reads short-circuited. Maintained always,
// exposed when a registry is configured.
type ingressMetrics struct {
	refused      [refusedReasons]obs.Counter
	batchRatings obs.Counter
	notModified  obs.Counter
}

func (m *ingressMetrics) register(reg *obs.Registry) {
	for i := range m.refused {
		reg.Counter("dgserve_http_refused_total",
			fmt.Sprintf("reason=%q", refusedLabels[i]),
			"HTTP requests refused by the front door, by shed reason: oversized (413), malformed (400), backpressure (429), inflight (503), canceled (499).",
			&m.refused[i])
	}
	reg.Counter("dgserve_http_batch_ratings_total", "",
		"Feedback ratings accepted through POST /v1/feedback/batch.", &m.batchRatings)
	reg.Counter("dgserve_http_not_modified_total", "",
		"Conditional reads answered 304 from the fold-point ETag.", &m.notModified)
}

// overloaded reports whether the pending-fold window exceeds MaxPending —
// the backpressure condition. One atomic load; negative MaxPending disables.
func (s *Server) overloaded() bool {
	return s.cfg.MaxPending > 0 && s.svc.Pending() >= s.cfg.MaxPending
}

// retryAfterSeconds derives the Retry-After horizon from the epoch cadence:
// pending feedback drains at the next fold, so one interval (rounded up, at
// least a second) is when capacity realistically returns.
func (s *Server) retryAfterSeconds() int {
	secs := int(math.Ceil(s.cfg.EpochEvery.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// shedBackpressure answers 429 with the Retry-After horizon. The check runs
// BEFORE the request body is read: refusing is nearly free, which is exactly
// what keeps read latency flat while writers flood.
func (s *Server) shedBackpressure(w http.ResponseWriter) {
	s.m.refused[refusedBackpressure].Inc()
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	writeError(w, http.StatusTooManyRequests,
		fmt.Errorf("httpapi: %d entries pending, max %d — retry after the next fold", s.svc.Pending(), s.cfg.MaxPending))
}

// FeedbackRequest is the POST /v1/feedback body (and the element shape of a
// batch). UnixNano optionally pins the entry's last-writer-wins coordinate —
// deterministic replays and cross-replica tests use it; live clients omit it
// and the server stamps ingest time.
type FeedbackRequest struct {
	Rater   int     `json:"rater"`
	Subject int     `json:"subject"`
	Value   float64 `json:"value"`
	// UnixNano is optional: 0 means "stamp at ingest".
	UnixNano int64 `json:"unix_nano,omitempty"`
}

// FeedbackResponse acknowledges an accepted feedback entry. The entry is
// durable in the ledger but not yet visible to reads — hence 202 Accepted —
// and will be folded once its subject's shard epoch reaches Seq (watch the
// reputation response's seq field). Shard identifies the subject shard the
// entry dirtied.
type FeedbackResponse struct {
	Seq     uint64 `json:"seq"`
	Shard   int    `json:"shard"`
	Pending int    `json:"pending"`
	Epoch   uint64 `json:"epoch"`
}

// ingestError maps a submit failure to its documented status and refused
// reason, handling the overload contract's 400/499/500 split in one place.
func (s *Server) ingestError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// Nothing reached the WAL: SubmitCtx/SubmitBatch check the context
		// before touching the ledger.
		s.m.refused[refusedCanceled].Inc()
		writeError(w, StatusClientClosedRequest, err)
	case errors.Is(err, store.ErrInvalidFeedback):
		s.m.refused[refusedMalformed].Inc()
		writeError(w, http.StatusBadRequest, err)
	default:
		// WAL I/O or other server-side failure: the client should retry.
		writeError(w, http.StatusInternalServerError, err)
	}
}

// feedback is the ledger entry the request asks for.
func (req FeedbackRequest) feedback() store.Feedback {
	return store.Feedback{Rater: req.Rater, Subject: req.Subject, Value: req.Value, UnixNano: req.UnixNano}
}

// bodyPool recycles the buffers ingest bodies are read into; no decoded
// entry aliases its body, so a buffer goes back as soon as decoding ends.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads r to its end (or its http.MaxBytesReader's limit, whose
// error comes back as is) into a pooled buffer the caller Puts back.
func readBody(r io.Reader) (*bytes.Buffer, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(r)
	return buf, err
}

// decodeError maps a request-body decode failure: over-limit bodies and
// over-long batches are 413, everything else malformed 400.
func (s *Server) decodeError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) || errors.Is(err, ErrBatchTooLarge) {
		s.m.refused[refusedOversized].Inc()
		writeError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	s.m.refused[refusedMalformed].Inc()
	writeError(w, http.StatusBadRequest, fmt.Errorf("bad feedback body: %w", err))
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	if s.overloaded() {
		s.shedBackpressure(w)
		return
	}
	req, err := decodeSingle(http.MaxBytesReader(w, r.Body, maxSingleBody))
	if err != nil {
		s.decodeError(w, err)
		return
	}
	seq, err := s.svc.SubmitCtx(r.Context(), req.Rater, req.Subject, req.Value, req.UnixNano)
	if err != nil {
		s.ingestError(w, err)
		return
	}
	writeAck(w, FeedbackResponse{
		Seq:     seq,
		Shard:   store.ShardOf(req.Subject, s.svc.Shards()),
		Pending: s.svc.Pending(),
		Epoch:   s.svc.Epochs(),
	})
}

// decodeSingle parses a POST /v1/feedback body, buffered and decoded like
// DecodeBatch's: exactly one FeedbackRequest object, then only whitespace —
// a second rating dropped silently behind a 202 would be a lost write.
func decodeSingle(r io.Reader) (store.Feedback, error) {
	buf, err := readBody(r)
	defer bodyPool.Put(buf)
	if err != nil {
		return store.Feedback{}, err
	}
	var fb store.Feedback
	if store.ScanFeedback(buf.Bytes(), store.RequestKeys, &fb) {
		return fb, nil
	}
	var req FeedbackRequest
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return store.Feedback{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return store.Feedback{}, errors.New("httpapi: trailing data after feedback object")
	}
	return req.feedback(), nil
}

// BatchResponse acknowledges an accepted feedback batch: Accepted entries
// were assigned the contiguous sequence range [FirstSeq, LastSeq] and are on
// disk behind one fsync. Like the single ack it is 202 Accepted — visibility
// still waits for each subject's shard to fold.
type BatchResponse struct {
	Accepted int    `json:"accepted"`
	FirstSeq uint64 `json:"first_seq"`
	LastSeq  uint64 `json:"last_seq"`
	Pending  int    `json:"pending"`
	Epoch    uint64 `json:"epoch"`
}

// ErrBatchTooLarge reports a batch body with more entries than the server's
// MaxBatch limit; the front door maps it to 413.
var ErrBatchTooLarge = errors.New("httpapi: batch exceeds entry limit")

// handleFeedbackBatch ingests up to MaxBatch ratings in one request body —
// a JSON array or JSON lines of FeedbackRequest objects — amortizing one
// WAL write and ONE fsync across the whole batch (service.SubmitBatch).
// The batch is atomic: any malformed or invalid entry rejects it all, so a
// 202 means every rating is durable. Backpressure applies before the body
// is read and the byte limit before any of it is parsed: over MaxBodyBytes
// is 413 whatever the bytes are, then over MaxBatch entries is 413 with
// ErrBatchTooLarge's text, and only then is a syntax error 400.
func (s *Server) handleFeedbackBatch(w http.ResponseWriter, r *http.Request) {
	if s.overloaded() {
		s.shedBackpressure(w)
		return
	}
	buf, err := readBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	pooled := entryPool.Get().(*[]store.Feedback)
	defer func() {
		bodyPool.Put(buf)
		entryPool.Put(pooled)
	}()
	if err != nil {
		s.decodeError(w, err)
		return
	}
	entries, err := decodeEntries((*pooled)[:0], buf.Bytes(), s.cfg.MaxBatch)
	if err != nil {
		s.decodeError(w, err)
		return
	}
	*pooled = entries[:0] // SubmitBatch copies the entries; the backing goes back
	first, last, err := s.svc.SubmitBatch(r.Context(), entries)
	if err != nil {
		s.ingestError(w, err)
		return
	}
	s.m.batchRatings.Add(uint64(len(entries)))
	writeAck(w, BatchResponse{
		Accepted: len(entries),
		FirstSeq: first,
		LastSeq:  last,
		Pending:  s.svc.Pending(),
		Epoch:    s.svc.Epochs(),
	})
}

// entryPool recycles the entry slices batch POSTs decode into: SubmitBatch
// copies a batch into the ledger's pending window, so its slice is free
// again once the submit returns.
var entryPool = sync.Pool{New: func() any { return new([]store.Feedback) }}

// ackPool recycles the buffers ingest acknowledgements are encoded into.
var ackPool = sync.Pool{New: func() any { return new([]byte) }}

// writeAck answers 202 with ack's JSON, appended into a pooled buffer in
// place of writeJSON's encoding/json.
func writeAck[A interface{ appendJSON([]byte) []byte }](w http.ResponseWriter, ack A) {
	buf := ackPool.Get().(*[]byte)
	*buf = ack.appendJSON((*buf)[:0])
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	w.Write(*buf)
	ackPool.Put(buf)
}

// appendJSON appends what json.NewEncoder(w).Encode(r) writes, newline
// included (TestAckEncodersMatchEncodingJSON).
func (r FeedbackResponse) appendJSON(b []byte) []byte {
	b = strconv.AppendUint(append(b, `{"seq":`...), r.Seq, 10)
	b = strconv.AppendInt(append(b, `,"shard":`...), int64(r.Shard), 10)
	b = strconv.AppendInt(append(b, `,"pending":`...), int64(r.Pending), 10)
	b = strconv.AppendUint(append(b, `,"epoch":`...), r.Epoch, 10)
	return append(b, "}\n"...)
}

// appendJSON appends what json.NewEncoder(w).Encode(r) writes, newline
// included (TestAckEncodersMatchEncodingJSON).
func (r BatchResponse) appendJSON(b []byte) []byte {
	b = strconv.AppendInt(append(b, `{"accepted":`...), int64(r.Accepted), 10)
	b = strconv.AppendUint(append(b, `,"first_seq":`...), r.FirstSeq, 10)
	b = strconv.AppendUint(append(b, `,"last_seq":`...), r.LastSeq, 10)
	b = strconv.AppendInt(append(b, `,"pending":`...), int64(r.Pending), 10)
	b = strconv.AppendUint(append(b, `,"epoch":`...), r.Epoch, 10)
	return append(b, "}\n"...)
}

// DecodeBatch parses a batch request body — either one JSON array of
// FeedbackRequest objects or a stream of them (JSON lines) — into ledger
// entries, enforcing maxBatch (ErrBatchTooLarge beyond it; 0 or negative
// means unlimited). Unknown fields and empty batches are errors: a batch is
// an ingest contract, not a lenient import.
//
// The body is read whole before anything is parsed, so a read error — in the
// handler, the *http.MaxBytesError of a body over MaxBodyBytes — wins over
// whatever the bytes held. store.ScanFeedbackBatch takes the canonical
// spelling without allocating per entry; decodeBatchJSON decodes anything
// else again from the start and words every refusal (FuzzBatchDecode).
func DecodeBatch(r io.Reader, maxBatch int) ([]store.Feedback, error) {
	buf, err := readBody(r)
	defer bodyPool.Put(buf)
	if err != nil {
		return nil, err
	}
	return decodeEntries(nil, buf.Bytes(), maxBatch)
}

// decodeEntries is DecodeBatch's parse of a read body, into dst[:0]; it
// allocates only when dst is too small for the body's entries, and
// nothing at all once a pooled dst is warm (TestDecodeEntriesWarmAllocs).
func decodeEntries(dst []store.Feedback, body []byte, maxBatch int) ([]store.Feedback, error) {
	// A well-formed body has one '{' per entry; a hostile one is capped.
	hint := bytes.Count(body, []byte{'{'})
	if maxBatch > 0 && hint > maxBatch {
		hint = maxBatch
	}
	if cap(dst) < hint {
		dst = make([]store.Feedback, 0, hint)
	}
	if scanned, ok := store.ScanFeedbackBatch(dst, body, store.RequestKeys, maxBatch); ok {
		return scanned, nil
	}
	return decodeBatchJSON(dst, body, maxBatch)
}

// decodeBatchJSON is DecodeBatch by encoding/json, appending to entries[:0].
func decodeBatchJSON(entries []store.Feedback, body []byte, maxBatch int) ([]store.Feedback, error) {
	body = bytes.TrimLeft(body, " \t\r\n")
	if len(body) == 0 {
		return nil, fmt.Errorf("httpapi: empty batch body: %w", io.EOF)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	entries = entries[:0]
	add := func(req FeedbackRequest) error {
		if maxBatch > 0 && len(entries) >= maxBatch {
			return fmt.Errorf("%w: max %d entries", ErrBatchTooLarge, maxBatch)
		}
		entries = append(entries, req.feedback())
		return nil
	}
	if body[0] == '[' {
		if _, err := dec.Token(); err != nil { // consume '['
			return nil, err
		}
		for dec.More() {
			var req FeedbackRequest
			if err := dec.Decode(&req); err != nil {
				return nil, err
			}
			if err := add(req); err != nil {
				return nil, err
			}
		}
		if _, err := dec.Token(); err != nil { // consume ']'
			return nil, err
		}
		if t, err := dec.Token(); err != io.EOF {
			return nil, fmt.Errorf("httpapi: trailing data after batch array: %v", t)
		}
	} else {
		for {
			var req FeedbackRequest
			if err := dec.Decode(&req); err == io.EOF {
				break
			} else if err != nil {
				return nil, err
			}
			if err := add(req); err != nil {
				return nil, err
			}
		}
	}
	if len(entries) == 0 {
		return nil, errors.New("httpapi: empty batch")
	}
	return entries, nil
}
