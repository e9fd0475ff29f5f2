// Package httpapi is the production HTTP/JSON front door of the reputation
// service: the ingress surface cmd/dgserve serves and the surface the
// benchmark (benchmark/) drives, so every measured number exercises the real
// request path — batch ingest, backpressure, limits and conditional reads
// included.
//
// # Routes
//
//	POST /v1/feedback                    {"rater":i,"subject":j,"value":v}
//	POST /v1/feedback/batch              JSON array or JSON-lines of the same
//	GET  /v1/reputation/{subject}        global reputation (ETag/If-None-Match)
//	GET  /v1/reputation/{subject}?as=i   GCLR personalised view for rater i
//	GET  /v1/reputations                 streamed NDJSON dump of every subject
//	GET  /v1/epoch                       composite view metadata
//	POST /v1/epoch                       force an epoch now
//	GET  /v1/stats                       shard pipeline statistics (ETag)
//	GET  /v1/trace                       recent per-epoch fold traces
//	GET  /healthz                        liveness: 200 while the process serves
//	GET  /readyz                         readiness: 503 when degraded
//	GET  /metrics                        Prometheus text exposition
//
// # Overload contract
//
// The front door sheds load explicitly instead of queueing unboundedly, and
// every refusal has one documented status:
//
//   - 413 — body over the route's byte limit (judged before any of it is
//     parsed), or a batch over MaxBatch entries (reason "oversized");
//   - 400 — malformed JSON or invalid ratings (reason "malformed"); a batch
//     is all-or-nothing, a single is one object and then only whitespace;
//   - 429 + Retry-After — the pending-fold window exceeds MaxPending
//     (reason "backpressure"); Retry-After is derived from the epoch
//     cadence, and the condition is also a /readyz reason so dumb load
//     balancers rotate away;
//   - 503 — more than MaxInflight requests already in flight on the data
//     routes (reason "inflight"); probes and /metrics are never gated;
//   - 499 — the client abandoned the request before its entry was recorded
//     (reason "canceled"); nothing was written to the WAL.
//
// Each refusal increments dgserve_http_refused_total{reason=...} exactly
// once. Reads are served lock-free from the published per-shard snapshots;
// single-subject GETs and /v1/stats carry an ETag keyed by the shard fold
// point, so If-None-Match pollers cost one atomic load and a 304.
package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"diffgossip/internal/cluster"
	"diffgossip/internal/obs"
	"diffgossip/internal/service"
)

// Default limits applied when the corresponding Config field is zero.
const (
	// DefaultMaxBatch caps entries per POST /v1/feedback/batch.
	DefaultMaxBatch = 4096
	// DefaultMaxBodyBytes caps the batch request body size.
	DefaultMaxBodyBytes = 8 << 20
	// DefaultMaxPending is the pending-fold window size beyond which
	// feedback ingest answers 429.
	DefaultMaxPending = 65536
	// DefaultMaxInflight bounds concurrently served data-route requests.
	DefaultMaxInflight = 256
	// maxSingleBody caps the single-feedback request body: one rating is a
	// few dozen bytes, so anything near this limit is garbage.
	maxSingleBody = 4096
)

// StatusClientClosedRequest is the status reported when a request's context
// was canceled before its entry was recorded (nginx's 499 convention —
// there is no standard code for "the client hung up").
const StatusClientClosedRequest = 499

// Config parameterises a Server. Service is required; everything else has a
// serviceable zero value.
type Config struct {
	// Service is the reputation service the API fronts.
	Service *service.Service
	// Node is the cluster replication agent; nil outside cluster mode.
	// /v1/stats then carries peer health and /readyz watches membership.
	Node *cluster.Node
	// EpochEvery is the epoch scheduler interval (0 = manual epochs): it
	// bounds how long pending feedback may sit unfolded before /readyz
	// calls the scheduler stalled, and it sets the Retry-After horizon on
	// backpressure responses.
	EpochEvery time.Duration
	// Registry turns instrumentation on: request middleware on every route,
	// GET /metrics, readiness gauges and the refused-request counters. Nil
	// disables exposition (the counters are still maintained).
	Registry *obs.Registry
	// MaxBatch caps entries per batch POST (0 = DefaultMaxBatch).
	MaxBatch int
	// MaxBodyBytes caps the batch request body size in bytes
	// (0 = DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// MaxPending is the pending-fold window size beyond which feedback
	// ingest sheds with 429 (0 = DefaultMaxPending, negative = unlimited).
	MaxPending int
	// MaxInflight bounds concurrently served data-route requests; excess
	// requests answer 503 immediately (0 = DefaultMaxInflight, negative =
	// unlimited). Probes and /metrics are never gated.
	MaxInflight int
	// Started is the process start time used as the stall-detection floor;
	// zero means "now". Tests backdate it to simulate a long-running server.
	Started time.Time
}

// Server is the HTTP front door. Build one with New; it serves until its
// service closes.
type Server struct {
	cfg     Config
	svc     *service.Service
	node    *cluster.Node
	started time.Time
	mux     *http.ServeMux

	inflight atomic.Int64
	m        ingressMetrics
}

// New builds the HTTP surface over cfg.Service, applying the documented
// defaults for any zero limit.
func New(cfg Config) *Server {
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxPending == 0 {
		cfg.MaxPending = DefaultMaxPending
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.Started.IsZero() {
		cfg.Started = time.Now()
	}
	s := &Server{
		cfg: cfg, svc: cfg.Service, node: cfg.Node,
		started: cfg.Started, mux: http.NewServeMux(),
	}
	wrap := func(route string, h http.HandlerFunc) http.HandlerFunc { return h }
	if cfg.Registry != nil {
		wrap = obs.NewHTTPMetrics(cfg.Registry, "dgserve_http").Wrap
	}
	// Data routes sit behind the in-flight gate; probes and /metrics never
	// do — an overloaded server must still answer its load balancer.
	s.mux.HandleFunc("POST /v1/feedback", wrap("/v1/feedback", s.gated(s.handleFeedback)))
	s.mux.HandleFunc("POST /v1/feedback/batch", wrap("/v1/feedback/batch", s.gated(s.handleFeedbackBatch)))
	s.mux.HandleFunc("GET /v1/reputation/{subject}", wrap("/v1/reputation", s.gated(s.handleReputation)))
	s.mux.HandleFunc("GET /v1/reputations", wrap("/v1/reputations", s.gated(s.handleReputationDump)))
	s.mux.HandleFunc("GET /v1/epoch", wrap("/v1/epoch", s.gated(s.handleEpochGet)))
	s.mux.HandleFunc("POST /v1/epoch", wrap("/v1/epoch", s.gated(s.handleEpochPost)))
	s.mux.HandleFunc("GET /v1/stats", wrap("/v1/stats", s.gated(s.handleStats)))
	s.mux.HandleFunc("GET /v1/trace", wrap("/v1/trace", s.gated(s.handleTrace)))
	s.mux.HandleFunc("GET /healthz", wrap("/healthz", s.handleHealth))
	s.mux.HandleFunc("GET /readyz", wrap("/readyz", s.handleReady))
	if cfg.Registry != nil {
		s.mux.Handle("GET /metrics", cfg.Registry.Handler())
		s.m.register(cfg.Registry)
		cfg.Registry.GaugeFunc("dgserve_ready", "",
			"Readiness verdict mirrored from GET /readyz: 1 ready, 0 degraded.", func() float64 {
				if len(s.readyReasons()) == 0 {
					return 1
				}
				return 0
			})
		cfg.Registry.GaugeMapFunc("dgserve_unready_reason", "reason",
			"Active readiness-failure causes (1 = failing): epoch_pipeline_failed, membership_degraded, scheduler_stalled, backpressure.",
			func() map[string]float64 {
				out := map[string]float64{
					reasonEpochFailed: 0, reasonMembership: 0, reasonStalled: 0, reasonBackpressure: 0,
				}
				for _, r := range s.readyReasons() {
					out[r.key] = 1
				}
				return out
			})
	}
	return s
}

// ServeHTTP dispatches to the route table.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// gated wraps a data-route handler in the bounded in-flight admission gate:
// the accept path is one atomic add and one compare, the reject path answers
// 503 without touching the handler. MaxInflight < 0 disables the gate.
func (s *Server) gated(h http.HandlerFunc) http.HandlerFunc {
	if s.cfg.MaxInflight < 0 {
		return h
	}
	limit := int64(s.cfg.MaxInflight)
	return func(w http.ResponseWriter, r *http.Request) {
		if s.inflight.Add(1) > limit {
			s.inflight.Add(-1)
			s.m.refused[refusedInflight].Inc()
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable,
				fmt.Errorf("httpapi: %d requests already in flight", limit))
			return
		}
		defer s.inflight.Add(-1)
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// EpochResponse is the GET/POST /v1/epoch answer: the composite view's
// metadata plus the current ingest backlog. Epoch/Seq are the newest fold
// point any shard has published; Steps/ElapsedNs aggregate the newest
// epoch's folds; PerShard carries each shard's own fold point and timings.
type EpochResponse struct {
	Epoch       uint64              `json:"epoch"`
	Seq         uint64              `json:"seq"`
	Pending     int                 `json:"pending"`
	N           int                 `json:"n"`
	Shards      int                 `json:"shards"`
	DirtyShards int                 `json:"dirty_shards"`
	Steps       int                 `json:"steps"`
	Converged   bool                `json:"converged"`
	ElapsedNs   int64               `json:"elapsed_ns"`
	PerShard    []service.ShardStat `json:"per_shard"`
	// Ran reports, on POST /v1/epoch responses, whether an epoch actually
	// recomputed (false = nothing pending, shard snapshots unchanged).
	Ran bool `json:"ran"`
}

func (s *Server) epochInfo(view *service.View) EpochResponse {
	st := s.svc.Stats()
	return EpochResponse{
		Epoch:       view.Epoch(),
		Seq:         view.Seq(),
		Pending:     st.Pending,
		N:           view.N(),
		Shards:      view.Shards(),
		DirtyShards: st.DirtyShards,
		Steps:       view.Steps(),
		Converged:   view.Converged(),
		ElapsedNs:   view.ElapsedNs(),
		PerShard:    st.PerShard,
	}
}

func (s *Server) handleEpochGet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.epochInfo(s.svc.View()))
}

func (s *Server) handleEpochPost(w http.ResponseWriter, r *http.Request) {
	view, ran, err := s.svc.RunEpoch()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	resp := s.epochInfo(view)
	resp.Ran = ran
	writeJSON(w, http.StatusOK, resp)
}

// StatsResponse is the /v1/stats body: the shard pipeline statistics plus,
// in cluster mode, the replication layer's watermarks, counters and per-peer
// health.
type StatsResponse struct {
	service.Stats
	// Cluster is present only in cluster mode.
	Cluster *cluster.Stats `json:"cluster,omitempty"`
}

// handleStats serves the shard pipeline statistics (and cluster peer health
// when federated). The service half of the path is lock-free — atomic
// counter loads and per-shard pointer loads — so it can be scraped
// aggressively without perturbing ingest or epochs. The response carries an
// ETag keyed by the fold counters (epochs, folded shards): If-None-Match
// pollers get a 304 from two atomic loads when no shard has folded since —
// note pending/dirty gauges may have moved inside an unchanged fold point.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	etag := statsETag(s.svc.Epochs(), s.svc.FoldedShards())
	w.Header().Set("ETag", etag)
	if r.Header.Get("If-None-Match") == etag {
		s.m.notModified.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	resp := StatsResponse{Stats: s.svc.Stats()}
	if s.node != nil {
		st := s.node.Stats()
		resp.Cluster = &st
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealth is the liveness probe: a process that can answer it should
// not be restarted, so it always reports 200. Degradation — epoch errors,
// failing peers, a stalled scheduler, backpressure — is readiness, on
// /readyz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":     true,
		"epoch":  s.svc.Epochs(),
		"n":      s.svc.N(),
		"shards": s.svc.Shards(),
	})
}

// stallGrace is how many scheduler intervals pending feedback may wait
// before /readyz declares the epoch scheduler stalled. Three intervals
// absorbs one slow fold without flapping.
const stallGrace = 3

// The stable reason keys readiness failures are exported under — both as the
// dgserve_unready_reason gauge's label values and for tests matching probe
// output to metrics.
const (
	reasonEpochFailed  = "epoch_pipeline_failed"
	reasonMembership   = "membership_degraded"
	reasonStalled      = "scheduler_stalled"
	reasonBackpressure = "backpressure"
)

// readyReason is one cause of readiness failure: a stable key for metrics
// and a human explanation for the probe body.
type readyReason struct{ key, msg string }

// readyReasons computes the readiness verdict — the single source both
// GET /readyz and the dgserve_ready/dgserve_unready_reason gauges report
// from. Empty means ready.
func (s *Server) readyReasons() []readyReason {
	var reasons []readyReason
	if err := s.svc.Err(); err != nil {
		reasons = append(reasons, readyReason{reasonEpochFailed, fmt.Sprintf("epoch pipeline failed: %v", err)})
	}
	if s.node != nil {
		if degraded, why := s.node.Degraded(); degraded {
			reasons = append(reasons, readyReason{reasonMembership, "cluster membership degraded: " + why})
		}
	}
	if s.overloaded() {
		reasons = append(reasons, readyReason{reasonBackpressure,
			fmt.Sprintf("ingest backpressure: %d entries pending, max %d — rotate writes away",
				s.svc.Pending(), s.cfg.MaxPending)})
	}
	if s.cfg.EpochEvery > 0 && s.svc.Pending() > 0 {
		// Pending feedback with a running scheduler should fold within an
		// interval; measure from the later of the last epoch and process
		// start so a fresh server is not instantly stalled.
		ref := s.started.UnixNano()
		if last := s.svc.LastEpochUnixNano(); last > ref {
			ref = last
		}
		if wait := time.Since(time.Unix(0, ref)); wait > stallGrace*s.cfg.EpochEvery {
			reasons = append(reasons, readyReason{reasonStalled,
				fmt.Sprintf("epoch scheduler stalled: %d entries pending for %v (interval %v)",
					s.svc.Pending(), wait.Round(time.Millisecond), s.cfg.EpochEvery)})
		}
	}
	return reasons
}

// handleReady is the readiness probe: 200 while this node should receive
// traffic, 503 with the reasons otherwise. A degraded node keeps serving —
// clients that reach it directly still get answers — the probe only steers
// load balancers away.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if rs := s.readyReasons(); len(rs) > 0 {
		msgs := make([]string, len(rs))
		for i, rr := range rs {
			msgs[i] = rr.msg
		}
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reasons": msgs})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

// TraceResponse is the GET /v1/trace body: the scheduler's ring of recent
// non-empty epochs, oldest first, plus the ring's capacity.
type TraceResponse struct {
	Depth  int                  `json:"depth"`
	Epochs []service.EpochTrace `json:"epochs"`
}

// handleTrace serves the epoch trace ring — the postmortem view of the last
// service.DefaultTraceDepth folds: which shards recomputed, when each fold started and how
// long its campaigns ran, and whether anti-entropy preceded the epoch.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, TraceResponse{Depth: service.DefaultTraceDepth, Epochs: s.svc.Trace()})
}
