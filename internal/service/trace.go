package service

import "sync"

// DefaultTraceDepth is how many recent non-empty epochs the trace ring
// keeps — the capacity GET /v1/trace reports as "depth".
const DefaultTraceDepth = 64

// ShardTrace is one shard's fold inside an epoch trace: when the fold
// started relative to the epoch, how long the gossip campaigns ran, and
// their outcome.
type ShardTrace struct {
	// Shard is the subject shard that folded.
	Shard int `json:"shard"`
	// StartOffsetNs is when the fold started, relative to the epoch start.
	StartOffsetNs int64 `json:"start_offset_ns"`
	// DurationNs is the gossip campaign time for this shard.
	DurationNs int64 `json:"duration_ns"`
	// Steps is the slowest campaign's step count; Converged reports whether
	// every campaign hit the ξ tolerance; Computed counts the subjects the
	// fold actually recomputed — those the batch re-rated; the shard's other
	// subjects are carried over from its previous publication.
	Steps     int  `json:"steps"`
	Converged bool `json:"converged"`
	Computed  int  `json:"computed_subjects"`
}

// EpochTrace is one row of the scheduler's bounded trace ring: everything
// needed to postmortem a slow or stalled epoch after the fact — what was
// folded, which shards ran when and for how long, and whether an
// anti-entropy exchange preceded the fold.
type EpochTrace struct {
	// Epoch is the fold round this row describes.
	Epoch uint64 `json:"epoch"`
	// StartUnixNano is the epoch's wall-clock start.
	StartUnixNano int64 `json:"start_unix_nano"`
	// DurationNs is the compute phase — fold, campaigns, publish — not the
	// trailing persistence, which runs off the critical section.
	DurationNs int64 `json:"duration_ns"`
	// Entries is the pending batch size folded; Seq the last ledger
	// sequence it covered; DirtyShards how many shards it recomputed.
	Entries     int    `json:"entries"`
	Seq         uint64 `json:"seq"`
	DirtyShards int    `json:"dirty_shards"`
	// ExchangeBefore reports whether the scheduler poked the replicator for
	// an anti-entropy exchange immediately before this epoch (always false
	// for manual RunEpoch calls).
	ExchangeBefore bool `json:"exchange_before,omitempty"`
	// Shards carries the per-shard fold timeline, in fold-order.
	Shards []ShardTrace `json:"shards"`
}

// traceRing is the bounded epoch-trace buffer: record overwrites the oldest
// row past the depth, snapshot returns rows oldest-first. Recording happens
// once per non-empty epoch and takes a short mutex — nowhere near any hot
// path.
type traceRing struct {
	mu   sync.Mutex
	rows []EpochTrace
	next int // write cursor once len(rows) == DefaultTraceDepth
}

func (r *traceRing) record(t EpochTrace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.rows) < DefaultTraceDepth {
		r.rows = append(r.rows, t)
		return
	}
	r.rows[r.next] = t
	r.next = (r.next + 1) % DefaultTraceDepth
}

func (r *traceRing) snapshot() []EpochTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]EpochTrace, 0, len(r.rows))
	out = append(out, r.rows[r.next:]...)
	out = append(out, r.rows[:r.next]...)
	return out
}

// Trace returns the last DefaultTraceDepth non-empty epochs, oldest first —
// the GET /v1/trace payload. Rows are copies; the caller may keep them.
func (s *Service) Trace() []EpochTrace { return s.trace.snapshot() }
