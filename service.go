package diffgossip

import (
	"diffgossip/internal/service"
	"diffgossip/internal/store"
)

// Service is the long-running form of the library: a reputation service that
// ingests interaction feedback over time and serves reads continuously, built
// as a subject-sharded incremental epoch pipeline. Feedback accumulates in an
// append-only ledger that tracks which subject shards it dirties; the epoch
// scheduler folds the backlog and republishes only the dirty shards — one
// independent per-subject gossip campaign per re-rated subject, on the same
// scalar gossip engine as AggregateGlobalAll — and publishes each shard
// snapshot through its own atomic pointer. Reads stitch the current shard
// snapshots into a lock-free composite View, so query latency is independent
// of epoch compute and clean shards cost an epoch nothing. See cmd/dgserve
// for the HTTP daemon and examples/service for library use.
//
// Consistency model: reads are snapshot-consistent per shard — everything
// about one subject derives from a single immutable publication of its
// shard, identified by the (epoch, seq) fold point the View reports for it.
// Feedback becomes visible when its subject's shard next folds; Submit
// returns a ledger sequence number, and the write is folded once
// View.SubjectSeq(subject) reaches it. Because every subject's campaign
// draws its own split randomness stream, sharding changes how much work an
// epoch does, never what it computes.
type Service = service.Service

// ServiceConfig configures NewService. Graph is the gossip overlay; Params
// the per-epoch aggregation settings; EpochInterval the scheduler period
// (zero = epochs run only via RunEpoch); Dir an optional persistence
// directory (feedback is write-ahead logged as JSON lines, shard snapshot
// segments are saved with atomic renames, and a directory in any other
// format is refused untouched); Shards the subject-shard count S (subject j
// belongs to shard j mod S); FoldWorkers how many dirty shards fold
// concurrently. A non-empty Origin switches on cluster mode for
// internal/cluster: per-origin history and idempotent replicated entries.
// Every service runs each campaign cold from (Params.Seed, subject id), so
// replicas that folded the same state serve bit-identical values. Those seven
// fields are the whole configuration — the trace ring's depth is a constant,
// and with Dir set an epoch compacts the WAL once its dead entries reach its
// live ones.
type ServiceConfig = service.Config

// View is one lock-free composite capture of the published per-shard
// snapshots; see Service.
type View = service.View

// ServiceStats is a lock-free point-in-time observation of the shard
// pipeline (per-shard fold points and timings, backlog, incrementality
// counters); ShardStat is one shard's slice of it.
type ServiceStats = service.Stats

// ShardStat is one shard's statistics entry.
type ShardStat = service.ShardStat

// Feedback is one ledger entry: "Rater places trust Value in Subject".
type Feedback = store.Feedback

// NewService builds a reputation service and starts its epoch scheduler when
// cfg.EpochInterval > 0. Close releases it.
func NewService(cfg ServiceConfig) (*Service, error) {
	return service.New(cfg)
}
