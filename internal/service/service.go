// Package service turns the one-shot aggregation library into a long-running
// reputation service built as a subject-sharded, incremental epoch pipeline:
//
//   - the feedback ledger (internal/store.Ledger): the ingest path, cheap
//     appends that never touch epoch state, tracking which subject shards
//     the pending batch has dirtied;
//   - the shard scheduler: RunEpoch (or the background loop) groups the
//     pending batch by shard and republishes only the dirty shards,
//     dispatched to a bounded worker pool. A fold runs one independent
//     push-sum campaign (core.GlobalSubjectsAtRoot, on the flat gossip
//     kernels) per subject a write of the batch won and carries the shard's
//     other subjects over from its previous publication; clean shards cost
//     zero compute;
//   - the published shard snapshots: one atomic.Pointer per shard, stored as
//     its fold completes. Readers stitch the current pointers into a
//     composite View — lock-free, snapshot-consistent per shard. A shard's
//     published columns are also the only copy of its folded trust state,
//     last-writer-wins stamps included: the next fold builds its columns
//     from them plus the batch's stamped cells (trust.Columns.With).
//
// # Consistency model
//
// Every subject's state (global value, rater count, frozen trust column,
// fold point) comes from one immutable shard publication; different shards
// may sit at different fold points, which is what lets an epoch republish
// only the k of S shards it touched — and, within them, compute only the
// subjects it re-rated. Every campaign runs cold from its own randomness
// stream, seeded by (Params.Seed, subject id) in every epoch, so a subject's
// result depends only on the seed, the overlay and its trust column: a fold
// of any dirty subset reproduces bit for bit what a full recompute would have
// produced for those subjects — sharding changes the work, never the
// answers. Submit returns the ledger sequence number; the write is visible
// once View.SubjectSeq(subject) reaches it (bounded by Config.EpochInterval
// when the background scheduler runs).
//
// With Config.Dir set, feedback is write-ahead logged as JSON lines and
// each dirty shard's snapshot segment is persisted by fsync + atomic rename
// after the epoch publishes, outside the epoch critical section — a slow
// disk delays durability, never ingest, reads or the next epoch's compute.
// The ledger is fsynced before any segment, so after a crash the on-disk
// WAL always covers everything the on-disk segments claim to have folded;
// a restarted service replays only the per-shard unfolded tails. A directory
// from the pre-shard format (a snapshot.gob, no manifest) or a shard-NNNN.seg
// this build cannot read is refused at boot, untouched, with an error naming
// the file. An older build's shard-NNNN.gob segments are never opened: their
// shards refold from the WAL.
//
// # One way in
//
// State enters a service by one path, install: the boot segments of an
// in-memory start, the segments and unfolded WAL tail a data directory
// holds, and a peer's state transfer (InstallBootstrap). It validates the
// layout, regroups along the service's shard count, backs each shard's fold
// point off below its oldest entry still to fold, checks the ledger covers
// every claimed fold point, publishes, persists ledger-first when the
// segments are not already the directory's files, and re-pends. Every check
// runs before the first change, so a refused install leaves the service as
// it was.
package service

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"diffgossip/internal/core"
	"diffgossip/internal/graph"
	"diffgossip/internal/obs"
	"diffgossip/internal/store"
	"diffgossip/internal/trust"
)

// Config parameterises a Service.
type Config struct {
	// Graph is the gossip overlay the epochs run on. Required; the service
	// never mutates it.
	Graph *graph.Graph
	// Params configures the per-epoch aggregation (epsilon, protocol,
	// workers, ...). Params.Seed seeds every campaign: subject j's runs cold
	// from a stream split from (Seed, j), the same in every epoch, so a trust
	// state is served bit-identically for any shard, worker and epoch count.
	// Params.Warm is ignored. The zero value gets the core defaults.
	// Params.Workers parallelises each shard fold across its subjects.
	Params core.Params
	// EpochInterval is the scheduler period. Zero disables the background
	// scheduler; epochs then run only via RunEpoch.
	EpochInterval time.Duration
	// Dir enables persistence: the feedback ledger, manifest and per-shard
	// snapshot segments live under this directory. Empty runs fully in
	// memory.
	Dir string
	// Shards is the subject-shard count S: subject j belongs to shard
	// j mod S, and an epoch republishes only dirty shards. 0 defaults to 1
	// (the monolithic layout); values above N are rejected.
	Shards int
	// FoldWorkers bounds how many dirty shards fold concurrently within one
	// epoch. 0 or 1 folds one shard at a time (each fold still parallelises
	// across its subjects via Params.Workers); negative selects GOMAXPROCS.
	// Results are bit-identical for any value.
	FoldWorkers int
	// Origin is this node's cluster identity, and setting it switches the
	// service into cluster mode: accepted entries are retained per origin and
	// replicated entries apply idempotently, so an internal/cluster node can
	// run anti-entropy over this service. It is the ledger's origin id, under
	// which locally accepted entries replicate and which their
	// last-writer-wins stamps carry (replicated entries carry their own
	// origin). It must equal the cluster transport address, so the stamp a
	// peer folds for a replicated copy matches the stamp this node folds for
	// the original — internal/cluster.New enforces the match. The retained
	// history is the WAL held in memory: compaction trims both, and without
	// Dir (nothing to compact) every entry is kept. Cluster mode does not
	// change the folds: because campaigns depend only on (Params.Seed,
	// subject id) and the trust column, any node that has folded the same
	// trust state serves bit-identical reputations, regardless of how many
	// epochs it took to get there. Standalone services leave it empty.
	Origin string
}

// Replicator is the cluster-side hook the epoch scheduler drives: one
// anti-entropy exchange (digest broadcast to peers) before each scheduled
// epoch, keeping replication at least on the scheduler's cadence. The
// exchange only *initiates* pulls — the replies arrive asynchronously on
// the cluster node's receive loop, so entries it triggers are typically
// folded by the NEXT epoch, not the one about to run. internal/cluster.Node
// implements it.
type Replicator interface {
	// Exchange sends one round of anti-entropy digests to the peers. It
	// does not wait for the resulting entry batches.
	Exchange()
}

// Service is a long-running reputation service over one overlay. Submit and
// the read methods are safe for arbitrary concurrent use; epochs are
// serialised internally.
type Service struct {
	cfg    Config
	n      int
	shards int
	ledger *store.Ledger

	// epochMu serialises epoch compute and the publications it derives from
	// (all trust state, stamps included, lives in the published shard
	// columns). Readers never take it; neither does the persistence phase.
	epochMu sync.Mutex
	epochs  atomic.Uint64 // fold rounds completed (== newest published shard epoch)

	// lastEpoch is the wall-clock nanosecond of the last completed RunEpoch
	// (including no-op epochs with nothing pending) — the readiness probe's
	// scheduler-stall signal.
	lastEpoch atomic.Int64

	// states[s] is shard s's current publication; worker goroutines store
	// into their own shard's pointer as each fold completes. folded[s]
	// (guarded by epochMu, each fold touching only its own shard's slot) is
	// the last segment foldShard built for shard s — nil after boot, and no
	// longer the publication once an install replaces it — the mark that
	// lets the next fold carry untouched subjects over from it.
	states []atomic.Pointer[store.ShardSnapshot]
	folded []*store.ShardSnapshot

	// foldedSubjects counts the per-subject campaigns actually run across
	// all epochs; foldedShards counts shard folds. Together they are the
	// incrementality meter: an epoch that re-rates m subjects in k of S
	// shards advances them by m and k.
	foldedSubjects atomic.Uint64
	foldedShards   atomic.Uint64

	lastErr atomic.Pointer[epochError]

	// Observability. The counters are plain atomics RunEpoch maintains
	// unconditionally; the histograms exist only after Instrument and hide
	// behind nil-safe atomic pointers, so an uninstrumented service records
	// nothing extra. preExchange is set by the scheduler when it poked the
	// replicator right before an epoch, and consumed into that epoch's
	// trace row. trace is the bounded per-epoch trace ring behind
	// GET /v1/trace.
	campaignSteps   atomic.Uint64
	convergedEpochs atomic.Uint64
	epochErrs       atomic.Uint64
	epochHist       atomic.Pointer[obs.Histogram]
	foldHist        atomic.Pointer[obs.Histogram]
	stepsHist       atomic.Pointer[obs.Histogram]
	preExchange     atomic.Bool
	trace           traceRing

	// replicator, when set, is poked for an anti-entropy exchange before
	// each scheduled epoch (never by manual RunEpoch calls).
	replicator atomic.Pointer[Replicator]

	// persistMu serialises the off-critical-section persistence phase.
	// persisted[s] is shard s's segment durable on disk, stored by persist
	// (or by an install that saves nothing, when no persist can run) and
	// loaded lock-free: its epoch keeps late writers from clobbering a newer
	// segment, and its fold point and cell stamps are what WAL compaction
	// keeps entries by. persistHook, when set by tests, runs inside the
	// phase to stand in for a slow disk.
	persistMu   sync.Mutex
	persisted   []atomic.Pointer[store.ShardSnapshot]
	persistHook func()

	stop     chan struct{}
	wg       sync.WaitGroup
	stopOnce sync.Once
}

type epochError struct{ err error }

const (
	ledgerFile   = "ledger.jsonl"
	manifestFile = "manifest.json"
	// preShardFile is the single-snapshot format's file name; a directory
	// holding it without a manifest is refused, not migrated.
	preShardFile = "snapshot.gob"
)

func ledgerPath(dir string) string   { return filepath.Join(dir, ledgerFile) }
func manifestPath(dir string) string { return filepath.Join(dir, manifestFile) }
func shardPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.seg", shard))
}

// New builds a Service, installing boot segments or — with cfg.Dir set —
// the persisted state (resharded if needed), and starts the epoch scheduler
// if cfg.EpochInterval > 0. Close releases it.
func New(cfg Config) (*Service, error) {
	if cfg.Graph == nil || cfg.Graph.N() == 0 {
		return nil, fmt.Errorf("service: empty graph")
	}
	if err := cfg.Params.Validate(cfg.Graph); err != nil {
		return nil, fmt.Errorf("service: params: %w", err)
	}
	if cfg.EpochInterval < 0 {
		return nil, fmt.Errorf("service: negative epoch interval %v", cfg.EpochInterval)
	}
	n := cfg.Graph.N()
	shards := cfg.Shards
	if shards == 0 {
		shards = 1
	}
	if shards < 1 || shards > n {
		return nil, fmt.Errorf("service: shard count %d out of range [1,%d]", cfg.Shards, n)
	}
	s := &Service{
		cfg:       cfg,
		n:         n,
		shards:    shards,
		states:    make([]atomic.Pointer[store.ShardSnapshot], shards),
		folded:    make([]*store.ShardSnapshot, shards),
		persisted: make([]atomic.Pointer[store.ShardSnapshot], shards),
		stop:      make(chan struct{}),
	}
	// Every campaign runs cold. The sparse-campaign threshold defaults ON
	// (the core default is off, for the paper-experiment paths'
	// bit-stability); negative means explicitly off.
	s.cfg.Params.Warm = nil
	switch {
	case s.cfg.Params.SparseRaterFrac == 0:
		s.cfg.Params.SparseRaterFrac = 0.25
	case s.cfg.Params.SparseRaterFrac < 0:
		s.cfg.Params.SparseRaterFrac = 0
	}

	var err error
	if cfg.Dir == "" {
		s.ledger = store.NewLedger(n)
		err = s.boot(nil, nil)
	} else {
		err = s.loadDir()
	}
	if err != nil {
		if s.ledger != nil {
			s.ledger.Close()
		}
		return nil, err
	}
	if cfg.EpochInterval > 0 {
		s.wg.Add(1)
		go s.loop()
	}
	return s, nil
}

// loadDir boots from a persistent data directory (creating it if needed). It
// reads the manifest, the shard segments and the ledger, refusing — before
// anything is written — a pre-shard directory, one for another N and a
// segment this build cannot read; boot's install refuses a truncated
// ledger. Once the state is installed, the manifest is written last.
func (s *Service) loadDir() error {
	dir := s.cfg.Dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("service: data dir: %w", err)
	}
	manifest, err := store.LoadManifestFile(manifestPath(dir))
	if err != nil {
		return err
	}

	var segs []*store.ShardSnapshot // nil: a fresh directory
	if manifest == nil {
		// No manifest: a fresh directory — unless the pre-shard format's file
		// is there, in which case treating the directory as fresh would
		// silently refold the whole WAL over state the operator believes is
		// persisted.
		if _, err := os.Stat(filepath.Join(dir, preShardFile)); err == nil {
			return fmt.Errorf("service: %s holds %s but no %s: a pre-shard data directory, which this build does not migrate (it reads only the %s + shard-NNNN.seg layout)",
				dir, preShardFile, manifestFile, manifestFile)
		}
	} else {
		if manifest.N != s.n {
			return fmt.Errorf("service: data dir is for N=%d, graph has N=%d", manifest.N, s.n)
		}
		segs = make([]*store.ShardSnapshot, manifest.Shards)
		now := time.Now().UnixNano()
		for sh := range segs {
			seg, err := store.LoadShardFile(shardPath(dir, sh))
			if err != nil {
				return err
			}
			if seg != nil && (seg.Shard != sh || seg.Shards != manifest.Shards || seg.N != s.n) {
				// A valid segment whose layout disagrees with the manifest
				// is the artifact of a crash mid-reshard (new-layout
				// segments written, manifest not yet flipped). The WAL is
				// the full feedback history, so the safe recovery is to
				// treat the shard as never folded: its entire tail
				// re-pends and the next epoch refolds it.
				seg = nil
			}
			if seg == nil {
				// A shard that never folded has no (usable) segment yet.
				seg = store.NewBootShardSnapshot(s.n, sh, manifest.Shards, now)
			}
			segs[sh] = seg
		}
	}
	ledger, replayed, err := store.OpenLedger(ledgerPath(dir), s.n)
	if err != nil {
		return err
	}
	s.ledger = ledger
	if err := s.boot(segs, replayed); err != nil {
		return err
	}
	// A reshard's segments are saved by now (install), so the manifest goes
	// last: a crash mid-reshard leaves the old manifest in charge and the
	// mismatched segments are discarded as never folded (above).
	if manifest == nil || manifest.Shards != s.shards {
		m := store.Manifest{N: s.n, Shards: s.shards, CreatedUnixNano: time.Now().UnixNano()}
		if err := store.SaveManifestFile(m, manifestPath(dir)); err != nil {
			return err
		}
	}
	if manifest != nil {
		// Downsharding leaves old high-index segment files behind; remove
		// them (best effort) so the directory lists only the live layout.
		for sh := s.shards; sh < manifest.Shards; sh++ {
			os.Remove(shardPath(dir, sh))
		}
		// An older build's shard-NNNN.gob segments were never opened: their
		// shards booted as never folded, so their whole WAL re-pended. That
		// loses nothing, since compaction keeps every persisted cell's
		// winning entry in the WAL. Remove them the same way.
		old, _ := filepath.Glob(filepath.Join(dir, "shard-*.gob")) // errs only on a bad pattern
		for _, path := range old {
			os.Remove(path)
		}
	}
	return nil
}

// boot sets up s.ledger — the shard count, and in replication mode the
// per-origin history and watermarks, seeded from the full replay so
// anti-entropy pulls and duplicate detection survive restarts — and installs
// segs (boot segments when nil) with the replayed entries they have not
// folded pending. The folded entries' winners are on record in the
// segments' stamps, which any late replicated entry must beat.
func (s *Service) boot(segs []*store.ShardSnapshot, replayed []store.Feedback) error {
	if err := s.ledger.SetShards(s.shards); err != nil {
		return err
	}
	if s.cfg.Origin != "" {
		if err := s.ledger.EnableReplication(s.cfg.Origin, replayed); err != nil {
			return err
		}
	}
	if segs == nil {
		segs = make([]*store.ShardSnapshot, s.shards)
		now := time.Now().UnixNano()
		for sh := range segs {
			segs[sh] = store.NewBootShardSnapshot(s.n, sh, s.shards, now)
		}
	}
	var tail []store.Feedback
	for _, fb := range replayed {
		if fb.Seq > segs[store.ShardOf(fb.Subject, len(segs))].Seq {
			tail = append(tail, fb)
		}
	}
	return s.install(segs, tail, nil)
}

// install is the one way state enters a service: New's boot segments, a
// data directory's segments and a peer's state transfer all publish
// through it. Every check runs before the first change, so a refused
// install leaves the service as it was. In order:
//
//  1. validate the segments' layout and N;
//  2. regroup them along this service's shard count (store.Reshard; at an
//     equal count, shallow copies for the steps below to re-point), then run
//     admit, when given, on the copies — a bootstrap records the transfer's
//     entries there, rebases the copies into the local sequence space and
//     returns the local entries the copies do not hold, which join unfolded;
//  3. back each shard's fold point off below its oldest entry still to
//     fold — on unfolded, or in the ledger's pending window — so a restart
//     before that entry folds re-pends it;
//  4. refuse a segment claiming a seq the ledger never assigned (a truncated
//     or swapped ledger);
//  5. publish, and set the epoch counter;
//  6. when the segments differ from the directory's files — regrouped to
//     another count, or admitted from a transfer — persist them: ledger
//     fsync first, then each segment, so the WAL on disk covers whatever
//     the segments claim; otherwise record them as persisted;
//  7. re-pend unfolded ahead of the pending window, even after a
//     persistence error: the published columns do not hold their writes.
//
// An installed segment is never s.folded, so each shard's first fold
// afterwards computes every subject. Callers hold epochMu, or run inside
// New.
func (s *Service) install(segs []*store.ShardSnapshot, unfolded []store.Feedback, admit func([]*store.ShardSnapshot) ([]store.Feedback, error)) error {
	if len(segs) > 0 && segs[0] != nil && segs[0].N != s.n {
		return fmt.Errorf("service: segments are for N=%d, this service has N=%d", segs[0].N, s.n)
	}
	regrouped, err := store.Reshard(segs, s.shards)
	if err != nil {
		return fmt.Errorf("service: install: %w", err)
	}
	save := s.cfg.Dir != "" && (len(segs) != s.shards || admit != nil)
	if admit != nil {
		more, err := admit(regrouped)
		if err != nil {
			return err
		}
		unfolded = append(unfolded, more...)
	}

	// The pending window is read by taking and restoring it: epochMu keeps
	// epochs out, and an entry appended meanwhile carries a seq above every
	// fold point here.
	pending := s.ledger.TakePending()
	s.ledger.Restore(pending)
	for _, list := range [][]store.Feedback{unfolded, pending} {
		for _, fb := range list {
			seg := regrouped[store.ShardOf(fb.Subject, s.shards)]
			seg.Seq = min(seg.Seq, fb.Seq-1)
		}
	}

	var maxSeq, maxEpoch uint64
	for _, seg := range regrouped {
		maxSeq, maxEpoch = max(maxSeq, seg.Seq), max(maxEpoch, seg.Epoch)
	}
	if s.ledger.Seq() < maxSeq {
		return fmt.Errorf("service: ledger ends at seq %d but a segment has folded seq %d — ledger truncated or mismatched",
			s.ledger.Seq(), maxSeq)
	}

	for sh, seg := range regrouped {
		s.states[sh].Store(seg)
	}
	s.epochs.Store(maxEpoch)

	if save {
		err = s.persist(regrouped)
	} else {
		for sh, seg := range regrouped {
			s.persisted[sh].Store(seg)
		}
	}
	s.ledger.Restore(unfolded)
	return err
}

// Submit records one feedback entry ("rater now places trust value in
// subject") and returns its ledger sequence number. The entry takes effect
// when its subject's shard next folds; until then reads serve the current
// shard snapshots.
func (s *Service) Submit(rater, subject int, value float64) (uint64, error) {
	return s.ledger.Append(rater, subject, value, time.Now().UnixNano())
}

// SubmitCtx is Submit with request-scoped cancellation: a context already
// canceled (or past its deadline) returns its error before the ledger is
// touched, so an abandoned HTTP request can never leave a WAL line behind.
// The check is deliberately before the append, not during it — once the
// write-ahead line starts, it completes; half-written entries are a crash
// concern (handled by replay truncation), not a cancellation one. unixNano
// is the LWW coordinate of the write; 0 means "stamp now", and deterministic
// drivers (scenario tests, replayed workloads) pass their own non-zero stamps
// to pin conflict resolution.
func (s *Service) SubmitCtx(ctx context.Context, rater, subject int, value float64, unixNano int64) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if unixNano == 0 {
		unixNano = time.Now().UnixNano()
	}
	return s.ledger.Append(rater, subject, value, unixNano)
}

// SubmitBatch records a batch of feedback entries atomically — one WAL flush,
// one fsync for the whole batch (store.Ledger.AppendBatch) — and returns the
// first and last assigned sequence numbers. Entries carrying UnixNano 0 are
// stamped with the current wall clock, so every entry keeps its own LWW
// coordinate and cluster convergence is indistinguishable from the same
// ratings submitted singly; deterministic drivers pre-stamp their own. A
// canceled context returns before anything is written.
func (s *Service) SubmitBatch(ctx context.Context, entries []store.Feedback) (first, last uint64, err error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	now := time.Now().UnixNano()
	for i := range entries {
		if entries[i].UnixNano == 0 {
			entries[i].UnixNano = now
		}
	}
	return s.ledger.AppendBatch(entries)
}

// Origin returns this node's cluster identity (Config.Origin; empty for
// standalone services).
func (s *Service) Origin() string { return s.cfg.Origin }

// LastEpochUnixNano returns the wall-clock nanosecond at which the last
// RunEpoch completed (0 if none has yet) — no-op epochs count, so a healthy
// idle scheduler keeps advancing it. Readiness probes compare it against the
// epoch interval to detect a stalled scheduler.
func (s *Service) LastEpochUnixNano() int64 { return s.lastEpoch.Load() }

// View captures the current composite read state: S atomic pointer loads,
// no locks, immutable afterwards. See View's consistency notes.
func (s *Service) View() *View {
	segs := make([]*store.ShardSnapshot, s.shards)
	for i := range segs {
		segs[i] = s.states[i].Load()
	}
	return &View{n: s.n, segs: segs}
}

// Reputation returns subject's global reputation under the current view,
// along with the view it came from.
func (s *Service) Reputation(subject int) (float64, *View, error) {
	v := s.View()
	r, err := v.Reputation(subject)
	return r, v, err
}

// SubjectRead returns the shard snapshot owning subject — everything a
// single-subject global read needs (value, rater count, fold point) behind
// ONE atomic pointer load with no allocation. The HTTP reputation endpoint
// uses it; cross-shard reads (GCLR views, epoch metadata) capture a full
// View instead.
func (s *Service) SubjectRead(subject int) (*store.ShardSnapshot, error) {
	if subject < 0 || subject >= s.n {
		return nil, fmt.Errorf("service: subject %d out of range [0,%d)", subject, s.n)
	}
	return s.states[store.ShardOf(subject, s.shards)].Load(), nil
}

// PersonalReputation returns the globally calibrated local (GCLR) view of
// subject as seen by rater, under the current view.
func (s *Service) PersonalReputation(rater, subject int) (float64, *View, error) {
	v := s.View()
	p := s.cfg.Params.Weights
	if p == (trust.WeightParams{}) {
		p = trust.DefaultWeightParams
	}
	r, err := v.Personal(rater, subject, p)
	return r, v, err
}

// SetReplicator installs (or, with nil, removes) the cluster replicator the
// background scheduler pokes before each scheduled epoch. Safe to call at any
// time; cmd/dgserve wires it right after building the cluster node.
func (s *Service) SetReplicator(r Replicator) {
	if r == nil {
		s.replicator.Store(nil)
		return
	}
	s.replicator.Store(&r)
}

// ApplyReplicated applies a batch of feedback entries pulled from peers'
// ledger streams, each carrying its origin tags, all or nothing: an entry at
// or below its origin's watermark is a duplicate and skipped, and applied
// counts the rest. Requires cluster mode (Config.Origin). Applied entries
// take effect like local submissions — when their subjects' shards next
// fold.
func (s *Service) ApplyReplicated(entries []store.Feedback) (applied int, err error) {
	fresh, err := s.ledger.AppendReplicated(nil, entries)
	return len(fresh), err
}

// ReplicationMarks returns a copy of the per-origin watermarks (highest
// origin sequence number held), keyed by origin id — this node's own stream
// under Origin(). Nil outside cluster mode (empty Config.Origin). For a
// single origin's watermark use ReplicationMark — it is O(1) and
// allocation-free.
func (s *Service) ReplicationMarks() map[string]uint64 { return s.ledger.OriginMarks() }

// ReplicationMark returns one origin stream's watermark without copying the
// whole mark map. ReplicationMark(Origin()) is the Seq of the last locally
// submitted entry — what a cluster digest advertises for this node
// (replicated appends consume ledger seqs too, so it is ≤ LedgerSeq).
func (s *Service) ReplicationMark(origin string) uint64 { return s.ledger.OriginMark(origin) }

// ReplicationEntriesSince returns up to limit retained entries of one origin
// stream past the given watermark, origin-stamped, for answering an
// anti-entropy pull. Nil outside cluster mode (empty Config.Origin).
func (s *Service) ReplicationEntriesSince(origin string, after uint64, limit int) []store.Feedback {
	return s.ledger.EntriesSince(origin, after, limit)
}

// LedgerSeq returns the last locally assigned ledger sequence number (local
// submissions and replicated appends alike).
func (s *Service) LedgerSeq() uint64 { return s.ledger.Seq() }

// Pending returns the number of feedback entries awaiting the next epoch
// (lock-free).
func (s *Service) Pending() int { return s.ledger.PendingCount() }

// N returns the network size.
func (s *Service) N() int { return s.n }

// Shards returns the subject-shard count.
func (s *Service) Shards() int { return s.shards }

// Epochs returns the number of fold rounds completed.
func (s *Service) Epochs() uint64 { return s.epochs.Load() }

// FoldedSubjects returns the cumulative number of per-subject gossip
// campaigns the service has run — the incrementality meter: an epoch
// advances it by the rated subjects its batch re-rated (by every rated
// subject of a shard on that shard's first fold after boot, reshard or
// bootstrap, or over an unconverged segment). Clean shards, the untouched
// subjects of dirty ones and unrated subjects never advance it.
func (s *Service) FoldedSubjects() uint64 { return s.foldedSubjects.Load() }

// FoldedShards returns the cumulative number of shard folds.
func (s *Service) FoldedShards() uint64 { return s.foldedShards.Load() }

// WarmStarts returns 0: every campaign starts cold. It stays for callers
// that still split FoldedSubjects by seeding.
func (s *Service) WarmStarts() uint64 { return 0 }

// ColdStarts returns FoldedSubjects: every campaign starts cold from its
// trust column (see WarmStarts).
func (s *Service) ColdStarts() uint64 { return s.FoldedSubjects() }

// Err returns the last epoch error observed by the background scheduler, or
// nil. A successful epoch clears it.
func (s *Service) Err() error {
	if e := s.lastErr.Load(); e != nil {
		return e.err
	}
	return nil
}

// RunEpoch folds all pending feedback into the trust state — each entry, with
// its last-writer-wins stamp, lands unless its cell carries a newer one —
// republishes every dirty shard (one gossip campaign per re-rated subject,
// folds on a bounded worker pool), publishes each shard snapshot as its fold
// completes, and finally — outside the epoch critical section — persists the
// ledger and the dirty segments. It reports whether an epoch ran: with no
// pending feedback every shard is clean and the current view is returned
// unchanged. Epochs are serialised; concurrent callers queue for the compute
// phase but never for disk.
//
// Compute runs entirely off the read path — readers keep serving the old
// shard snapshots until each new one is published in a single atomic store.
// An epoch touches only its dirty shards, and computes only the subjects its
// batch re-rated (see foldShard for when a whole shard computes).
func (s *Service) RunEpoch() (*View, bool, error) {
	s.epochMu.Lock()
	epochStart := time.Now()
	// Consume the scheduler's exchange marker even on a no-op epoch, so a
	// later non-empty epoch can't claim an exchange that preceded an empty
	// one.
	exchanged := s.preExchange.Swap(false)

	batch := s.ledger.TakePending()
	if len(batch) == 0 {
		s.epochMu.Unlock()
		s.lastEpoch.Store(time.Now().UnixNano())
		return s.View(), false, nil
	}
	// On any compute failure the batch goes back to the front of the
	// pending window so no feedback is ever dropped: the next epoch retries
	// it. A shard whose fold failed has moved nothing — it still publishes
	// its previous columns — and the retry is idempotent: in shards that did
	// republish, an entry's stamp equals the one its cell now carries, and an
	// equal stamp wins again.
	restore := func(err error) (*View, bool, error) {
		s.epochErrs.Add(1)
		s.ledger.Restore(batch)
		s.epochMu.Unlock()
		return s.View(), false, err
	}

	// cells[off[sh]:off[sh+1]] holds shard sh's writes, stamped, in batch
	// order: one counting pass sizes the shards, one flat backing takes
	// every cell. With keeps a write unless it is older than its cell's, so
	// the folded state never depends on arrival order. Every shard the batch
	// touches is dirty, even with no winning write: it republishes to
	// advance its fold point.
	off := make([]int, len(s.states)+1)
	for _, fb := range batch {
		off[fb.Shard+1]++
	}
	dirtyList := make([]int, 0, len(s.states))
	for sh := range s.states {
		if off[sh+1] > 0 {
			dirtyList = append(dirtyList, sh)
		}
		off[sh+1] += off[sh]
	}
	cells := make([]trust.Cell, len(batch))
	fill := slices.Clone(off[:len(s.states)])
	seq := uint64(0)
	for _, fb := range batch {
		cells[fill[fb.Shard]] = trust.Cell{Rater: fb.Rater, Subject: fb.Subject, Value: fb.Value, Stamp: s.ledger.StampOf(fb)}
		fill[fb.Shard]++
		seq = fb.Seq
	}

	epoch := s.epochs.Load() + 1

	// Fold the dirty shards on a bounded worker pool. Each fold derives its
	// shard's columns from the previous publication plus its cells, runs one
	// independent campaign per re-rated subject, and publishes through its own
	// atomic pointer the moment it completes — results are bit-identical
	// for any FoldWorkers and Params.Workers.
	results := make([]*store.ShardSnapshot, len(dirtyList))
	errs := make([]error, len(dirtyList))
	starts := make([]int64, len(dirtyList)) // fold start offsets, for the trace row
	foldWorkers := s.cfg.FoldWorkers
	if foldWorkers < 0 {
		foldWorkers = runtime.GOMAXPROCS(0)
	}
	if foldWorkers < 1 {
		foldWorkers = 1
	}
	if foldWorkers > len(dirtyList) {
		foldWorkers = len(dirtyList)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < foldWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := int(next.Add(1)) - 1
				if idx >= len(dirtyList) {
					return
				}
				starts[idx] = time.Since(epochStart).Nanoseconds()
				sh := dirtyList[idx]
				seg, err := s.foldShard(sh, cells[off[sh]:off[sh+1]:off[sh+1]], epoch, seq)
				if err != nil {
					errs[idx] = err
					continue
				}
				results[idx] = seg
				s.states[seg.Shard].Store(seg)
				s.foldedShards.Add(1)
				s.foldedSubjects.Add(uint64(seg.Computed))
				s.campaignSteps.Add(uint64(seg.Steps))
				s.foldHist.Load().Observe(float64(seg.ElapsedNs) / 1e9)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return restore(err)
		}
	}
	computeNs := time.Since(epochStart).Nanoseconds()
	s.epochs.Store(epoch)
	s.epochMu.Unlock()
	s.lastEpoch.Store(time.Now().UnixNano())

	s.epochHist.Load().Observe(float64(computeNs) / 1e9)
	shardTraces := make([]ShardTrace, len(results))
	allConverged := true
	for i, seg := range results {
		shardTraces[i] = ShardTrace{
			Shard: seg.Shard, StartOffsetNs: starts[i], DurationNs: seg.ElapsedNs,
			Steps: seg.Steps, Converged: seg.Converged, Computed: seg.Computed,
		}
		if !seg.Converged {
			allConverged = false
		}
	}
	if allConverged {
		s.convergedEpochs.Add(1)
	}
	s.trace.record(EpochTrace{
		Epoch: epoch, StartUnixNano: epochStart.UnixNano(), DurationNs: computeNs,
		Entries: len(batch), Seq: seq, DirtyShards: len(dirtyList),
		ExchangeBefore: exchanged, Shards: shardTraces,
	})

	// Persistence phase: after the critical section, so a slow disk delays
	// durability, never ingest or the next epoch's compute. A persist error
	// is I/O-side only — the published state is correct and the WAL still
	// holds everything, so on restart the affected shards simply refold
	// from their last durable segments.
	if s.cfg.Dir != "" {
		if err := s.persist(results); err != nil {
			return s.View(), true, err
		}
		// WAL compaction rides the persistence phase once the dead entries
		// reach the live ones, which keeps the WAL within about twice the
		// live state. An error is I/O-side only, like a persist error — the
		// old WAL keeps working.
		if dead, live := s.walDebt(); dead > 0 && dead >= live {
			if _, err := s.CompactWAL(); err != nil {
				return s.View(), true, err
			}
		}
	}
	return s.View(), true, nil
}

// foldShard republishes one dirty shard at the given epoch: apply the batch's
// cells to the shard's published trust columns (copy-on-write, settling
// last-writer-wins; the previous publication keeps serving), run the
// campaigns of the subjects a write won, and assemble the shard snapshot.
// Every other slot carries Global[k] over from the previous immutable
// segment, as With carries its column: a subject's result depends only on
// (seed, overlay, its trust column), so an untouched one would recompute to
// the same bits. The carry needs a previous segment this process folded
// itself (s.folded — a booted, resharded or bootstrapped one may come from
// another seed or graph) whose campaigns all converged; otherwise every
// subject of the shard is computed.
// Caller holds epochMu, so the shard's publication cannot change underneath.
func (s *Service) foldShard(shard int, cells []trust.Cell, epoch, seq uint64) (*store.ShardSnapshot, error) {
	prev := s.states[shard].Load()
	// Ledger entries were validated at append time, so With only fails on a
	// publication that does not cover its own shard's subjects.
	cols, won, err := prev.Cols.With(cells)
	if err != nil {
		return nil, fmt.Errorf("service: fold shard %d: %w", shard, err)
	}
	subjects := cols.Subjects()
	global := make([]float64, len(subjects))
	todo := subjects
	if s.folded[shard] == prev && prev.Converged {
		copy(global, prev.Global)
		todo = won
	}
	start := time.Now()
	res, err := core.GlobalSubjectsAtRoot(s.cfg.Graph, cols, todo, s.cfg.Params)
	if err != nil {
		return nil, fmt.Errorf("service: epoch %d shard %d gossip: %w", epoch, shard, err)
	}
	elapsed := time.Since(start)
	if h := s.stepsHist.Load(); h != nil {
		for _, st := range res.StepsBySubject {
			if st >= 0 {
				h.Observe(float64(st))
			}
		}
	}
	for i, j := range todo {
		global[store.SlotOf(j, s.shards)] = res.AtRoot[i]
	}
	seg := &store.ShardSnapshot{
		Shard:           shard,
		Shards:          s.shards,
		N:               s.n,
		Epoch:           epoch,
		Seq:             seq,
		Global:          global,
		Steps:           res.Steps,
		Converged:       res.Converged,
		Computed:        res.Computed,
		TotalSteps:      res.TotalSteps,
		ElapsedNs:       elapsed.Nanoseconds(),
		CreatedUnixNano: time.Now().UnixNano(),
		Cols:            cols,
	}
	s.folded[shard] = seg
	return seg, nil
}

// persist makes one epoch's outcome durable: ledger fsync first (the boot
// guard's invariant), then each refolded segment by atomic rename. It runs
// outside epochMu; the per-shard epoch watermark keeps a late writer from
// clobbering a newer segment when epochs overlap their persistence.
func (s *Service) persist(segs []*store.ShardSnapshot) error {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	if s.persistHook != nil {
		s.persistHook()
	}
	if err := s.ledger.Sync(); err != nil {
		return err
	}
	for _, seg := range segs {
		if old := s.persisted[seg.Shard].Load(); old != nil && seg.Epoch <= old.Epoch {
			continue // a newer fold already persisted this shard
		}
		if err := seg.SaveFile(shardPath(s.cfg.Dir, seg.Shard)); err != nil {
			return err
		}
		s.persisted[seg.Shard].Store(seg)
	}
	return nil
}

// walDebt returns the WAL's dead and live entry counts: live are the
// persisted segments' cells plus the pending entries, dead the other WAL
// lines, which compaction drops but for one head per origin. An epoch
// between its fold and its persist counts its entries dead, which can only
// bring a compaction forward. It requires Config.Dir.
func (s *Service) walDebt() (dead, live int) {
	for sh := range s.persisted {
		live += s.persisted[sh].Load().Cols.NumEntries()
	}
	live += s.ledger.PendingCount()
	return max(s.ledger.WALLines()-live, 0), live
}

// CompactWAL rewrites the write-ahead log against a copy of the persisted
// segments (store.Ledger.Compact): of the durably folded entries it keeps
// those the segments' cells name and each origin stream's highest (so
// replication watermarks replay unchanged), plus the whole unfolded tail.
// Sequence numbers are preserved, so a compacted file replays with gaps and
// a min seq > 1, which boot accepts. In cluster mode the retained
// replication history becomes the kept entries too. RunEpoch calls it once
// the WAL's dead entries reach its live ones (walDebt); operators may call
// it directly. Requires persistence (Config.Dir).
func (s *Service) CompactWAL() (store.CompactStats, error) {
	segs := make([]*store.ShardSnapshot, s.shards)
	for sh := range segs {
		segs[sh] = s.persisted[sh].Load()
	}
	return s.ledger.Compact(segs)
}

// loop is the background epoch scheduler.
func (s *Service) loop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.EpochInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			if r := s.replicator.Load(); r != nil {
				(*r).Exchange()
				s.preExchange.Store(true)
			}
			if _, _, err := s.RunEpoch(); err != nil {
				s.lastErr.Store(&epochError{err})
			} else {
				s.lastErr.Store(nil)
			}
		}
	}
}

// Close stops the scheduler, fsyncs and closes the ledger. It does not run
// a final epoch; pending feedback is durable in the write-ahead log (when
// persistence is on) and is replayed on the next start.
func (s *Service) Close() error {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
	// Serialise with any in-flight persistence before closing the WAL.
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	// Make the tail durable: Close flushes, but only Sync fsyncs — without
	// it a clean SIGTERM could still lose the last writes to a power cut.
	if err := s.ledger.Sync(); err != nil {
		s.ledger.Close()
		return err
	}
	return s.ledger.Close()
}
