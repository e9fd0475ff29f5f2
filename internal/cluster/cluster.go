// Package cluster federates dgserve replicas: an anti-entropy layer that
// replicates the append-only feedback ledger between reputation services
// over transport.Transport — the in-memory channel hub for tests and
// simulations, TCP for deployment.
//
// # Protocol
//
// Replication is pull-based and rides the ledger's monotonic sequence
// numbers. Every entry belongs to exactly one origin stream — the node whose
// ledger first accepted it — and is globally identified by (origin,
// origin-seq). Each node's ledger keeps, per origin, the highest origin-seq
// it holds (its watermark) and names its own stream by the node's id, so
// this layer moves ledger entries (store.Feedback, origin-stamped) and marks
// with no renaming or re-sequencing: toWire and fromWire only copy each
// entry's fields between store.Feedback and transport.FeedbackEntry. An
// anti-entropy exchange is then two message kinds:
//
//	digest    A → B   "my watermarks are {origin: seq, …}"
//	entries   B → A   consecutive batches per origin A trails on, each framed
//	                  with (origin, after): the batch contiguously extends
//	                  origin's stream past seq `after`
//
// B answers a digest only with entries A is missing; A applies a batch only
// if its watermark for that origin is ≥ the batch's `after` frame (a lower
// watermark means an earlier batch was lost — the batch is discarded and the
// next digest re-pulls from the true watermark). A batch applies in one
// all-or-nothing call, and idempotently (store.Ledger.AppendReplicated
// skips entries at or below the watermark), so duplicate delivery,
// crashed-and-restarted peers and overlapping pulls are all harmless.
// Replicated entries enter the service's shard-aware ingest path like local
// submissions and fold at the next epoch.
//
// One digest answer streams: B keeps framing 256-entry batches for an origin
// until A is level or 16 of them (digestAnswerBatches) have gone out, so a
// peer returning from a long outage gets its whole backlog on first contact
// rather than one chunk per exchange. That is why nothing is buffered on
// behalf of an unreachable peer: what it is owed is already retained — per
// origin, in memory and in the WAL — by the replicating ledger, whose
// compaction drops only folded entries a kept write supersedes (a peer that
// never sees one converges to the same cells), and the peer's first digest
// says exactly where to resume. Lags deeper than the
// budget continue on the next digest or, past Config.BootstrapLag, go by
// snapshot.
//
// On top of the pull, each node keeps a per-peer cache of the watermarks it
// last saw in that peer's digests and eagerly *pushes* new entries past the
// cached marks on every exchange — push-pull anti-entropy. The pull remains
// the correctness backstop (a lost push is re-pulled from the true
// watermark); the push cuts convergence from two digest round-trips to one
// send. Every batch sent, pushed or answered, advances the cache; a failed
// send leaves it where it was, and dead members are not pushed to at all.
//
// A digest can be stale: the peer may have sent it before the batches
// streamed to it arrived. So for two exchange ticks after batches go out to a
// peer (inflightTicks), its digests only raise the cache: what is on the wire
// is neither answered again nor re-pushed, and only a mark below where the
// cache stood when those batches went out — a batch lost earlier — is
// re-pulled at once. After that window a digest is authoritative again and
// resets the cache, downward if a batch was lost, so a lost answer is re-pulled
// by the first digest past it.
//
// # Membership
//
// Digests piggyback a membership view: every peer this node knows of, with
// the freshest (incarnation, heartbeat) liveness pair it has observed
// (transport.PeerView). Merging views gives transitive discovery — a node
// bootstrapped with a single seed learns the whole cluster — and the pair's
// advance (or stall) drives a per-peer state machine: alive → suspect after
// Config.SuspectAfter without advance → dead after Config.DeadAfter.
// Suspect peers still exchange; dead peers stop receiving routine digests
// and pushes (a periodic probe remains). Any message from a peer — or a
// higher liveness pair gossiped about it — makes it alive again with no
// operator action; a restarted peer announces a higher incarnation, so its
// pair advances past every stale observation. A peer's id is its transport
// address: every send goes to the id.
//
// # Convergence
//
// Entries of one origin apply in origin-seq order on every node, and every
// entry carries the (timestamp, origin, origin-seq) tag under which the
// service resolves same-cell conflicts — a total order, applied at fold
// time, so any interleaving of streams folds to the same trust state on
// every node regardless of which node each write entered through. On a
// replicating service, published reputations are a pure function of that
// folded state — converged nodes serve bit-identical reputations, no matter
// how many epochs each ran, in what batches the entries arrived, or how
// clients were routed. See docs/ARCHITECTURE.md "Cross-node convergence" for
// the contract and its pinning tests.
//
// # Modes
//
// Start launches the asynchronous production form: a receive loop draining
// the transport inbox plus, with Config.Interval > 0, a digest ticker. For
// deterministic tests and the scenario engine, skip Start and drive the node
// manually with Exchange (send digests) and Drain (synchronously process
// everything queued); single-threaded driving makes whole-cluster runs
// replay bit-identically.
package cluster

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	"diffgossip/internal/service"
	"diffgossip/internal/transport"
)

// Config parameterises a cluster node.
type Config struct {
	// Service is the reputation service this node replicates; it must have
	// been built in cluster mode, with service.Config.Origin set to the
	// transport address. Required.
	Service *service.Service
	// Transport carries the anti-entropy messages; its address is the node's
	// origin id, so deployments must bind stable addresses (origin ids are
	// written into peers' ledgers) AND keep the service's ledger durable
	// across restarts — a reset ledger reuses origin seqs peers have
	// already marked applied, and its new entries would be silently dropped
	// cluster-wide (cmd/dgserve enforces -data for this reason). Required;
	// the node never closes it.
	Transport transport.Transport
	// Peers seeds the membership table with other nodes' transport
	// addresses. One reachable seed suffices: the rest of the cluster is
	// discovered transitively from gossiped views. An empty list is valid
	// for the first node of a cluster — it waits to be discovered.
	Peers []string
	// Interval is the digest ticker period in Start mode. 0 disables the
	// ticker: digests then go out only via Exchange — typically the epoch
	// scheduler's pre-fold poke (service.Replicator) or a test driver. Note
	// an Exchange only initiates pulls; the replies land asynchronously on
	// the receive loop, so a pre-fold poke feeds the next epoch, not the
	// one it precedes — run the ticker faster than the epoch interval when
	// replication lag matters.
	Interval time.Duration
	// Incarnation is this process's liveness generation. It must increase
	// across restarts of the same node (cmd/dgserve derives it from the
	// boot wall-clock) so peers' stale observations of the previous run
	// cannot outrank the new one. 0 defaults to 1 — fine for tests that
	// never restart a node.
	Incarnation uint64
	// Now supplies the local clock (unix nanoseconds) for membership
	// recency. Nil defaults to time.Now; deterministic drivers (the
	// scenario engine) inject a logical clock so suspect/dead transitions
	// replay bit-identically.
	Now func() int64
	// SuspectAfter and DeadAfter are the failure-detection thresholds: a
	// member whose liveness pair has not advanced for SuspectAfter is
	// suspect, for DeadAfter dead. Zero defaults to 5× and 15× Interval
	// (10s/30s when Interval is 0). DeadAfter must exceed SuspectAfter.
	SuspectAfter time.Duration
	DeadAfter    time.Duration
	// BootstrapLag, when > 0, enables requesting snapshot-shipped bootstrap:
	// on receiving a digest, a node that is fresh (empty ledger) or trails
	// the cluster by more than BootstrapLag entries in total asks the sender
	// for a full state transfer (shard segments plus the retained ledger
	// suffix) instead of pulling origin streams entry by entry. 0 disables
	// requesting; every node always serves state requests it receives.
	BootstrapLag uint64
	// Logger receives the node's structured log records: peer state
	// transitions and bootstraps at Info, send failures at Debug. Nil
	// discards everything — the default for library use, so tests and the
	// scenario engine stay quiet (cmd/dgserve passes obs.Logger("cluster")).
	Logger *slog.Logger
}

// Node is one cluster member: the replication agent gluing a reputation
// service to the transport. Exchange, Drain and Stats are safe for
// concurrent use; a node is driven either by Start (asynchronous) or by an
// external single-threaded Exchange/Drain loop, never both.
type Node struct {
	svc      *service.Service
	tr       transport.Transport
	self     string
	interval time.Duration
	maxBatch int // entries per KindEntries message: 256; in-package tests shrink it

	now          func() int64
	suspectAfter int64 // nanos of the local clock
	deadAfter    int64
	bootstrapLag uint64
	log          *slog.Logger

	mu sync.Mutex
	// This node's liveness pair, and one record per peer it knows of (seeded
	// from Config.Peers, grown by view merges and direct messages).
	selfInc, selfHB uint64
	peers           map[string]*peer
	exchanges       uint64 // exchange ticks: the dead-probe and in-flight clock
	// bootstrapReqAt is n.exchanges+1 at the moment an outstanding state
	// request went out (0 = none); it rate-limits re-requests and gates
	// KindState handling to solicited transfers.
	bootstrapReqAt uint64
	c              Counters

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a cluster node over an already-listening transport. The node's
// origin id is the transport address; the service must carry the same id as
// its Config.Origin, or the LWW stamps this node folds for local entries
// would disagree with the stamps peers fold for their replicated copies.
func New(cfg Config) (*Node, error) {
	if cfg.Service == nil {
		return nil, fmt.Errorf("cluster: nil service")
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("cluster: nil transport")
	}
	// A standalone service has an empty origin, which no address matches.
	if got, want := cfg.Service.Origin(), cfg.Transport.Addr(); got != want {
		return nil, fmt.Errorf("cluster: service origin %q != transport address %q — set service.Config.Origin to the cluster address so LWW stamps agree across replicas", got, want)
	}
	n := &Node{
		svc:          cfg.Service,
		tr:           cfg.Transport,
		self:         cfg.Transport.Addr(),
		interval:     cfg.Interval,
		maxBatch:     256,
		now:          cfg.Now,
		bootstrapLag: cfg.BootstrapLag,
		selfInc:      max(cfg.Incarnation, 1),
		peers:        make(map[string]*peer),
		log:          cfg.Logger,
		stop:         make(chan struct{}),
	}
	if n.log == nil {
		n.log = slog.New(slog.DiscardHandler)
	}
	if n.now == nil {
		n.now = func() int64 { return time.Now().UnixNano() }
	}
	suspect, dead := cfg.SuspectAfter, cfg.DeadAfter
	if suspect == 0 {
		if cfg.Interval > 0 {
			suspect = 5 * cfg.Interval
		} else {
			suspect = 10 * time.Second
		}
	}
	if dead == 0 {
		dead = 3 * suspect
	}
	if dead <= suspect {
		return nil, fmt.Errorf("cluster: DeadAfter (%v) must exceed SuspectAfter (%v)", dead, suspect)
	}
	n.suspectAfter, n.deadAfter = int64(suspect), int64(dead)
	boot := n.now()
	for _, id := range cfg.Peers {
		if id == n.self {
			return nil, fmt.Errorf("cluster: peer list contains self (%s)", id)
		}
		n.peers[id] = &peer{id: id, lastAdvance: boot}
	}
	return n, nil
}

// Self returns this node's origin id (its transport address).
func (n *Node) Self() string { return n.self }

// Drain synchronously processes every message currently queued on the
// transport inbox and returns how many it handled. It never blocks waiting
// for more — the deterministic driving mode for tests and the scenario
// engine (call Exchange on every node, then Drain on every node until the
// cluster quiesces).
func (n *Node) Drain() int {
	count := 0
	for {
		select {
		case msg, ok := <-n.tr.Inbox():
			if !ok {
				return count
			}
			n.handle(msg)
			count++
		default:
			return count
		}
	}
}

// Start launches the asynchronous mode: a goroutine draining the inbox and,
// with Config.Interval > 0, a digest ticker. Close stops both.
func (n *Node) Start() {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for {
			select {
			case <-n.stop:
				return
			case msg, ok := <-n.tr.Inbox():
				if !ok {
					return
				}
				n.handle(msg)
			}
		}
	}()
	if n.interval > 0 {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			t := time.NewTicker(n.interval)
			defer t.Stop()
			for {
				select {
				case <-n.stop:
					return
				case <-t.C:
					n.Exchange()
				}
			}
		}()
	}
}

// Close stops the Start goroutines. It does not close the transport (the
// caller owns it).
func (n *Node) Close() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.wg.Wait()
}

// handle dispatches one inbound message. Any message is first-hand liveness
// evidence for its sender (re-admitting it if it was dead), and a digest's
// view is merged for transitive discovery.
func (n *Node) handle(msg transport.Message) {
	now := n.now()
	n.mu.Lock()
	p := n.observeDirectLocked(msg.From, now)
	if msg.Kind == transport.KindDigest {
		n.mergeViewLocked(msg.View, now)
	}
	n.mu.Unlock()
	if p == nil {
		return // no sender, or our own message: nobody to answer
	}
	switch msg.Kind {
	case transport.KindDigest:
		// Bootstrap decision first: with a state request outstanding,
		// handleDigest suppresses the reciprocal digest, so the sender does
		// not push entry batches the transfer is about to make redundant.
		n.maybeRequestBootstrap(p, msg)
		n.handleDigest(p, msg)
	case transport.KindEntries:
		n.handleEntries(p, msg)
	case transport.KindStateRequest:
		n.handleStateRequest(p, msg)
	case transport.KindState:
		n.handleState(p, msg)
	}
	// Any other kind is not a cluster message; the replication transport is
	// dedicated, so it is a peer bug — ignored rather than crashed on.
}

var _ service.Replicator = (*Node)(nil)
