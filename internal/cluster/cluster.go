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
// as they are, translating nothing. An anti-entropy exchange is then two
// message kinds:
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
// One digest answer streams: B keeps framing MaxBatch-sized batches for an
// origin until A is level or 16 of them (digestAnswerBatches) have gone out,
// so a peer returning from a long outage gets its whole backlog on first
// contact rather than one chunk per exchange. That is why nothing is buffered
// on behalf of an unreachable peer: what it is owed is already retained — per
// origin, in memory and in the WAL — by the replicating ledger, which history
// trimming never cuts past a member that has not acknowledged it, and the
// peer's first digest says exactly where to resume. Lags deeper than the
// budget continue on the next digest or, past Config.BootstrapLag, go by
// snapshot.
//
// On top of the pull, each node keeps a per-peer cache of the watermarks it
// last saw in that peer's digests and eagerly *pushes* new entries past the
// cached marks on every exchange — push-pull anti-entropy. The pull remains
// the correctness backstop (a lost push is re-pulled from the true
// watermark); the push cuts convergence from two digest round-trips to one
// send. A failed push leaves the cache where it was, and dead members are
// not pushed to at all.
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
// pair advances past every stale observation.
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
	"sort"
	"sync"
	"time"

	"diffgossip/internal/service"
	"diffgossip/internal/store"
	"diffgossip/internal/transport"
)

// Config parameterises a cluster node.
type Config struct {
	// Service is the reputation service this node replicates; it must have
	// been built with service.Config.Replicate. Required.
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
	// MaxBatch caps the entries per KindEntries message (default 256). A
	// digest answer streams up to 16 such batches per origin; larger
	// backlogs continue on successive digest exchanges.
	MaxBatch int
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
	// TrimEvery, when > 0, trims the in-memory replication history every
	// TrimEvery-th exchange: superseded entries that every known member's
	// watermark has passed are dropped (cell winners and per-stream heads
	// are always retained), bounding cluster-mode memory by live state plus
	// peer lag instead of lifetime traffic. Trimming waits until a digest
	// has been seen from every member — a long-dead member stalls trimming
	// rather than risking entries it may still need. 0 disables trimming.
	TrimEvery int
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
	maxBatch int
	interval time.Duration

	now          func() int64
	suspectAfter int64 // nanos of the local clock
	deadAfter    int64
	trimEvery    int
	bootstrapLag uint64
	log          *slog.Logger

	mu    sync.Mutex
	peerH map[string]*peerHealth
	// Membership: this node's liveness pair plus the table of every peer it
	// knows of (seeded from Config.Peers, grown by view merges).
	selfInc   uint64
	selfHB    uint64
	exchanges uint64 // exchange ticks, for the dead-probe cadence
	members   map[string]*member
	// ackMark caches, per peer, the watermarks it last advertised —
	// authoritative on every digest received from it, advanced
	// optimistically when entries are sent to it. The eager push sends only
	// what ackMark says the peer is missing.
	ackMark map[string]map[string]uint64
	// bootstrapReqAt is n.exchanges+1 at the moment an outstanding state
	// request went out (0 = none); it rate-limits re-requests and gates
	// KindState handling to solicited transfers.
	bootstrapReqAt uint64

	stats struct {
		digestsSent, digestsRecv   uint64
		batchesSent, batchesRecv   uint64
		applied, duplicate, gapped uint64
		histTrims                  uint64
		histTrimmed                uint64
		stateReqsSent              uint64
		stateReqsServed            uint64
		statesInstalled            uint64
		bootstrapErrs              uint64
	}

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

type peerHealth struct {
	lastSeen    int64 // unix nanos of the last message received
	lastSendErr string
}

// New builds a cluster node over an already-listening transport. The node's
// origin id is the transport address; the service must carry the same id as
// its Config.Origin, or the LWW tags this node computes for local entries
// would disagree with the tags peers compute for their replicated copies.
func New(cfg Config) (*Node, error) {
	if cfg.Service == nil {
		return nil, fmt.Errorf("cluster: nil service")
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("cluster: nil transport")
	}
	if cfg.Service.ReplicationMarks() == nil {
		// EnableReplication leaves a non-nil (possibly empty) mark map; nil
		// means the service was built without Config.Replicate.
		return nil, fmt.Errorf("cluster: service was not built with Config.Replicate")
	}
	if got, want := cfg.Service.Origin(), cfg.Transport.Addr(); got != want {
		return nil, fmt.Errorf("cluster: service origin %q != transport address %q — set service.Config.Origin to the cluster address so LWW tags agree across replicas", got, want)
	}
	n := &Node{
		svc:          cfg.Service,
		tr:           cfg.Transport,
		self:         cfg.Transport.Addr(),
		maxBatch:     cfg.MaxBatch,
		interval:     cfg.Interval,
		now:          cfg.Now,
		trimEvery:    cfg.TrimEvery,
		bootstrapLag: cfg.BootstrapLag,
		selfInc:      cfg.Incarnation,
		peerH:        make(map[string]*peerHealth),
		members:      make(map[string]*member),
		ackMark:      make(map[string]map[string]uint64),
		log:          cfg.Logger,
		stop:         make(chan struct{}),
	}
	if n.log == nil {
		n.log = slog.New(slog.DiscardHandler)
	}
	if n.maxBatch <= 0 {
		n.maxBatch = 256
	}
	if n.selfInc == 0 {
		n.selfInc = 1
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
	for _, p := range cfg.Peers {
		if p == n.self {
			return nil, fmt.Errorf("cluster: peer list contains self (%s)", p)
		}
		n.peerH[p] = &peerHealth{}
		n.members[p] = &member{id: p, addr: p, lastAdvance: boot, state: MemberAlive}
	}
	return n, nil
}

// Self returns this node's origin id (its transport address).
func (n *Node) Self() string { return n.self }

// deadProbeEvery is the cadence (in exchange ticks) at which dead members
// still receive a digest — the cheap probe that notices a peer which came
// back without remembering us. The TCP transport's dial backoff keeps even
// these probes from hammering a host that is really gone.
const deadProbeEvery = 4

// Exchange runs one anti-entropy tick: advance this node's heartbeat,
// reclassify members, send a digest (with the membership view) to every
// non-dead member — plus a periodic probe to dead ones — and eagerly push
// entries past each live peer's cached watermarks. Send failures are recorded
// per peer (see Stats) and never abort the round: an unreachable peer pulls
// what it missed with its next digest.
func (n *Node) Exchange() {
	digest := n.svc.ReplicationMarks()
	n.mu.Lock()
	n.selfHB++
	now := n.now()
	n.updateStatesLocked(now)
	n.exchanges++
	tick := n.exchanges
	probe := tick%deadProbeEvery == 0
	view := n.viewLocked()
	ids := n.memberIDsLocked()
	states := make(map[string]MemberState, len(ids))
	for _, id := range ids {
		states[id] = n.members[id].state
	}
	n.mu.Unlock()

	for _, p := range ids {
		if states[p] == MemberDead && !probe {
			continue
		}
		err := n.tr.Send(p, transport.Message{Kind: transport.KindDigest, Watermarks: digest, View: view})
		n.mu.Lock()
		n.stats.digestsSent++
		n.recordSendLocked(p, err)
		n.mu.Unlock()
	}
	n.pushEntries(digest, ids, states)
	if n.trimEvery > 0 && tick%uint64(n.trimEvery) == 0 {
		n.trimRetainedHistory()
	}
}

// pushEntries is the eager half of push-pull anti-entropy: for every member
// whose digest we have seen (the ackMark cache), send up to one batch per
// origin stream the cache says it is missing. Successful sends advance the
// cache optimistically; a failed send leaves it where it was, and dead
// members are skipped — whatever they are owed stays in the ledger's retained
// history until their digest asks for it. A cache that ran ahead of reality
// is corrected by the peer's next digest (and the batch it gap-discards is
// re-pulled), so optimism never loses entries.
func (n *Node) pushEntries(digest map[string]uint64, ids []string, states map[string]MemberState) {
	origins := make([]string, 0, len(digest))
	for o := range digest {
		origins = append(origins, o)
	}
	sort.Strings(origins)
	for _, p := range ids {
		if states[p] == MemberDead {
			continue
		}
		n.mu.Lock()
		known := n.ackMark[p] != nil
		n.mu.Unlock()
		if !known {
			continue // never seen p's digest: don't guess what it needs
		}
		for _, o := range origins {
			if o == p {
				continue // p owns that stream; it cannot be missing it
			}
			n.mu.Lock()
			after := n.ackMark[p][o]
			n.mu.Unlock()
			if digest[o] <= after {
				continue
			}
			batch, ok := n.batchFor(o, after)
			if !ok {
				continue
			}
			err := n.tr.Send(p, batch)
			n.mu.Lock()
			n.stats.batchesSent++
			n.recordSendLocked(p, err)
			if err == nil && n.ackMark[p] != nil {
				n.ackMark[p][o] = batch.Entries[len(batch.Entries)-1].OriginSeq
			}
			n.mu.Unlock()
		}
	}
}

// recordSendLocked updates a peer's health record after a send attempt,
// creating the record for peers discovered at runtime. Caller holds n.mu.
func (n *Node) recordSendLocked(p string, err error) {
	h := n.peerH[p]
	if h == nil {
		h = &peerHealth{}
		n.peerH[p] = h
	}
	if err != nil {
		h.lastSendErr = err.Error()
		n.log.Debug("send failed", "peer", p, "err", err)
	} else {
		h.lastSendErr = ""
	}
}

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
	h := n.peerH[msg.From]
	if h == nil {
		h = &peerHealth{}
		n.peerH[msg.From] = h
	}
	h.lastSeen = now
	n.observeDirectLocked(msg.From, now)
	if msg.Kind == transport.KindDigest && len(msg.View) > 0 {
		n.mergeViewLocked(msg.View, now)
	}
	n.mu.Unlock()

	switch msg.Kind {
	case transport.KindDigest:
		// Bootstrap decision first: with a state request outstanding,
		// handleDigest suppresses the reciprocal digest, so the sender does
		// not push entry batches the transfer is about to make redundant.
		n.maybeRequestBootstrap(msg)
		n.handleDigest(msg)
	case transport.KindEntries:
		n.handleEntries(msg)
	case transport.KindStateRequest:
		n.handleStateRequest(msg)
	case transport.KindState:
		n.handleState(msg)
	default:
		// Not a cluster message; the replication transport is dedicated, so
		// anything else is a peer bug — ignore rather than crash.
	}
}

// digestAnswerBatches is the most batches one digest answer streams per
// origin: 4096 entries at the default MaxBatch, and few enough messages that
// a manually driven hub inbox (1,024 deep) cannot fill before its Drain.
const digestAnswerBatches = 16

// handleDigest answers a peer's watermark digest with consecutive entries
// batches per origin stream the peer trails on, until the peer is level or
// digestAnswerBatches have gone out for that origin; deeper backlogs
// continue on the peer's next digest. When the digest shows the *sender*
// ahead instead, one digest goes back to it — so replication is two-way on
// any connected join graph, even if only one side lists the other as a peer.
// The reciprocal fires only while strictly behind, so it cannot ping-pong
// once the streams agree.
func (n *Node) handleDigest(msg transport.Message) {
	n.mu.Lock()
	n.stats.digestsRecv++
	// The digest is the peer's authoritative statement of what it has:
	// reset the push cache to it. It may move DOWN — e.g. our optimistic
	// advance outran a batch the network dropped — which is exactly how the
	// push resynchronises.
	acks := make(map[string]uint64, len(msg.Watermarks))
	for o, s := range msg.Watermarks {
		acks[o] = s
	}
	n.ackMark[msg.From] = acks
	awaitingState := n.bootstrapReqAt != 0
	view := n.viewLocked()
	n.mu.Unlock()

	mine := n.svc.ReplicationMarks()
	behind := false
	for o, theirs := range msg.Watermarks {
		if o != n.self && theirs > mine[o] {
			behind = true
			break
		}
	}
	// While a state request is outstanding the reciprocal digest is
	// suppressed: advertising stale marks would invite entry pushes the
	// incoming transfer covers wholesale.
	if behind && !awaitingState {
		err := n.tr.Send(msg.From, transport.Message{Kind: transport.KindDigest, Watermarks: mine, View: view})
		n.mu.Lock()
		n.stats.digestsSent++
		n.recordSendLocked(msg.From, err)
		n.mu.Unlock()
	}
	// Deterministic origin order keeps manually driven clusters replayable.
	origins := make([]string, 0, len(mine))
	for o := range mine {
		origins = append(origins, o)
	}
	sort.Strings(origins)
	for _, o := range origins {
		if o == msg.From {
			continue // the peer's own stream, which it cannot be missing
		}
		after := msg.Watermarks[o]
		for sent := 0; sent < digestAnswerBatches && mine[o] > after; sent++ {
			batch, ok := n.batchFor(o, after)
			if !ok {
				break
			}
			err := n.tr.Send(msg.From, batch)
			n.mu.Lock()
			n.stats.batchesSent++
			n.recordSendLocked(msg.From, err)
			if err == nil {
				after = batch.Entries[len(batch.Entries)-1].OriginSeq
				if cur := n.ackMark[msg.From]; cur != nil && after > cur[o] {
					cur[o] = after // don't re-push what this answer already carried
				}
			}
			n.mu.Unlock()
			if err != nil {
				break
			}
		}
	}
}

// batchFor frames one KindEntries batch contiguously extending origin's
// stream past `after`, capped at MaxBatch entries. ok is false when nothing
// is retained past that point.
func (n *Node) batchFor(origin string, after uint64) (batch transport.Message, ok bool) {
	ents := n.svc.ReplicationEntriesSince(origin, after, n.maxBatch)
	if len(ents) == 0 {
		return transport.Message{}, false
	}
	return transport.Message{Kind: transport.KindEntries, Origin: origin, After: after, Entries: toWire(ents)}, true
}

// handleEntries applies one replicated batch in one call, all or nothing. A
// batch whose After frame is above this node's watermark for the origin is
// discarded whole — an earlier batch was lost in transit, and applying this
// one would leave a permanent hole in the stream; the next digest exchange
// re-pulls from the true watermark. Entries at or below the watermark are
// duplicates and skip for free.
func (n *Node) handleEntries(msg transport.Message) {
	n.mu.Lock()
	n.stats.batchesRecv++
	n.mu.Unlock()
	if msg.Origin == "" || msg.Origin == n.self {
		return // malformed, or our own stream echoed back
	}
	mark := n.svc.ReplicationMark(msg.Origin)
	if msg.After > mark {
		n.mu.Lock()
		n.stats.gapped++
		n.mu.Unlock()
		return
	}
	entries := fromWire(msg.Entries)
	for i := range entries {
		entries[i].Origin = msg.Origin // the frame names the stream
	}
	applied, err := n.svc.ApplyReplicated(entries)
	n.mu.Lock()
	defer n.mu.Unlock()
	if err != nil {
		// Validation or WAL I/O failure: nothing applied. Surface it on the
		// peer record; the stream re-pulls from the watermark.
		if h := n.peerH[msg.From]; h != nil {
			h.lastSendErr = fmt.Sprintf("apply %s past %d: %v", msg.Origin, msg.After, err)
		}
		return
	}
	n.stats.applied += uint64(applied)
	n.stats.duplicate += uint64(len(entries) - applied)
}

// toWire and fromWire convert ledger entries to and from their wire form. The
// receiving ledger assigns its own local Seq on append.
func toWire(ents []store.Feedback) []transport.FeedbackEntry {
	out := make([]transport.FeedbackEntry, len(ents))
	for i, fb := range ents {
		out[i] = transport.FeedbackEntry{Origin: fb.Origin, OriginSeq: fb.OriginSeq,
			Rater: fb.Rater, Subject: fb.Subject, Value: fb.Value, UnixNano: fb.UnixNano}
	}
	return out
}

func fromWire(ents []transport.FeedbackEntry) []store.Feedback {
	out := make([]store.Feedback, len(ents))
	for i, e := range ents {
		out[i] = store.Feedback{Origin: e.Origin, OriginSeq: e.OriginSeq,
			Rater: e.Rater, Subject: e.Subject, Value: e.Value, UnixNano: e.UnixNano}
	}
	return out
}

// PeerStat is one peer's health entry in Stats.
type PeerStat struct {
	// Addr is the peer's transport address.
	Addr string `json:"addr"`
	// LastSeenUnixNano is when this node last received any message from the
	// peer (0 = never).
	LastSeenUnixNano int64 `json:"last_seen_unix_nano,omitempty"`
	// LastErr is the most recent send or apply error involving this peer
	// (empty = healthy).
	LastErr string `json:"last_err,omitempty"`
}

// MemberStat is one membership-table row in Stats.
type MemberStat struct {
	// ID is the member's origin id; Addr is where it is reached.
	ID   string `json:"id"`
	Addr string `json:"addr"`
	// State is the failure detector's current classification: "alive",
	// "suspect" or "dead".
	State string `json:"state"`
	// Incarnation and Heartbeat are the freshest liveness pair observed.
	Incarnation uint64 `json:"incarnation"`
	Heartbeat   uint64 `json:"heartbeat"`
	// LastAdvanceUnixNano is the local clock reading when the pair last
	// advanced.
	LastAdvanceUnixNano int64 `json:"last_advance_unix_nano,omitempty"`
}

// Stats is a point-in-time observation of the replication layer: this node's
// watermarks, membership table, per-peer health, and the exchange counters.
type Stats struct {
	// Self is this node's origin id; Incarnation and Heartbeat its own
	// liveness pair.
	Self        string `json:"self"`
	Incarnation uint64 `json:"incarnation"`
	Heartbeat   uint64 `json:"heartbeat"`
	// Marks maps every origin stream this node holds to its watermark.
	Marks map[string]uint64 `json:"marks"`
	// Members is the membership table (seeds plus discovered peers), in id
	// order.
	Members []MemberStat `json:"members,omitempty"`
	// Peers lists per-peer transport health (any address exchanged with),
	// in address order.
	Peers []PeerStat `json:"peers"`
	// DigestsSent/DigestsReceived and BatchesSent/BatchesReceived count the
	// anti-entropy messages exchanged.
	DigestsSent     uint64 `json:"digests_sent"`
	DigestsReceived uint64 `json:"digests_received"`
	BatchesSent     uint64 `json:"batches_sent"`
	BatchesReceived uint64 `json:"batches_received"`
	// EntriesApplied counts replicated entries folded in; EntriesDuplicate
	// counts idempotent re-deliveries skipped; BatchesGapped counts batches
	// discarded because an earlier one was lost.
	EntriesApplied   uint64 `json:"entries_applied"`
	EntriesDuplicate uint64 `json:"entries_duplicate"`
	BatchesGapped    uint64 `json:"batches_gapped,omitempty"`
	// HistTrims counts history-trim passes that dropped anything, and
	// HistTrimmedEntries the lifetime total of superseded entries dropped
	// from the in-memory replication history.
	HistTrims          uint64 `json:"hist_trims,omitempty"`
	HistTrimmedEntries uint64 `json:"hist_trimmed_entries,omitempty"`
	// BootstrapRequestsSent/Served count snapshot-shipped bootstrap
	// requests from each side; BootstrapsInstalled counts transfers this
	// node applied, and BootstrapErrors failed serves or installs.
	BootstrapRequestsSent   uint64 `json:"bootstrap_requests_sent,omitempty"`
	BootstrapRequestsServed uint64 `json:"bootstrap_requests_served,omitempty"`
	BootstrapsInstalled     uint64 `json:"bootstraps_installed,omitempty"`
	BootstrapErrors         uint64 `json:"bootstrap_errors,omitempty"`
	// DialFailures maps peer address to consecutive failed connection
	// attempts, when the transport tracks them (TCP dial backoff).
	DialFailures map[string]int `json:"dial_failures,omitempty"`
}

// Stats assembles the current replication statistics.
func (n *Node) Stats() Stats {
	st := Stats{Self: n.self, Marks: n.svc.ReplicationMarks()}
	if fr, ok := n.tr.(transport.FailureReporter); ok {
		if f := fr.ConsecutiveFailures(); len(f) > 0 {
			st.DialFailures = f
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.updateStatesLocked(n.now())
	st.Incarnation = n.selfInc
	st.Heartbeat = n.selfHB
	st.DigestsSent = n.stats.digestsSent
	st.DigestsReceived = n.stats.digestsRecv
	st.BatchesSent = n.stats.batchesSent
	st.BatchesReceived = n.stats.batchesRecv
	st.EntriesApplied = n.stats.applied
	st.EntriesDuplicate = n.stats.duplicate
	st.BatchesGapped = n.stats.gapped
	st.HistTrims = n.stats.histTrims
	st.HistTrimmedEntries = n.stats.histTrimmed
	st.BootstrapRequestsSent = n.stats.stateReqsSent
	st.BootstrapRequestsServed = n.stats.stateReqsServed
	st.BootstrapsInstalled = n.stats.statesInstalled
	st.BootstrapErrors = n.stats.bootstrapErrs
	for _, id := range n.memberIDsLocked() {
		m := n.members[id]
		st.Members = append(st.Members, MemberStat{
			ID: m.id, Addr: m.addr, State: m.state.String(),
			Incarnation: m.incarnation, Heartbeat: m.heartbeat,
			LastAdvanceUnixNano: m.lastAdvance,
		})
	}
	addrs := make([]string, 0, len(n.peerH))
	for a := range n.peerH {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	for _, a := range addrs {
		h := n.peerH[a]
		st.Peers = append(st.Peers, PeerStat{Addr: a, LastSeenUnixNano: h.lastSeen, LastErr: h.lastSendErr})
	}
	return st
}

var _ service.Replicator = (*Node)(nil)
