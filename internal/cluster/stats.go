package cluster

import (
	"diffgossip/internal/obs"
	"diffgossip/internal/transport"
)

// Counters are the node's lifetime exchange counters, maintained under the
// node's mutex whether or not anything reads them; Stats embeds a copy and
// Instrument exports each one as a diffgossip_cluster_* counter.
type Counters struct {
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
	// BootstrapRequestsSent/Served count snapshot-shipped bootstrap
	// requests from each side; BootstrapsInstalled counts transfers this
	// node applied, and BootstrapErrors failed serves or installs.
	BootstrapRequestsSent   uint64 `json:"bootstrap_requests_sent,omitempty"`
	BootstrapRequestsServed uint64 `json:"bootstrap_requests_served,omitempty"`
	BootstrapsInstalled     uint64 `json:"bootstraps_installed,omitempty"`
	BootstrapErrors         uint64 `json:"bootstrap_errors,omitempty"`
}

// inc bumps one of the node's counters under n.mu.
func (n *Node) inc(counter *uint64) {
	n.mu.Lock()
	*counter++
	n.mu.Unlock()
}

// PeerStat is one peer's health entry in Stats.
type PeerStat struct {
	// Addr is the peer's transport address (its origin id).
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
	// ID is the member's origin id; Addr repeats it (every send goes to the
	// id).
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
	// Peers lists the same peers' transport health, in address order.
	Peers []PeerStat `json:"peers"`
	Counters
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
	st.Incarnation, st.Heartbeat, st.Counters = n.selfInc, n.selfHB, n.c
	for _, p := range n.sortedPeersLocked() {
		st.Members = append(st.Members, MemberStat{
			ID: p.id, Addr: p.id, State: p.state.String(),
			Incarnation: p.incarnation, Heartbeat: p.heartbeat,
			LastAdvanceUnixNano: p.lastAdvance,
		})
		st.Peers = append(st.Peers, PeerStat{Addr: p.id, LastSeenUnixNano: p.lastSeen, LastErr: p.lastErr})
	}
	return st
}

// Instrument registers the node's replication and membership metrics with
// reg. Every collector reads the node's existing mutex-guarded counters at
// scrape time (the node maintains them regardless of registration), so
// instrumentation adds zero cost to the exchange path; a scrape takes n.mu
// briefly, exactly like a /v1/stats read. Call once per registry, before
// serving.
func (n *Node) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	stat := func(counter *uint64) func() uint64 {
		return func() uint64 {
			n.mu.Lock()
			defer n.mu.Unlock()
			return *counter
		}
	}
	reg.CounterFunc("diffgossip_cluster_exchanges_total", "",
		"Anti-entropy exchange rounds initiated by this node.", stat(&n.exchanges))
	reg.CounterFunc("diffgossip_cluster_digests_sent_total", "",
		"Digest messages sent.", stat(&n.c.DigestsSent))
	reg.CounterFunc("diffgossip_cluster_digests_received_total", "",
		"Digest messages received.", stat(&n.c.DigestsReceived))
	reg.CounterFunc("diffgossip_cluster_batches_sent_total", "",
		"Entries batches sent (pushes and digest answers).", stat(&n.c.BatchesSent))
	reg.CounterFunc("diffgossip_cluster_batches_received_total", "",
		"Entries batches received.", stat(&n.c.BatchesReceived))
	reg.CounterFunc("diffgossip_cluster_entries_applied_total", "",
		"Replicated entries applied to the local ledger.", stat(&n.c.EntriesApplied))
	reg.CounterFunc("diffgossip_cluster_entries_duplicate_total", "",
		"Replicated entries skipped as idempotent re-deliveries.", stat(&n.c.EntriesDuplicate))
	reg.CounterFunc("diffgossip_cluster_batches_gapped_total", "",
		"Entries batches discarded because an earlier batch was lost.", stat(&n.c.BatchesGapped))
	reg.CounterFunc("diffgossip_cluster_bootstrap_requests_sent_total", "",
		"Snapshot-shipped bootstrap state requests sent.", stat(&n.c.BootstrapRequestsSent))
	reg.CounterFunc("diffgossip_cluster_bootstrap_requests_served_total", "",
		"Snapshot-shipped bootstrap state requests answered with a transfer.", stat(&n.c.BootstrapRequestsServed))
	reg.CounterFunc("diffgossip_cluster_bootstraps_installed_total", "",
		"Bootstrap state transfers installed into the local service.", stat(&n.c.BootstrapsInstalled))
	reg.CounterFunc("diffgossip_cluster_bootstrap_errors_total", "",
		"Bootstrap serves or installs that failed.", stat(&n.c.BootstrapErrors))
	reg.GaugeMapFunc("diffgossip_cluster_members", "state",
		"Known cluster members by membership state (alive, suspect, dead).", func() map[string]float64 {
			n.mu.Lock()
			defer n.mu.Unlock()
			n.updateStatesLocked(n.now())
			out := map[string]float64{"alive": 0, "suspect": 0, "dead": 0}
			for _, p := range n.peers {
				out[p.state.String()]++
			}
			return out
		})
	reg.GaugeMapFunc("diffgossip_cluster_peer_state", "peer",
		"Per-peer membership state: 0 = alive, 1 = suspect, 2 = dead.", func() map[string]float64 {
			n.mu.Lock()
			defer n.mu.Unlock()
			n.updateStatesLocked(n.now())
			out := make(map[string]float64, len(n.peers))
			for id, p := range n.peers {
				out[id] = float64(p.state)
			}
			return out
		})
}
