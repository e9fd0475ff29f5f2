package cluster

import (
	"diffgossip/internal/obs"
)

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
	stat := func(sel func() uint64) func() uint64 {
		return func() uint64 {
			n.mu.Lock()
			defer n.mu.Unlock()
			return sel()
		}
	}
	reg.CounterFunc("diffgossip_cluster_exchanges_total", "",
		"Anti-entropy exchange rounds initiated by this node.", stat(func() uint64 { return n.exchanges }))
	reg.CounterFunc("diffgossip_cluster_digests_sent_total", "",
		"Digest messages sent.", stat(func() uint64 { return n.stats.digestsSent }))
	reg.CounterFunc("diffgossip_cluster_digests_received_total", "",
		"Digest messages received.", stat(func() uint64 { return n.stats.digestsRecv }))
	reg.CounterFunc("diffgossip_cluster_batches_sent_total", "",
		"Entries batches sent (pushes and digest answers).", stat(func() uint64 { return n.stats.batchesSent }))
	reg.CounterFunc("diffgossip_cluster_batches_received_total", "",
		"Entries batches received.", stat(func() uint64 { return n.stats.batchesRecv }))
	reg.CounterFunc("diffgossip_cluster_entries_applied_total", "",
		"Replicated entries applied to the local ledger.", stat(func() uint64 { return n.stats.applied }))
	reg.CounterFunc("diffgossip_cluster_entries_duplicate_total", "",
		"Replicated entries skipped as idempotent re-deliveries.", stat(func() uint64 { return n.stats.duplicate }))
	reg.CounterFunc("diffgossip_cluster_batches_gapped_total", "",
		"Entries batches discarded because an earlier batch was lost.", stat(func() uint64 { return n.stats.gapped }))
	reg.CounterFunc("diffgossip_cluster_hist_trims_total", "",
		"History-trim passes that dropped superseded replication entries.", stat(func() uint64 { return n.stats.histTrims }))
	reg.CounterFunc("diffgossip_cluster_hist_trimmed_entries_total", "",
		"Superseded entries dropped from the in-memory replication history.", stat(func() uint64 { return n.stats.histTrimmed }))
	reg.CounterFunc("diffgossip_cluster_bootstrap_requests_sent_total", "",
		"Snapshot-shipped bootstrap state requests sent.", stat(func() uint64 { return n.stats.stateReqsSent }))
	reg.CounterFunc("diffgossip_cluster_bootstrap_requests_served_total", "",
		"Snapshot-shipped bootstrap state requests answered with a transfer.", stat(func() uint64 { return n.stats.stateReqsServed }))
	reg.CounterFunc("diffgossip_cluster_bootstraps_installed_total", "",
		"Bootstrap state transfers installed into the local service.", stat(func() uint64 { return n.stats.statesInstalled }))
	reg.CounterFunc("diffgossip_cluster_bootstrap_errors_total", "",
		"Bootstrap serves or installs that failed.", stat(func() uint64 { return n.stats.bootstrapErrs }))
	reg.GaugeMapFunc("diffgossip_cluster_members", "state",
		"Known cluster members by membership state (alive, suspect, dead).", func() map[string]float64 {
			n.mu.Lock()
			defer n.mu.Unlock()
			n.updateStatesLocked(n.now())
			out := map[string]float64{"alive": 0, "suspect": 0, "dead": 0}
			for _, m := range n.members {
				out[m.state.String()]++
			}
			return out
		})
	reg.GaugeMapFunc("diffgossip_cluster_peer_state", "peer",
		"Per-peer membership state: 0 = alive, 1 = suspect, 2 = dead.", func() map[string]float64 {
			n.mu.Lock()
			defer n.mu.Unlock()
			n.updateStatesLocked(n.now())
			out := make(map[string]float64, len(n.members))
			for id, m := range n.members {
				out[id] = float64(m.state)
			}
			return out
		})
}
