package store

import (
	"diffgossip/internal/obs"
)

// snapshotWrites counts durable shard-segment writes process-wide. Segment
// saves happen on ShardSnapshot values, which carry no back-pointer to their
// ledger, so the counter lives at package level and Instrument exposes it.
var snapshotWrites obs.Counter

// Instrument registers the ledger's store-layer metrics with reg: entry and
// WAL-line append counters, fsync count and duration, and snapshot segment
// writes. The counters are maintained unconditionally (single atomic adds on
// the append path); only the fsync-duration histogram springs to life here,
// via an atomic pointer, so an uninstrumented ledger never touches it.
// Call once per registry, before serving.
func (l *Ledger) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	h := obs.NewHistogram(obs.DefBuckets()...)
	l.mFsyncHist.Store(h)
	reg.Counter("diffgossip_store_ledger_entries_total", "",
		"Feedback entries accepted into the ledger (in-memory or durable).", &l.mEntries)
	reg.Counter("diffgossip_store_wal_appends_total", "",
		"Feedback entries written as WAL lines (0 for an in-memory ledger).", &l.mWALAppends)
	reg.Counter("diffgossip_store_wal_fsyncs_total", "",
		"WAL fsync syscalls issued.", &l.mFsyncs)
	reg.Histogram("diffgossip_store_wal_fsync_duration_seconds", "",
		"WAL fsync latency, in seconds.", h)
	reg.Counter("diffgossip_store_snapshot_writes_total", "",
		"Durable shard snapshot segment writes (process-wide).", &snapshotWrites)
	reg.Counter("diffgossip_store_wal_compactions_total", "",
		"WAL compaction rewrites completed.", &l.mCompactions)
	reg.Counter("diffgossip_store_wal_compaction_dropped_entries_total", "",
		"Superseded WAL entries dropped by compaction.", &l.mCompactDrops)
}
