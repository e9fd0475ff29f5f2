package service

// ShardStat is one shard's slice of the service statistics: its last fold's
// metadata plus whether pending feedback has re-dirtied it.
type ShardStat struct {
	Shard int `json:"shard"`
	// Epoch and Seq are the shard's current fold point (0/0 = never folded).
	Epoch uint64 `json:"epoch"`
	Seq   uint64 `json:"seq"`
	// Steps, Converged, ElapsedNs and Computed describe the last fold: the
	// slowest campaign's steps, whether all campaigns converged, the fold's
	// wall-clock duration, and how many per-subject campaigns actually ran —
	// one per rated subject the folded batch re-rated, not one per subject of
	// the shard (0 when no write of the batch won its cell).
	Steps     int   `json:"steps"`
	Converged bool  `json:"converged"`
	ElapsedNs int64 `json:"elapsed_ns"`
	Computed  int   `json:"computed_subjects"`
	// TotalSteps sums the last fold's campaign step counts.
	TotalSteps int `json:"total_steps"`
	// Dirty reports pending feedback awaiting this shard's next fold.
	Dirty bool `json:"dirty"`
}

// Stats is a point-in-time observation of the pipeline, assembled entirely
// from atomic loads — no locks anywhere on this path, so the stats endpoint
// can be polled at any rate without perturbing ingest or epochs.
type Stats struct {
	N      int `json:"n"`
	Shards int `json:"shards"`
	// Epochs counts fold rounds completed; Pending and DirtyShards size the
	// backlog awaiting the next round.
	Epochs      uint64 `json:"epochs"`
	Pending     int    `json:"pending"`
	DirtyShards int    `json:"dirty_shards"`
	// FoldedShards and FoldedSubjects are the cumulative incrementality
	// meters (see Service.FoldedSubjects).
	FoldedShards   uint64 `json:"folded_shards"`
	FoldedSubjects uint64 `json:"folded_subjects"`
	// LastEpochNs sums the newest epoch's shard fold durations.
	LastEpochNs int64 `json:"last_epoch_ns"`
	// PerShard has one entry per shard, in shard order.
	PerShard []ShardStat `json:"per_shard"`
}

// Stats assembles the current statistics lock-free: per-shard snapshot
// pointer loads plus the ledger's and service's atomic counters.
func (s *Service) Stats() Stats {
	st := Stats{
		N:              s.n,
		Shards:         s.shards,
		Epochs:         s.epochs.Load(),
		Pending:        s.ledger.PendingCount(),
		DirtyShards:    s.ledger.DirtyCount(),
		FoldedShards:   s.foldedShards.Load(),
		FoldedSubjects: s.foldedSubjects.Load(),
		PerShard:       make([]ShardStat, s.shards),
	}
	var newest uint64
	for sh := range st.PerShard {
		seg := s.states[sh].Load()
		st.PerShard[sh] = ShardStat{
			Shard:      sh,
			Epoch:      seg.Epoch,
			Seq:        seg.Seq,
			Steps:      seg.Steps,
			Converged:  seg.Converged,
			ElapsedNs:  seg.ElapsedNs,
			Computed:   seg.Computed,
			TotalSteps: seg.TotalSteps,
			Dirty:      s.ledger.ShardDirty(sh),
		}
		if seg.Epoch > newest {
			newest = seg.Epoch
		}
	}
	for _, ps := range st.PerShard {
		if ps.Epoch == newest && newest > 0 {
			st.LastEpochNs += ps.ElapsedNs
		}
	}
	return st
}
