package service

import (
	"diffgossip/internal/obs"
)

// Instrument registers the service's epoch-pipeline metrics with reg, plus
// its ledger's store-layer metrics. Counters and gauges read the atomics the
// service maintains anyway; the epoch- and fold-duration histograms are
// created here behind atomic pointers, so an uninstrumented service records
// nothing and RunEpoch's instrumentation stays atomic-only either way. Call
// once per registry, before serving.
func (s *Service) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	eh := obs.NewHistogram(obs.DefBuckets()...)
	fh := obs.NewHistogram(obs.DefBuckets()...)
	// Campaign step counts are small integers, not seconds — power-of-two
	// buckets cover everything from a small sparse campaign's handful of
	// steps to a dense campaign's log²-shaped budget.
	sh := obs.NewHistogram(1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
	s.epochHist.Store(eh)
	s.foldHist.Store(fh)
	s.stepsHist.Store(sh)
	reg.CounterFunc("diffgossip_service_epochs_total", "",
		"Fold rounds completed (no-op epochs with nothing pending excluded).", s.epochs.Load)
	reg.CounterFunc("diffgossip_service_folded_shards_total", "",
		"Shard folds run across all epochs.", s.foldedShards.Load)
	reg.CounterFunc("diffgossip_service_folded_subjects_total", "",
		"Per-subject gossip campaigns run across all epochs.", s.foldedSubjects.Load)
	reg.CounterFunc("diffgossip_service_campaign_steps_total", "",
		"Gossip steps summed over shard folds (each fold contributes its slowest campaign's step count).", s.campaignSteps.Load)
	reg.CounterFunc("diffgossip_service_epochs_converged_total", "",
		"Epochs whose every shard fold hit the ξ convergence tolerance.", s.convergedEpochs.Load)
	reg.CounterFunc("diffgossip_service_epoch_errors_total", "",
		"Epochs that failed and restored their batch for retry.", s.epochErrs.Load)
	reg.GaugeFunc("diffgossip_service_pending_entries", "",
		"Feedback entries waiting for the next epoch fold.", func() float64 { return float64(s.Pending()) })
	reg.GaugeFunc("diffgossip_service_dirty_shards", "",
		"Shards with pending feedback the next epoch must refold.", func() float64 { return float64(s.ledger.DirtyCount()) })
	if s.cfg.Dir != "" {
		reg.GaugeFunc("diffgossip_service_wal_dead_entries", "",
			"WAL entries beyond the persisted cells and the pending window, which compaction drops.", func() float64 { dead, _ := s.walDebt(); return float64(dead) })
		reg.GaugeFunc("diffgossip_service_wal_live_entries", "",
			"Persisted trust cells plus pending entries; an epoch compacts the WAL once the dead entries reach them.", func() float64 { _, live := s.walDebt(); return float64(live) })
	}
	reg.GaugeFunc("diffgossip_service_last_epoch_unix_seconds", "",
		"Wall-clock time of the last completed epoch (0 before the first), in unix seconds.", func() float64 {
			return float64(s.lastEpoch.Load()) / 1e9
		})
	reg.Histogram("diffgossip_service_epoch_duration_seconds", "",
		"Epoch compute-phase duration (fold, campaigns, publish), in seconds.", eh)
	reg.Histogram("diffgossip_service_shard_fold_duration_seconds", "",
		"Per-shard gossip campaign duration, in seconds.", fh)
	reg.Histogram("diffgossip_service_campaign_steps", "",
		"Gossip steps per per-subject campaign.", sh)
	s.ledger.Instrument(reg)
}
