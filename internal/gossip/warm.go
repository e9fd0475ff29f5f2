package gossip

// CampaignState is the portable end-of-run state of one per-subject push-sum
// campaign: everything a later epoch needs to restart the campaign from its
// converged point instead of from scratch. The shard snapshots persist one
// per computed subject, and core.GlobalSubjects seeds restarted campaigns
// from them (injecting the feedback deltas as mass corrections), falling
// back to a cold start whenever the recorded state no longer fits the
// subject's current rater set or campaign mode.
//
// The state is self-describing: Raters/PrevVals freeze the trust column the
// recording run folded, so a restart can both validate applicability (the
// rater set must still be compatible) and compute the exact per-rater mass
// delta without consulting any other source.
type CampaignState struct {
	// Sparse marks state recorded by a restricted-overlay campaign: Y and G
	// then hold one mass per overlay node (== per rater, in ascending rater
	// order). Dense state holds one mass per graph node.
	Sparse bool
	// Raters is the ascending rater-id set the recording run folded;
	// PrevVals holds the trust values it saw, aligned with Raters.
	Raters   []int
	PrevVals []float64
	// Y and G are the per-node value/weight masses at the end of the
	// recording run (length N for dense campaigns, len(Raters) for sparse).
	Y, G []float64
	// Steps is the recording run's step count — the scheduler's cost
	// estimate for campaigns that must restart cold.
	Steps int
	// Converged records whether the recording run actually converged. Only
	// converged state may answer an unchanged campaign without re-running the
	// engine — state frozen by a step-budget abort must keep recomputing.
	Converged bool
}

// ExportState copies the engine's current masses into ys and gs, one entry
// per node (so both must have length N — the overlay size for a sparse
// campaign's engine). Together with CampaignState this is the warm-start
// capture path: the caller snapshots a converged campaign's masses without
// touching the engine's internals.
func (e *Engine) ExportState(ys, gs []float64) {
	for i := range e.cur {
		ys[i], gs[i] = e.cur[i].Y, e.cur[i].G
	}
}

// SetMinSteps adjusts the convergence floor between runs: the next run will
// not honour convergence before ms steps. Warm-started campaigns use a small
// floor so a freshly injected delta gets at least a few mixing rounds before
// any node may announce (the injected node's own ratio is invariant under
// pushing, so without a floor it could announce on step one); cold campaigns
// run with the configured default. Calling this mid-run would change the
// convergence rule under the protocol's feet — callers set it right after
// Reset, before the first Step.
func (e *Engine) SetMinSteps(ms int) {
	if ms < 0 {
		ms = 0
	}
	e.cfg.MinSteps = ms
}
