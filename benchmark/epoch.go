package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"diffgossip"
	"diffgossip/internal/core"
	"diffgossip/internal/gossip"
	"diffgossip/internal/store"
	"diffgossip/internal/trust"
)

type epochSizes struct {
	n, raters, shards int
	dirty, rounds     int // re-ratings per round, rounds per segment
	positions         int // distinct sets of re-rated cells the rounds cycle through
}

var (
	epochFull  = epochSizes{2500, 48, 20, 125, 12, 4}
	epochSmoke = epochSizes{200, 12, 4, 20, 2, 2}
)

// epochWorkload drives the in-memory service through the public API only.
// Fixture: every subject rated by its pool, one cold full epoch. A round =
// dirty Submits (existing raters re-rate, so every campaign is
// warm-eligible; all shards are touched) + RunEpoch + one Reputation read of
// the first subject re-rated, whose SubjectSeq must cover the submit. The
// primary operation is RunEpoch; work is ratings made visible.
//
// Round r of every segment is a repeat of item r % positions: it re-rates
// that position's cells — the same subjects by the same raters, so the same
// columns are frozen and the same campaigns restart warm — with fresh values.
type epochWorkload struct {
	sz    epochSizes
	g     *diffgossip.Graph
	p     diffgossip.Params
	pools [][]int
	svc   *diffgossip.Service

	// The ladder, traced runs only: a harness-side copy of every rating and
	// of every shard's campaign states, refolded after each round with the
	// calls foldShard makes.
	mirror       *trust.Matrix
	mirrorStates [][]*gossip.CampaignState
	mirrorFolds  int
	coldFold     mirrorFold   // the first refold, which has no warm states
	warmFolds    []mirrorFold // the refolds of the traced rounds

	// counters over the measured segments
	totalSteps                  float64
	warm0, cold0, folded0       uint64
	warmEnd, coldEnd, foldedEnd uint64
	lagMs                       []float64 // traced segments only
}

func (w *epochWorkload) setup(rc *runCtx) error {
	w.sz = epochFull
	if rc.smoke {
		w.sz = epochSmoke
	}
	sz := w.sz
	var err error
	if w.g, err = diffgossip.NewPANetwork(sz.n, 2, subSeed(rc.seed, "epoch-graph", 0)); err != nil {
		return err
	}
	w.p = diffgossip.Params{Epsilon: 1e-4, Workers: -1, Seed: subSeed(rc.seed, "epoch-engine", 0)}
	w.svc, err = diffgossip.NewService(diffgossip.ServiceConfig{
		Graph: w.g, Params: w.p, Shards: sz.shards, FoldWorkers: -1,
	})
	if err != nil {
		return err
	}
	w.pools = genPools(rc.seed, sz.n, sz.raters)
	if rc.tr != nil {
		w.mirror = trust.NewMatrix(sz.n)
	}
	for _, r := range genSeedRatings(rc.seed, w.pools) {
		if _, err := w.svc.Submit(r.Rater, r.Subject, r.Value); err != nil {
			return err
		}
		if w.mirror != nil {
			w.mirror.Set(r.Rater, r.Subject, r.Value)
		}
	}
	view, ran, err := w.svc.RunEpoch()
	if err != nil {
		return err
	}
	if !ran || !view.Converged() {
		return fmt.Errorf("cold fixture epoch ran=%v converged=%v", ran, view.Converged())
	}
	return nil
}

func (w *epochWorkload) segment(rc *runCtx, idx int) ([]slice, error) {
	var slices []slice
	sz := w.sz
	if idx == 1 {
		w.warm0, w.cold0, w.folded0 = w.svc.WarmStarts(), w.svc.ColdStarts(), w.svc.FoldedSubjects()
		w.totalSteps = 0
	}
	traced := rc.tr.active()
	rounds := make([][]rating, sz.rounds)
	for r := range rounds {
		rounds[r] = genUpdates(rc.seed, "epoch-round", r%sz.positions, idx*sz.rounds+r, w.pools, sz.shards, sz.dirty)
	}
	for r, updates := range rounds {
		t0 := time.Now()
		var firstSeq uint64
		for k, u := range updates {
			seq, err := w.svc.Submit(u.Rater, u.Subject, u.Value)
			if err != nil {
				return nil, err
			}
			if k == 0 {
				firstSeq = seq
			}
		}
		t1 := time.Now()
		view, ran, err := w.svc.RunEpoch()
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		_, rv, err := w.svc.Reputation(updates[0].Subject)
		if err != nil {
			return nil, err
		}
		t3 := time.Now()
		slices = append(slices, slice{item: r % sz.positions, units: float64(len(updates)), elapsed: t3.Sub(t0), opMs: t2.Sub(t1).Seconds() * 1e3})
		rc.attempted += len(updates) + 2
		if !ran || !view.Converged() {
			rc.fail("epoch ran=%v converged=%v", ran, view.Converged())
		}
		if got := rv.SubjectSeq(updates[0].Subject); got < firstSeq {
			rc.fail("lag probe: subject %d served at seq %d, submit was %d", updates[0].Subject, got, firstSeq)
		}
		if idx >= 1 {
			w.totalSteps += float64(view.TotalSteps())
		}
		if traced {
			round := rc.tr.record("epoch.round", idx, rc.segSpan, t0, t3)
			rc.tr.record("epoch.submit", idx, round, t0, t1)
			rc.tr.record("epoch.run_epoch", idx, round, t1, t2)
			rc.tr.record("epoch.read", idx, round, t2, t3)
			w.lagMs = append(w.lagMs, t3.Sub(t0).Seconds()*1e3)
		}
		// The ladder's refold follows every round of a traced run, outside
		// the slice's clock, so the mirror's campaign states are one round
		// old at every refold, like the service's.
		if w.mirror != nil {
			for _, u := range updates {
				if err := w.mirror.Set(u.Rater, u.Subject, u.Value); err != nil {
					return nil, err
				}
			}
			t4 := time.Now()
			f, err := w.foldMirror(rc)
			if err != nil {
				return nil, err
			}
			if traced {
				rc.tr.record("ladder.refold", idx, rc.segSpan, t4, time.Now())
				f.epochMs = t2.Sub(t1).Seconds() * 1e3
				w.warmFolds = append(w.warmFolds, f)
			}
		}
	}
	w.warmEnd, w.coldEnd, w.foldedEnd = w.svc.WarmStarts(), w.svc.ColdStarts(), w.svc.FoldedSubjects()
	return slices, nil
}

// check holds every served reputation to the exact fixed point of the
// service's own folded trust state (the view is a TrustReader).
func (w *epochWorkload) check(rc *runCtx) error {
	view := w.svc.View()
	for j := 0; j < w.sz.n; j++ {
		got, err := view.Reputation(j)
		if err != nil {
			return err
		}
		rc.within(got, diffgossip.GlobalReference(view, j), epsTol, "served reputation of subject %d", j)
	}
	return nil
}

func (w *epochWorkload) counts() map[string]float64 {
	return map[string]float64{
		"service.epoch.total_steps":     w.totalSteps,
		"service.epoch.warm_starts":     float64(w.warmEnd - w.warm0),
		"service.epoch.cold_starts":     float64(w.coldEnd - w.cold0),
		"service.epoch.folded_subjects": float64(w.foldedEnd - w.folded0),
	}
}

// mirrorFold is one refold of the mirror: its wall time, and the time spent
// inside trust.ColumnsOf and inside core.GlobalSubjects summed over the
// shards (busy time: with two workers it is about twice the wall time).
type mirrorFold struct {
	wallMs, freezeBusyMs, campaignBusyMs float64
	epochMs                              float64 // the RunEpoch span this refold replays
}

// foldMirror does to the mirror what RunEpoch does to every dirty shard —
// and every round dirties every shard: freeze the shard's columns, then run
// its campaigns warm from the previous refold's states, shard after shard on
// GOMAXPROCS workers, exactly foldShard's two calls in foldShard's order. The
// first refold has no states and is the cold rung.
func (w *epochWorkload) foldMirror(rc *runCtx) (mirrorFold, error) {
	sz := w.sz
	p := core.Params{Epsilon: 1e-4, Workers: -1, SparseRaterFrac: 0.25, KeepStates: true,
		Seed: subSeed(rc.seed, "ladder-epoch", w.mirrorFolds)}
	prev := w.mirrorStates
	states := make([][]*gossip.CampaignState, sz.shards)
	freezeNs := make([]int64, sz.shards)
	campaignNs := make([]int64, sz.shards)
	converged := make([]bool, sz.shards)
	errs := make([]error, sz.shards)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for k := 0; k < runtime.GOMAXPROCS(0); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := int(next.Add(1)) - 1; s < sz.shards; s = int(next.Add(1)) - 1 {
				subjects := store.ShardSubjects(sz.n, s, sz.shards)
				a := time.Now()
				cols, err := trust.ColumnsOf(w.mirror, subjects)
				if err != nil {
					errs[s] = err
					continue
				}
				b := time.Now()
				ps := p
				if prev != nil {
					warm := prev[s]
					ps.Warm = func(j int) *gossip.CampaignState { return warm[store.SlotOf(j, sz.shards)] }
				}
				res, err := core.GlobalSubjects(w.g, cols, subjects, ps)
				if err != nil {
					errs[s] = err
					continue
				}
				freezeNs[s], campaignNs[s] = b.Sub(a).Nanoseconds(), time.Since(b).Nanoseconds()
				states[s], converged[s] = res.States, res.Converged
			}
		}()
	}
	wg.Wait()
	f := mirrorFold{wallMs: time.Since(t0).Seconds() * 1e3}
	if err := errors.Join(errs...); err != nil {
		return f, err
	}
	for s := range states {
		f.freezeBusyMs += float64(freezeNs[s]) / 1e6
		f.campaignBusyMs += float64(campaignNs[s]) / 1e6
		if !converged[s] {
			rc.fail("ladder refold %d: campaigns of shard %d did not converge", w.mirrorFolds, s)
		}
	}
	if prev == nil {
		w.coldFold = f
	}
	w.mirrorStates = states
	w.mirrorFolds++
	return f, nil
}

// layers splits the epoch between its two stages. A refold does strictly
// less than the RunEpoch it replays (no ledger scan, no fold into master, no
// snapshot assembly) and ran a tenth of a second after it, so the pair saw
// the same machine: the refold's share of the epoch is the median over the
// traced rounds of refold wall time / RunEpoch span, and the two rungs are
// that share of the quietest RunEpoch, divided between freeze and campaigns
// in proportion to the busy time inside each call over all traced rounds.
// What the pairs leave over is a few per cent either way of a remainder that
// is itself about one per cent; a share more than ladderSlack above the whole
// epoch means the run could not resolve the split.
func (w *epochWorkload) layers(rc *runCtx, m map[string]float64) error {
	m["service.submit.ns"] = median(rc.tr.durationsMs("epoch.submit")) * 1e6 / float64(w.sz.dirty)
	runEpochMs := minOf(rc.tr.durationsMs("epoch.run_epoch"))
	m["service.run_epoch.ms"] = runEpochMs
	m["visible_lag_p50_ms"] = median(w.lagMs)

	var shares []float64
	var freezeBusy, campaignBusy float64
	for _, f := range w.warmFolds {
		shares = append(shares, f.wallMs/f.epochMs)
		freezeBusy += f.freezeBusyMs
		campaignBusy += f.campaignBusyMs
	}
	refoldShare := median(shares)
	freezeShare := freezeBusy / (freezeBusy + campaignBusy)
	m["trust.columns_of.ms_per_epoch"] = runEpochMs * refoldShare * freezeShare
	m["core.global_subjects_warm.ms_per_epoch"] = runEpochMs * refoldShare * (1 - freezeShare)
	cold := w.coldFold
	m["core.global_subjects_cold.ms_per_epoch"] = cold.wallMs * cold.campaignBusyMs / (cold.freezeBusyMs + cold.campaignBusyMs)
	m["service.epoch.unexplained_share"] = 1 - refoldShare
	fmt.Fprintf(rc.out, "ladder epoch: refold / run_epoch over %d paired rounds: median %.4f quartiles %.4f %.4f; busy per epoch: freeze %.2f ms, campaigns %.2f ms\n",
		len(shares), refoldShare, quantile(shares, 0.25), quantile(shares, 0.75),
		freezeBusy/float64(len(shares)), campaignBusy/float64(len(shares)))
	if refoldShare > 1+ladderSlack {
		rc.unresolve("epoch-dirty5 ladder: columns_of + warm campaigns are %.3f of run_epoch", refoldShare)
	}

	// Cross-check from the program's own trace ring: campaign time per
	// epoch, the cold fixture epoch excluded.
	var campaignMs float64
	epochs := 0
	for _, et := range w.svc.Trace() {
		if et.Epoch == 1 {
			continue
		}
		epochs++
		for _, st := range et.Shards {
			campaignMs += float64(st.DurationNs) / 1e6
		}
	}
	if epochs > 0 {
		m["service.trace.campaign_ms_per_epoch"] = campaignMs / float64(epochs)
	}
	return nil
}

func (w *epochWorkload) close() {
	if w.svc != nil {
		w.svc.Close()
	}
}
