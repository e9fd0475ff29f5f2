package scenario

import (
	"fmt"
	"math"

	"diffgossip/internal/core"
	"diffgossip/internal/gossip"
	"diffgossip/internal/graph"
	"diffgossip/internal/rng"
	"diffgossip/internal/service"
)

// serviceTarget drives the reputation service's epoch loop under ingest-side
// churn: every alive rater keeps submitting feedback about alive subjects,
// an epoch folds the backlog every EpochEvery rounds, and crash/leave/rejoin
// events gate who participates in the stream. The overlay itself is fixed —
// the service owns its graph for the life of the process — so join and
// loss/partition events are rejected; scripts for this target model the
// churn the service actually sees in production, which is clients appearing
// and disappearing, not gossip substrate surgery.
//
// The invariant checked each round is per-shard snapshot consistency: every
// published shard's global reputations must track the exact fixed point
// (core.GlobalRef on that shard's own frozen columns) within a loose
// gossip-error envelope, and the folded sequence number must never move
// backwards.
type serviceTarget struct {
	svc    *service.Service
	alive  []bool
	values *rng.Source

	epochEvery int
	round      int
	bound      float64 // reference-deviation envelope

	lastChecked uint64 // epoch already verified by Check
	lastSeq     uint64
	epochErr    error
}

func newServiceTarget(cfg Config, g *graph.Graph, seed uint64, values *rng.Source) (*serviceTarget, error) {
	svc, err := service.New(service.Config{
		Graph: g,
		Params: core.Params{
			Epsilon:  cfg.Epsilon,
			LossProb: cfg.LossProb,
			Seed:     seed,
			Workers:  cfg.Workers,
		},
	})
	if err != nil {
		return nil, err
	}
	alive := make([]bool, g.N())
	for i := range alive {
		alive[i] = true
	}
	return &serviceTarget{
		svc:        svc,
		alive:      alive,
		values:     values,
		epochEvery: cfg.EpochEvery,
		// Each per-subject campaign announces convergence once per-node
		// deltas settle within ξ; 50·ξ is a loose envelope that still
		// catches wiring bugs (a dropped batch or torn shard snapshot is
		// orders of magnitude off).
		bound: 50 * cfg.Epsilon,
	}, nil
}

// Step runs one ingest round — every alive rater submits one rating of a
// random alive subject with probability 0.3 — and folds an epoch on the
// configured cadence. The service has no convergence notion, so the
// scenario always runs its full timeline.
func (t *serviceTarget) Step() bool {
	var subjects []int
	for j, a := range t.alive {
		if a {
			subjects = append(subjects, j)
		}
	}
	if len(subjects) > 0 {
		for i, a := range t.alive {
			if !a || !t.values.Bool(0.3) {
				continue
			}
			j := subjects[t.values.Intn(len(subjects))]
			if j == i {
				continue
			}
			if _, err := t.svc.Submit(i, j, t.values.Float64()); err != nil {
				// Surface the error via Check but keep the round counter
				// and epoch cadence advancing — a failing ingest path must
				// not silently freeze the rest of the timeline.
				t.epochErr = err
				break
			}
		}
	}
	t.round++
	if t.round%t.epochEvery == 0 {
		if _, _, err := t.svc.RunEpoch(); err != nil {
			t.epochErr = err
		}
	}
	return true
}

func (t *serviceTarget) checkNode(i int) error {
	if i < 0 || i >= len(t.alive) {
		return fmt.Errorf("scenario: node %d out of range [0,%d)", i, len(t.alive))
	}
	return nil
}

func (t *serviceTarget) Join(int) error {
	return fmt.Errorf("scenario: the service target has a fixed overlay; use rejoin-style churn")
}

func (t *serviceTarget) Crash(i int) error {
	if err := t.checkNode(i); err != nil {
		return err
	}
	t.alive[i] = false
	return nil
}

func (t *serviceTarget) Leave(i int) error { return t.Crash(i) }

func (t *serviceTarget) Rejoin(i int) error {
	if err := t.checkNode(i); err != nil {
		return err
	}
	t.alive[i] = true
	return nil
}

func (t *serviceTarget) SetLoss(float64) error {
	return fmt.Errorf("scenario: the service target fixes epoch loss at construction")
}

func (t *serviceTarget) SetLinkFault(func(from, to int) bool) error {
	return fmt.Errorf("scenario: the service target does not model link faults")
}

// Collude has every group member flood lie ratings about every other member
// into the feedback stream — the service-level shape of the paper's
// group-inflation attack.
func (t *serviceTarget) Collude(group []int, lie float64) error {
	if lie < 0 || lie > 1 {
		return fmt.Errorf("scenario: collusion lie %v out of [0,1]", lie)
	}
	for _, i := range group {
		for _, j := range group {
			if i == j {
				continue
			}
			if _, err := t.svc.Submit(i, j, lie); err != nil {
				return err
			}
		}
	}
	return nil
}

func (t *serviceTarget) RefreshTopology() {}

// Check verifies each freshly published epoch once: every shard's globals
// must track core.GlobalRef on its own frozen columns within the envelope
// (the view is snapshot-consistent per shard, so the reference evaluates
// against exactly the trust state each value was computed from), and the
// folded sequence number must be monotone. The mass tolerance does not
// apply here — the epoch engine's conservation is the engine targets'
// concern — so tol is unused beyond being part of the interface.
func (t *serviceTarget) Check(float64) (float64, []string) {
	var violations []string
	if t.epochErr != nil {
		violations = append(violations, fmt.Sprintf("epoch error: %v", t.epochErr))
		t.epochErr = nil
	}
	v := t.svc.View()
	if v.Seq() < t.lastSeq {
		violations = append(violations, fmt.Sprintf("folded seq went backwards: %d after %d", v.Seq(), t.lastSeq))
	}
	t.lastSeq = v.Seq()
	if v.Epoch() == 0 || v.Epoch() == t.lastChecked {
		return 0, violations
	}
	t.lastChecked = v.Epoch()
	worst := t.viewErr(v)
	if worst > t.bound {
		violations = append(violations, fmt.Sprintf("epoch %d deviates %.3e from reference (bound %.3e)", v.Epoch(), worst, t.bound))
	}
	return worst, violations
}

// viewErr is the worst |Global[j] − GlobalRef(j)| over the view's own
// frozen per-shard columns.
func (t *serviceTarget) viewErr(v *service.View) float64 { return viewRefErr(v) }

// viewRefErr is the worst |Global[j] − GlobalRef(j)| over a view's own
// frozen per-shard columns — the snapshot-consistency check shared by the
// service and cluster targets.
func viewRefErr(v *service.View) float64 {
	worst := 0.0
	for j := 0; j < v.N(); j++ {
		got, err := v.Reputation(j)
		if err != nil {
			return math.Inf(1)
		}
		if d := math.Abs(got - core.GlobalRef(v, j)); d > worst {
			worst = d
		}
	}
	return worst
}

func (t *serviceTarget) Reputations() []float64 {
	v := t.svc.View()
	out := make([]float64, v.N())
	for j := range out {
		out[j], _ = v.Reputation(j)
	}
	return out
}

func (t *serviceTarget) ReferenceErr([]bool) float64 {
	return t.viewErr(t.svc.View())
}

func (t *serviceTarget) Messages() gossip.Messages { return gossip.Messages{} }

func (t *serviceTarget) Close() error { return t.svc.Close() }

// ensure interface compliance
var (
	_ target = (*scalarTarget)(nil)
	_ target = (*serviceTarget)(nil)
)
