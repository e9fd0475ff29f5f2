package scenario

import (
	"fmt"
	"math"

	"diffgossip/internal/gossip"
	"diffgossip/internal/graph"
	"diffgossip/internal/rng"
)

// TargetKind selects which engine a scenario drives.
type TargetKind int

const (
	// TargetScalar drives the scalar push-sum Engine averaging one value
	// per node (the Fig. 3/4 workload class under churn).
	TargetScalar TargetKind = iota
	// TargetService drives the reputation service's epoch loop under
	// ingest-side churn (raters joining and departing the feedback stream).
	TargetService
	// TargetCluster drives a federated dgserve cluster — R replicas
	// replicating their ledgers by anti-entropy over the in-memory hub —
	// under replica crash/rejoin and client churn. Crash/rejoin of node
	// i < Replicas takes replica i down and back; higher ids are light
	// clients that enter and leave the feedback stream.
	TargetCluster
)

// String implements fmt.Stringer.
func (k TargetKind) String() string {
	switch k {
	case TargetScalar:
		return "scalar"
	case TargetService:
		return "service"
	case TargetCluster:
		return "cluster"
	default:
		return fmt.Sprintf("target(%d)", int(k))
	}
}

// ParseTargetKind maps the CLI names back to kinds.
func ParseTargetKind(s string) (TargetKind, error) {
	switch s {
	case "", "scalar":
		return TargetScalar, nil
	case "service":
		return TargetService, nil
	case "cluster":
		return TargetCluster, nil
	default:
		return 0, fmt.Errorf("scenario: unknown target %q (want scalar|service|cluster)", s)
	}
}

// target is the runner's view of the system under test. The scalar target
// maps events onto the engine's churn hooks, the service target onto the
// feedback ingest stream, and the cluster target onto its replicas and
// clients.
type target interface {
	// Step advances one round; reports whether the protocol is still
	// running.
	Step() bool
	// Join admits node id (already wired into the runner's graph).
	Join(id int) error
	Crash(i int) error
	Leave(i int) error
	// Rejoin returns departed node i with fresh (whitewashed) state.
	Rejoin(i int) error
	SetLoss(p float64) error
	SetLinkFault(f func(from, to int) bool) error
	// Collude makes every group member swap its state for the lie.
	Collude(group []int, lie float64) error
	// RefreshTopology re-derives degree-dependent protocol state after the
	// overlay changed.
	RefreshTopology()
	// Check verifies the target's invariants (mass conservation for the
	// scalar engine, snapshot-vs-reference consistency for the service) and
	// returns the worst relative error seen plus any violations of tol.
	Check(tol float64) (worst float64, violations []string)
	// Reputations is the current per-identity reputation vector.
	Reputations() []float64
	// ReferenceErr is the worst absolute deviation of an alive node's
	// estimate from the exact reference value implied by current state.
	ReferenceErr(alive []bool) float64
	Messages() gossip.Messages
	Close() error
}

func newTarget(cfg Config, g *graph.Graph, gossipSeed uint64, values *rng.Source) (target, error) {
	switch cfg.Target {
	case TargetScalar:
		return newScalarTarget(cfg, g, gossipSeed, values)
	case TargetService:
		return newServiceTarget(cfg, g, gossipSeed, values)
	case TargetCluster:
		return newClusterTarget(cfg, g, gossipSeed, values)
	default:
		return nil, fmt.Errorf("scenario: unknown target kind %d", int(cfg.Target))
	}
}

// relErr is the relative mass-conservation error |got−want| / max(1, |want|).
func relErr(got, want float64) float64 {
	d := math.Abs(got - want)
	if w := math.Abs(want); w > 1 {
		return d / w
	}
	return d
}

// ---------------------------------------------------------------------------
// Scalar target: one value per node, unit weights — the dynamic-membership
// network average. Joins and whitewashes draw fresh values.
// ---------------------------------------------------------------------------

type scalarTarget struct {
	e      *gossip.Engine
	values *rng.Source
}

func newScalarTarget(cfg Config, g *graph.Graph, seed uint64, values *rng.Source) (*scalarTarget, error) {
	n := g.N()
	y0 := make([]float64, n)
	g0 := make([]float64, n)
	for i := range y0 {
		y0[i] = values.Float64()
		g0[i] = 1
	}
	e, err := gossip.NewEngine(gossip.Config{
		Graph:    g,
		Epsilon:  cfg.Epsilon,
		LossProb: cfg.LossProb,
		Seed:     seed,
	}, y0, g0)
	if err != nil {
		return nil, err
	}
	return &scalarTarget{e: e, values: values}, nil
}

func (t *scalarTarget) Step() bool { return t.e.Step() }

func (t *scalarTarget) Join(id int) error {
	got, err := t.e.AddNode(t.values.Float64(), 1)
	if err != nil {
		return err
	}
	if got != id {
		return fmt.Errorf("scenario: engine assigned node %d, graph assigned %d", got, id)
	}
	return nil
}

func (t *scalarTarget) Crash(i int) error { return t.e.Crash(i) }
func (t *scalarTarget) Leave(i int) error { return t.e.Leave(i) }

func (t *scalarTarget) Rejoin(i int) error {
	return t.e.Rejoin(i, t.values.Float64(), 1)
}

func (t *scalarTarget) SetLoss(p float64) error { return t.e.SetLossProb(p) }

func (t *scalarTarget) SetLinkFault(f func(from, to int) bool) error {
	t.e.SetLinkFault(f)
	return nil
}

func (t *scalarTarget) Collude(group []int, lie float64) error {
	for _, i := range group {
		p := t.e.Held(i)
		if err := t.e.Override(i, lie*p.G, p.G); err != nil {
			return err
		}
	}
	return nil
}

func (t *scalarTarget) RefreshTopology() { t.e.RefreshFanouts() }

func (t *scalarTarget) Check(tol float64) (float64, []string) {
	base, inj, lost := t.e.MassLedger()
	var violations []string
	worst := 0.0
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"massY", t.e.MassY(), base.Y + inj.Y - lost.Y},
		{"massG", t.e.MassG(), base.G + inj.G - lost.G},
	} {
		e := relErr(c.got, c.want)
		if e > worst {
			worst = e
		}
		if e > tol {
			violations = append(violations, fmt.Sprintf("%s drift %.3e (got %v want %v)", c.name, e, c.got, c.want))
		}
	}
	return worst, violations
}

func (t *scalarTarget) Reputations() []float64 { return t.e.Estimates() }

func (t *scalarTarget) ReferenceErr(alive []bool) float64 {
	mg := t.e.MassG()
	if mg == 0 {
		return 0
	}
	ref := t.e.MassY() / mg
	worst := 0.0
	for i, a := range alive {
		if !a {
			continue
		}
		if d := math.Abs(t.e.Estimate(i) - ref); d > worst {
			worst = d
		}
	}
	return worst
}

func (t *scalarTarget) Messages() gossip.Messages { return t.e.Messages() }
func (t *scalarTarget) Close() error              { return nil }
