// Package core implements the paper's primary contribution: Differential
// Gossip Trust, the four reputation-aggregation algorithm variants of §4.1.2
// built on the differential push-sum engine.
//
//   - Algorithm 1 (GlobalSingle): global reputation of one subject node —
//     every rater starts with gossip weight 1, so all nodes converge to the
//     mean direct-interaction trust of the subject over its raters.
//   - Algorithm 2 (GCLRSingle): globally calibrated local reputation of one
//     subject — neighbours' direct feedback is folded in with confidence
//     weights w = a^(b·t) (eq. 2), the gossip computes the network-wide sum
//     and rater count (weight 1 at a single root), and each node combines
//     them by eq. (6).
//   - Variant 3 (GlobalAll): Algorithm 1 for every subject, one independent
//     scalar campaign per subject on its own split randomness stream
//     (GlobalSubjects over all subjects).
//   - Variant 4 (GCLRAll): Algorithm 2 for all subjects simultaneously.
//
// All four share Params and are deterministic given Params.Seed.
package core

import (
	"fmt"

	"diffgossip/internal/gossip"
	"diffgossip/internal/graph"
	"diffgossip/internal/trust"
)

// Params configures a Differential Gossip Trust run.
type Params struct {
	// Epsilon is the gossip error tolerance ξ.
	Epsilon float64
	// Weights are the confidence-weight parameters (a_i, b_ij), used by the
	// GCLR variants. Zero value is replaced by trust.DefaultWeightParams.
	Weights trust.WeightParams
	// Protocol selects the push rule; default differential push.
	Protocol gossip.Protocol
	// FixedK is the fan-out for gossip.FixedPush.
	FixedK int
	// LossProb injects churn/packet loss into every push.
	LossProb float64
	// MaxSteps caps gossip steps (0 = engine default).
	MaxSteps int
	// Seed drives all randomness.
	Seed uint64
	// Root is the node carrying the unit gossip weight in the sum-mode
	// variants (Algorithm 2's "g_1 = 1"). Defaults to node 0.
	Root int
	// Workers is the parallelism: GlobalSubjects/GlobalAll run that many
	// per-subject campaigns at once, the VectorEngine of the GCLR-all variant
	// splits each step's accumulation across that many goroutines. Results
	// are bit-identical for any value. 0/1 sequential, negative = GOMAXPROCS.
	Workers int
	// SparseRaterFrac enables restricted-overlay campaigns in
	// GlobalSubjects: a subject whose rater count k is at most
	// SparseRaterFrac·N runs its push-sum over a synthetic k-node overlay of
	// its raters instead of the full graph, so campaign cost scales with the
	// raters, not N. The fixed point is unchanged (the mass-weighted mean is
	// topology-independent); the per-node micro-estimates differ within the
	// same ξ tolerance. 0 or negative keeps every campaign on the full graph
	// — the default, which the paper-experiment paths rely on for
	// bit-stability.
	SparseRaterFrac float64
	// Warm, when set, supplies the previous epoch's converged campaign
	// state for a subject (nil = none). GlobalSubjects seeds matching
	// campaigns from it — injecting the trust-column delta as mass
	// corrections — and falls back to a cold start when the state does not
	// fit (rater removed, campaign mode changed, wrong shape). Warm-started
	// results stay within the configured ξ of the cold fixed point but are
	// not bit-identical to a cold run, so replicas that pin bit-equality
	// must not set it.
	Warm func(subject int) *gossip.CampaignState
	// KeepStates records each computed campaign's final state in
	// SubjectsResult.States, for the caller to persist and feed back as
	// Warm next epoch.
	KeepStates bool
}

func (p Params) withDefaults() Params {
	if p.Weights == (trust.WeightParams{}) {
		p.Weights = trust.DefaultWeightParams
	}
	if p.Epsilon == 0 {
		p.Epsilon = 1e-4
	}
	return p
}

func (p Params) gossipConfig(g *graph.Graph) gossip.Config {
	return gossip.Config{
		Graph:    g,
		Protocol: p.Protocol,
		FixedK:   p.FixedK,
		Epsilon:  p.Epsilon,
		LossProb: p.LossProb,
		MaxSteps: p.MaxSteps,
		Seed:     p.Seed,
		Workers:  p.Workers,
	}
}

// Validate reports whether every aggregation accepts p on g: a non-empty
// graph, valid weights, a root inside the graph and a gossip configuration
// the engines accept. Zero Epsilon and Weights take their defaults first, as
// every aggregation does.
func (p Params) Validate(g *graph.Graph) error {
	p = p.withDefaults()
	if g == nil || g.N() == 0 {
		return fmt.Errorf("core: empty graph")
	}
	if err := p.Weights.Validate(); err != nil {
		return err
	}
	if p.Root < 0 || p.Root >= g.N() {
		return fmt.Errorf("core: root %d out of range [0,%d)", p.Root, g.N())
	}
	cfg := p.gossipConfig(g)
	return cfg.Validate()
}

func (p Params) validate(g *graph.Graph, t *trust.Matrix) error {
	if err := p.Validate(g); err != nil {
		return err
	}
	if t == nil || t.N() != g.N() {
		return fmt.Errorf("core: trust matrix size %d does not match graph size %d", sizeOf(t), g.N())
	}
	return nil
}

func sizeOf(t *trust.Matrix) int {
	if t == nil {
		return -1
	}
	return t.N()
}

// Estimate is one node's view of one subject after aggregation.
type Estimate struct {
	// Reputation is the aggregated trust value.
	Reputation float64
	// RaterCount is the estimated number of direct raters (GCLR variants
	// only; 0 otherwise).
	RaterCount float64
}

// SingleResult is the outcome of a single-subject aggregation.
type SingleResult struct {
	// Subject is the node whose reputation was aggregated.
	Subject int
	// PerNode[i] is node i's estimate of the subject's reputation.
	PerNode []float64
	// Counts[i] is node i's rater-count estimate (Algorithm 2 only).
	Counts []float64
	// Steps, Converged and Messages report the underlying gossip run.
	Steps     int
	Converged bool
	Messages  gossip.Messages
}

// SubjectsResult is the outcome of a subject-subset aggregation
// (GlobalSubjects): per-subject result columns plus aggregate run metadata.
type SubjectsResult struct {
	// Subjects echoes the requested subjects, in request order.
	Subjects []int
	// Columns[s][i] is node i's estimate for Subjects[s] (all zeros for a
	// subject nobody rated). Nil from GlobalSubjectsAtRoot.
	Columns [][]float64
	// AtRoot[s] is node Params.Root's estimate for Subjects[s] — what
	// Columns[s][Params.Root] holds when the columns are built.
	AtRoot []float64
	// Computed counts the campaigns that actually ran — subjects with at
	// least one rater; the rest cost no gossip. The service's fold counter
	// sums this across epochs to prove dirty-shard incrementality.
	Computed int
	// Steps is the slowest campaign's step count; Converged is true only if
	// every campaign converged within its budget.
	Steps     int
	Converged bool
	// TotalSteps sums every campaign's step count — the epoch-compute cost
	// meter the warm-start benchmarks compare (Steps is the max, not the
	// sum). StepsBySubject[s] is campaign s's own count, −1 for subjects
	// that ran no campaign.
	TotalSteps     int
	StepsBySubject []int
	// WarmStarts and ColdStarts split Computed by how each campaign was
	// seeded: from a previous epoch's recorded state (warm) or from the
	// trust column alone (cold).
	WarmStarts, ColdStarts int
	// States[s] is campaign s's final recorded state when Params.KeepStates
	// is set (nil for subjects that ran no campaign or whose state is not
	// worth keeping).
	States []*gossip.CampaignState
	// Messages sums the campaigns' tallies plus one shared degree exchange.
	Messages gossip.Messages
}

// AllResult is the outcome of a simultaneous all-subjects aggregation.
type AllResult struct {
	// Reputation[i][j] is node i's estimate for subject j.
	Reputation [][]float64
	// Counts[i][j] is node i's rater-count estimate for subject j (GCLR
	// variant only).
	Counts    [][]float64
	Steps     int
	Converged bool
	Messages  gossip.Messages
}
