// Package scenario is the deterministic churn & fault engine: it drives a
// gossip run — the scalar engine, the service epoch loop, or a replicating
// cluster of services — through a scripted or randomized timeline of membership and network
// events, checking protocol invariants after every round.
//
// The event vocabulary covers the dynamics the paper's static-overlay
// evaluation leaves out (its §5.3 robustness figures inject packet loss and
// collusion on a fixed membership):
//
//	join       a new peer arrives and wires into the overlay by
//	           preferential attachment (graph.AttachPreferential), so the
//	           power-law shape the paper's theorems need is preserved
//	leave      a peer departs gracefully, handing its gossip mass to an
//	           alive neighbour first
//	crash      a peer dies mid-round; the push-sum mass it held is lost
//	rejoin     a departed peer returns with a fresh identity and fresh
//	           state — the paper's whitewashing adversary
//	loss       the global per-push loss probability changes (Fig. 4's knob,
//	           but switchable mid-run)
//	partition  the alive peers split into two cells; cross-cell pushes fail
//	           until the partition heals
//	collude    a group of alive peers swaps its held state for an inflated
//	           lie (Figs. 5–6's adversary, formed mid-run under churn)
//
// Determinism is the load-bearing property: every random choice — event
// placement, node selection, join wiring, engine gossip — flows from one
// seed through rng.Source.Split, so a Result (event log, final reputations,
// mass ledgers) is a pure function of its Config and replays bit-identically.
//
// After every round the runner checks the target's invariants. On the scalar
// engine that is mass conservation against its churn ledgers (the paper's
// Proposition A.1): total mass must equal base + injected − lost
// (crashes destroy exactly the mass the dead node held; lost packets are
// re-absorbed by their senders) up to floating-point accumulation error.
// Violations are collected, not fatal, so a broken engine produces a
// diagnosable Result.
package scenario

import (
	"cmp"
	"fmt"
	"slices"

	"diffgossip/internal/gossip"
	"diffgossip/internal/graph"
	"diffgossip/internal/rng"
)

// Kind enumerates scenario event types.
type Kind int

const (
	// KindJoin admits a new node via preferential attachment.
	KindJoin Kind = iota
	// KindCrash kills a node abruptly; its held mass is lost.
	KindCrash
	// KindLeave removes a node gracefully; its mass is handed off.
	KindLeave
	// KindRejoin returns a departed node with fresh (whitewashed) state.
	KindRejoin
	// KindLoss sets the global per-push loss probability to Value.
	KindLoss
	// KindPartition splits the alive nodes into two cells for Span rounds
	// (Frac of them in the minority cell); cross-cell pushes fail.
	KindPartition
	// KindHeal removes an active partition.
	KindHeal
	// KindCollude forms a collusion group of Frac of the alive nodes, each
	// swapping its held state for the lie Value.
	KindCollude
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindJoin:
		return "join"
	case KindCrash:
		return "crash"
	case KindLeave:
		return "leave"
	case KindRejoin:
		return "rejoin"
	case KindLoss:
		return "loss"
	case KindPartition:
		return "partition"
	case KindHeal:
		return "heal"
	case KindCollude:
		return "collude"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// PickNode lets the runner choose an eligible node at execution time (a
// deterministic draw over the then-current membership), which keeps
// randomized scripts valid as membership evolves.
const PickNode = -1

// Event is one timeline entry.
type Event struct {
	// Round is the 0-based round before which the event fires.
	Round int
	// Kind selects the event type.
	Kind Kind
	// Node is the target node for crash/leave/rejoin, or PickNode to let
	// the runner pick an eligible node deterministically.
	Node int
	// Value is the loss probability (KindLoss) or the collusion lie
	// (KindCollude).
	Value float64
	// Span is the partition duration in rounds (KindPartition); 0 lasts
	// until an explicit KindHeal.
	Span int
	// Frac is the fraction of alive nodes in the minority partition cell or
	// the collusion group.
	Frac float64
}

// Config parameterises a scenario run.
type Config struct {
	// Target selects which engine the scenario drives.
	Target TargetKind
	// N and M size the initial preferential-attachment overlay (M is the
	// arrival edge count; default 2, the paper's minimum).
	N, M int
	// Rounds is the timeline length; the run may stop earlier once the
	// protocol converges and no events remain. Default 200.
	Rounds int
	// Epsilon is the gossip convergence bound ξ (default 1e-3).
	Epsilon float64
	// LossProb is the initial per-push loss probability.
	LossProb float64
	// Seed drives everything.
	Seed uint64
	// Script is an explicit event list; it is merged with the events Plan
	// generates and sorted by round (stably, so same-round order is the
	// script's, then the plan's).
	Script []Event
	// Plan, when non-zero, generates a randomized timeline (see Plan).
	Plan Plan
	// MassTol is the relative mass-conservation tolerance checked every
	// round (default 1e-8; push-sum redistribution accrues rounding error
	// linear in rounds × N).
	MassTol float64
	// EpochEvery is the service and cluster targets' epoch cadence in
	// rounds (default 8).
	EpochEvery int
	// Replicas is the cluster target's replica count (default 3): nodes
	// 0..Replicas-1 of the timeline are dgserve replicas, the rest are
	// feedback clients homed on replica id mod Replicas.
	Replicas int
	// Workers parallelises the service and cluster targets' per-subject
	// campaigns (core.Params.Workers; results are identical).
	Workers int
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.M == 0 {
		out.M = 2
	}
	if out.Rounds == 0 {
		out.Rounds = 200
	}
	if out.Epsilon == 0 {
		out.Epsilon = 1e-3
	}
	if out.MassTol == 0 {
		out.MassTol = 1e-8
	}
	if out.EpochEvery == 0 {
		out.EpochEvery = 8
	}
	if out.Replicas == 0 {
		out.Replicas = 3
	}
	return out
}

func (c *Config) validate() error {
	if c.N < 3 {
		return fmt.Errorf("scenario: N=%d too small", c.N)
	}
	if c.M < 1 || c.N <= c.M {
		return fmt.Errorf("scenario: need 1 <= M < N, got M=%d N=%d", c.M, c.N)
	}
	if c.Rounds < 1 {
		return fmt.Errorf("scenario: rounds %d < 1", c.Rounds)
	}
	if c.LossProb < 0 || c.LossProb >= 1 {
		return fmt.Errorf("scenario: loss probability %v out of [0,1)", c.LossProb)
	}
	if c.Epsilon <= 0 {
		return fmt.Errorf("scenario: epsilon %v must be > 0", c.Epsilon)
	}
	if c.Target == TargetCluster && (c.Replicas < 1 || c.Replicas > c.N) {
		return fmt.Errorf("scenario: cluster replicas %d out of [1,%d]", c.Replicas, c.N)
	}
	return nil
}

// Result is a finished scenario run. Two runs of the same Config are
// bit-identical in every field.
type Result struct {
	// Rounds is the number of gossip rounds executed.
	Rounds int
	// Converged reports whether the protocol had stopped by the end.
	Converged bool
	// Alive is the final alive-node count; N is the final overlay size.
	Alive, N int
	// Joins/Crashes/Leaves/Rejoins/Colluders tally executed events.
	Joins, Crashes, Leaves, Rejoins, Colluders int
	// Log is the deterministic event log, one line per executed (or
	// skipped) event plus partition heals.
	Log []string
	// Reputations is the final per-identity reputation vector (estimates
	// for engine targets, snapshot globals for the service target); 0 for
	// departed identities.
	Reputations []float64
	// MaxMassErr is the worst relative mass-conservation error observed
	// across all per-round checks.
	MaxMassErr float64
	// FinalErr is the worst absolute deviation of an alive node's estimate
	// from the target's reference value at the end of the run (the
	// convergence-to-reference bound; large if churn struck near the end).
	FinalErr float64
	// Violations lists invariant breaches (empty on a healthy run).
	Violations []string
	// Messages is the engine's transmission tally (zero for the service
	// target, which accounts per epoch).
	Messages gossip.Messages
}

// Run builds the overlay and target, expands the timeline, and drives the
// scenario to completion.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}

	root := rng.New(cfg.Seed)
	graphSeed := root.Split().Uint64()
	planSrc := root.Split()  // event placement
	pickSrc := root.Split()  // node selection at execution time
	valueSrc := root.Split() // initial values / join state / feedback
	gossipSeed := root.Split().Uint64()

	g, err := graph.PreferentialAttachment(graph.PAConfig{N: cfg.N, M: cfg.M, Seed: graphSeed})
	if err != nil {
		return nil, err
	}

	events := append(append([]Event(nil), cfg.Script...), cfg.Plan.expand(cfg.N, cfg.Rounds, planSrc)...)
	for i := range events {
		if events[i].Round < 0 || events[i].Round >= cfg.Rounds {
			return nil, fmt.Errorf("scenario: event %d round %d out of [0,%d)", i, events[i].Round, cfg.Rounds)
		}
	}
	slices.SortStableFunc(events, func(a, b Event) int { return cmp.Compare(a.Round, b.Round) })

	tgt, err := newTarget(cfg, g, gossipSeed, valueSrc)
	if err != nil {
		return nil, err
	}
	defer tgt.Close()

	r := &runner{
		cfg:    cfg,
		g:      g,
		tgt:    tgt,
		events: events,
		pick:   pickSrc,
		alive:  make([]bool, cfg.N),
		res:    &Result{},
	}
	for i := range r.alive {
		r.alive[i] = true
	}
	return r.run()
}

// runner holds the mutable state of one scenario execution.
type runner struct {
	cfg    Config
	g      *graph.Graph
	tgt    target
	events []Event
	pick   *rng.Source
	alive  []bool
	cells  []int // partition cell per node; nil when no partition is active
	healAt int   // round the active partition auto-heals (-1: explicit heal)
	res    *Result
}

func (r *runner) aliveCount() int {
	n := 0
	for _, a := range r.alive {
		if a {
			n++
		}
	}
	return n
}

func (r *runner) logf(format string, args ...any) {
	r.res.Log = append(r.res.Log, fmt.Sprintf(format, args...))
}

// pickNode draws a uniform node with want-alive status, or -1 when none
// qualifies. One rng draw when candidates exist.
func (r *runner) pickNode(wantAlive bool) int {
	count := 0
	for _, a := range r.alive {
		if a == wantAlive {
			count++
		}
	}
	if count == 0 || (wantAlive && count == 1) {
		// Never take the last alive node down.
		return -1
	}
	k := r.pick.Intn(count)
	for i, a := range r.alive {
		if a == wantAlive {
			if k == 0 {
				return i
			}
			k--
		}
	}
	return -1
}

func (r *runner) run() (*Result, error) {
	next := 0
	round := 0
	running := true
	for ; round < r.cfg.Rounds; round++ {
		// Auto-heal an expired partition before this round's events.
		if r.cells != nil && r.healAt >= 0 && round >= r.healAt {
			if err := r.heal(round); err != nil {
				return nil, err
			}
		}
		for next < len(r.events) && r.events[next].Round == round {
			if err := r.apply(round, r.events[next]); err != nil {
				return nil, err
			}
			next++
		}
		running = r.tgt.Step()
		worst, violations := r.tgt.Check(r.cfg.MassTol)
		if worst > r.res.MaxMassErr {
			r.res.MaxMassErr = worst
		}
		for _, v := range violations {
			r.res.Violations = append(r.res.Violations, fmt.Sprintf("r=%d %s", round, v))
		}
		if !running && next == len(r.events) && r.cells == nil {
			round++
			break
		}
	}
	r.res.Rounds = round
	r.res.Converged = !running
	r.res.Alive = r.aliveCount()
	r.res.N = len(r.alive)
	r.res.Reputations = r.tgt.Reputations()
	r.res.FinalErr = r.tgt.ReferenceErr(r.alive)
	r.res.Messages = r.tgt.Messages()
	return r.res, nil
}

// apply executes one event against the runner's membership state and the
// target. Events that cannot fire (no eligible node) are logged and skipped,
// so randomized timelines remain valid as membership evolves.
func (r *runner) apply(round int, ev Event) error {
	switch ev.Kind {
	case KindJoin:
		id := graph.AttachPreferential(r.g, r.cfg.M, r.pick, func(v int) bool { return r.alive[v] })
		r.alive = append(r.alive, true)
		if r.cells != nil {
			r.cells = append(r.cells, 0) // newcomers land in the majority cell
		}
		if err := r.tgt.Join(id); err != nil {
			return fmt.Errorf("scenario: r=%d join: %w", round, err)
		}
		r.tgt.RefreshTopology()
		r.res.Joins++
		r.logf("r=%d join node=%d deg=%d alive=%d", round, id, r.g.Degree(id), r.aliveCount())
	case KindCrash, KindLeave:
		i := ev.Node
		if i < 0 {
			i = r.pickNode(true)
		} else if i >= len(r.alive) || !r.alive[i] {
			i = -1
		}
		if i < 0 {
			r.logf("r=%d %s skipped (no eligible node)", round, ev.Kind)
			return nil
		}
		var err error
		if ev.Kind == KindCrash {
			err = r.tgt.Crash(i)
			r.res.Crashes++
		} else {
			err = r.tgt.Leave(i)
			r.res.Leaves++
		}
		if err != nil {
			return fmt.Errorf("scenario: r=%d %s: %w", round, ev.Kind, err)
		}
		r.alive[i] = false
		r.logf("r=%d %s node=%d alive=%d", round, ev.Kind, i, r.aliveCount())
	case KindRejoin:
		i := ev.Node
		if i < 0 {
			i = r.pickNode(false)
		} else if i >= len(r.alive) || r.alive[i] {
			i = -1
		}
		if i < 0 {
			r.logf("r=%d rejoin skipped (none down)", round)
			return nil
		}
		if err := r.tgt.Rejoin(i); err != nil {
			return fmt.Errorf("scenario: r=%d rejoin: %w", round, err)
		}
		r.alive[i] = true
		r.res.Rejoins++
		r.logf("r=%d rejoin node=%d alive=%d", round, i, r.aliveCount())
	case KindLoss:
		if err := r.tgt.SetLoss(ev.Value); err != nil {
			return fmt.Errorf("scenario: r=%d loss: %w", round, err)
		}
		r.logf("r=%d loss p=%g", round, ev.Value)
	case KindPartition:
		if err := r.partition(round, ev); err != nil {
			return fmt.Errorf("scenario: r=%d partition: %w", round, err)
		}
	case KindHeal:
		if r.cells == nil {
			r.logf("r=%d heal skipped (no partition)", round)
			return nil
		}
		if err := r.heal(round); err != nil {
			return fmt.Errorf("scenario: r=%d heal: %w", round, err)
		}
	case KindCollude:
		group := r.pickGroup(ev.Frac)
		if len(group) == 0 {
			r.logf("r=%d collude skipped (no eligible nodes)", round)
			return nil
		}
		if err := r.tgt.Collude(group, ev.Value); err != nil {
			return fmt.Errorf("scenario: r=%d collude: %w", round, err)
		}
		r.res.Colluders += len(group)
		r.logf("r=%d collude size=%d lie=%g", round, len(group), ev.Value)
	default:
		return fmt.Errorf("scenario: unknown event kind %d", int(ev.Kind))
	}
	return nil
}

// partition splits the alive nodes into two cells (Frac in the minority
// cell) and installs the cross-cell link fault. A target that does not
// model link faults rejects the event, failing the run — a partition the
// engine silently ignored would masquerade as a fault-free result.
func (r *runner) partition(round int, ev Event) error {
	frac := ev.Frac
	if frac <= 0 || frac >= 1 {
		frac = 0.5
	}
	cells := make([]int, len(r.alive))
	minority := 0
	for i, a := range r.alive {
		if a && r.pick.Bool(frac) {
			cells[i] = 1
			minority++
		}
	}
	err := r.tgt.SetLinkFault(func(from, to int) bool {
		cf, ct := 0, 0
		if from < len(cells) {
			cf = cells[from]
		}
		if to < len(cells) {
			ct = cells[to]
		}
		return cf != ct
	})
	if err != nil {
		return err
	}
	r.cells = cells
	r.healAt = -1
	if ev.Span > 0 {
		r.healAt = round + ev.Span
	}
	r.logf("r=%d partition minority=%d span=%d", round, minority, ev.Span)
	return nil
}

func (r *runner) heal(round int) error {
	if err := r.tgt.SetLinkFault(nil); err != nil {
		return err
	}
	r.cells = nil
	r.healAt = 0
	r.logf("r=%d heal", round)
	return nil
}

// pickGroup draws round(frac·alive) distinct alive nodes in selection order.
func (r *runner) pickGroup(frac float64) []int {
	if frac <= 0 {
		return nil
	}
	var candidates []int
	for i, a := range r.alive {
		if a {
			candidates = append(candidates, i)
		}
	}
	k := int(frac*float64(len(candidates)) + 0.5)
	if k <= 0 {
		k = 1
	}
	if k >= len(candidates) {
		return candidates
	}
	idx := r.pick.Sample(len(candidates), k)
	out := make([]int, len(idx))
	for i, v := range idx {
		out[i] = candidates[v]
	}
	return out
}
