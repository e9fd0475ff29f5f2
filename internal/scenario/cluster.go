package scenario

import (
	"context"
	"fmt"
	"math"
	"reflect"

	"diffgossip/internal/cluster"
	"diffgossip/internal/core"
	"diffgossip/internal/gossip"
	"diffgossip/internal/graph"
	"diffgossip/internal/rng"
	"diffgossip/internal/service"
	"diffgossip/internal/transport"
)

// clusterTarget drives a federated dgserve cluster through churn: R replicas
// (timeline nodes 0..R-1), each a full reputation service with its own
// ledger and epoch pipeline, replicate by anti-entropy over the in-memory
// hub; the remaining timeline nodes are clients that submit feedback through
// whichever replica a round-robin cursor lands on next — any client may hit
// any replica, and per-cell last-writer-wins tags (see internal/cluster)
// keep the replicas convergent anyway. Each replica's endpoint is wrapped in
// a seeded transport.Fault, so the timeline's loss and partition events
// apply to the replication path.
//
// Membership is the real thing, not a static list: replica 0 bootstraps with
// no seeds and every other replica seeds on replica 0 alone; gossiped views
// discover the rest. The failure detector runs on the target's logical clock
// (one tick per round; suspect after 3 idle ticks, dead after 6), so a
// replica crashed for a multi-round window goes dead on its peers, which
// stop pushing to it, and its rejoin — a fresh agent with a bumped
// incarnation over the surviving ledger — has its whole backlog streamed
// back in answer to the first digest it sends.
//
// All replicas are replicating services sharing the overlay and the base
// seed, and feedback is stamped from a deterministic submission counter, so once
// watermarks agree and each replica has folded, reputations must match
// across replicas bit for bit — that exact equality, not an envelope, is the
// final convergence check. The whole run is single-threaded (manual
// Exchange/Drain driving), so it replays bit-identically from its seed.
type clusterTarget struct {
	g      *graph.Graph
	hub    *transport.Hub
	svcs   []*service.Service
	nodes  []*cluster.Node // nil while the replica is crashed
	eps    []*transport.ChannelTransport
	faults []*transport.Fault // per-replica send-side fault injector
	names  []string
	upRep  []bool
	alive  []bool // identity liveness, replicas and clients alike
	values *rng.Source

	faultSeed uint64   // base seed for the per-replica fault injectors
	incs      []uint64 // per-replica incarnation, bumped on every attach
	clock     int64    // logical membership clock, one tick per round
	lossP     float64  // current replication-path loss probability
	linkDown  func(from, to int) bool

	rr     int   // round-robin client-routing cursor over replicas
	subSeq int64 // deterministic LWW timestamp source

	epochEvery int
	round      int
	bound      float64

	lastSeq     []uint64 // per-replica folded-seq monotonicity
	lastChecked []uint64 // per-replica epoch already verified
	epochErr    error

	finalized  bool
	finalViols []string
}

// membership thresholds in logical-clock ticks (rounds).
const (
	clusterSuspectTicks = 3
	clusterDeadTicks    = 6
)

func newClusterTarget(cfg Config, g *graph.Graph, seed uint64, values *rng.Source) (*clusterTarget, error) {
	r := cfg.Replicas
	shards := 4
	if shards > g.N() {
		shards = g.N()
	}
	t := &clusterTarget{
		g:           g,
		hub:         transport.NewHub(),
		svcs:        make([]*service.Service, r),
		nodes:       make([]*cluster.Node, r),
		eps:         make([]*transport.ChannelTransport, r),
		faults:      make([]*transport.Fault, r),
		names:       make([]string, r),
		upRep:       make([]bool, r),
		alive:       make([]bool, g.N()),
		values:      values,
		faultSeed:   seed ^ 0xc1f5_7e11, // decorrelated from the epoch seed
		incs:        make([]uint64, r),
		lossP:       cfg.LossProb,
		epochEvery:  cfg.EpochEvery,
		bound:       50 * cfg.Epsilon, // same envelope as the service target
		lastSeq:     make([]uint64, r),
		lastChecked: make([]uint64, r),
	}
	for i := range t.alive {
		t.alive[i] = true
	}
	for i := 0; i < r; i++ {
		t.names[i] = fmt.Sprintf("replica-%d", i)
	}
	for i := 0; i < r; i++ {
		svc, err := service.New(service.Config{
			Graph: g,
			Params: core.Params{
				Epsilon:  cfg.Epsilon,
				LossProb: cfg.LossProb,
				Seed:     seed,
				Workers:  cfg.Workers,
			},
			Shards: shards,
			Origin: t.names[i],
		})
		if err != nil {
			return nil, err
		}
		t.svcs[i] = svc
		if err := t.attach(i); err != nil {
			return nil, err
		}
		t.upRep[i] = true
	}
	return t, nil
}

// attach registers replica i's hub endpoint, fault injector and replication
// agent. Seeding is single-point: replica 0 starts with no peers at all and
// everyone else knows only replica 0 — the rest of the membership arrives by
// gossip. Every attach bumps the replica's incarnation, so a rejoin is
// distinguishable from the stalled pre-crash generation.
func (t *clusterTarget) attach(i int) error {
	ep, err := t.hub.Endpoint(t.names[i])
	if err != nil {
		return err
	}
	t.incs[i]++
	ft := transport.NewFault(ep, t.faultSeed+uint64(i)<<32+t.incs[i])
	ft.SetDropProb(t.lossP)
	if t.linkDown != nil {
		ft.SetLinkFault(t.linkPredicate())
	}
	var seeds []string
	if i != 0 {
		seeds = []string{t.names[0]}
	}
	node, err := cluster.New(cluster.Config{
		Service:      t.svcs[i],
		Transport:    ft,
		Peers:        seeds,
		Now:          func() int64 { return t.clock },
		Incarnation:  t.incs[i],
		SuspectAfter: clusterSuspectTicks,
		DeadAfter:    clusterDeadTicks,
	})
	if err != nil {
		ep.Close()
		return err
	}
	t.eps[i], t.faults[i], t.nodes[i] = ep, ft, node
	return nil
}

// replicaIndex maps a replication address ("replica-%d") back to its
// timeline node index, or -1.
func (t *clusterTarget) replicaIndex(addr string) int {
	for i, nm := range t.names {
		if nm == addr {
			return i
		}
	}
	return -1
}

// linkPredicate adapts the runner's index-based link fault to the transport
// layer's address-based one.
func (t *clusterTarget) linkPredicate() func(from, to string) bool {
	return func(from, to string) bool {
		down := t.linkDown
		if down == nil {
			return false
		}
		fi, ti := t.replicaIndex(from), t.replicaIndex(to)
		if fi < 0 || ti < 0 {
			return false
		}
		return down(fi, ti)
	}
}

// nextUpReplica advances the round-robin routing cursor by one and returns
// the first up replica at or after it, or -1 when the whole cluster is down.
// The cursor advances whether or not the submission goes through, so routing
// is a pure function of the timeline.
func (t *clusterTarget) nextUpReplica() int {
	r := len(t.svcs)
	start := t.rr
	t.rr = (t.rr + 1) % r
	for k := 0; k < r; k++ {
		if cand := (start + k) % r; t.upRep[cand] {
			return cand
		}
	}
	return -1
}

// nextStamp returns the next deterministic LWW timestamp: a global
// submission counter, which totally orders same-cell conflicts identically
// on every run.
func (t *clusterTarget) nextStamp() int64 {
	t.subSeq++
	return t.subSeq
}

// Step runs one round: a logical-clock tick, client submissions routed
// round-robin across the up replicas, one synchronous anti-entropy exchange,
// and epochs on the configured cadence.
func (t *clusterTarget) Step() bool {
	t.clock++
	var subjects []int
	for j, a := range t.alive {
		if a {
			subjects = append(subjects, j)
		}
	}
	if len(subjects) > 0 {
		for i, a := range t.alive {
			// Draws happen for every identity regardless of outcome so the
			// random stream — and with it the whole run — stays aligned
			// whatever the membership does. The routing cursor likewise
			// advances on every attempt.
			if !t.values.Bool(0.3) {
				continue
			}
			j := subjects[t.values.Intn(len(subjects))]
			v := t.values.Float64()
			home := t.nextUpReplica()
			if !a || j == i || home < 0 {
				continue // dead client, self-rating, or whole cluster down
			}
			if _, err := t.svcs[home].SubmitCtx(context.Background(), i, j, v, t.nextStamp()); err != nil {
				t.epochErr = err
				break
			}
		}
	}
	t.antiEntropy()
	t.round++
	if t.round%t.epochEvery == 0 {
		for r, up := range t.upRep {
			if !up {
				continue
			}
			if _, _, err := t.svcs[r].RunEpoch(); err != nil {
				t.epochErr = err
			}
		}
	}
	return true
}

// antiEntropy runs one synchronous exchange: every live replica digests,
// then two drain passes so digests become batches and batches apply within
// the same round.
func (t *clusterTarget) antiEntropy() {
	for r, up := range t.upRep {
		if up {
			t.nodes[r].Exchange()
		}
	}
	for pass := 0; pass < 2; pass++ {
		for r, up := range t.upRep {
			if up {
				t.nodes[r].Drain()
			}
		}
	}
}

func (t *clusterTarget) checkNode(i int) error {
	if i < 0 || i >= len(t.alive) {
		return fmt.Errorf("scenario: node %d out of range [0,%d)", i, len(t.alive))
	}
	return nil
}

func (t *clusterTarget) Join(int) error {
	return fmt.Errorf("scenario: the cluster target has fixed membership; use rejoin-style churn")
}

// Crash takes identity i down. For a replica that closes its hub endpoint —
// in-flight messages to it start failing, exactly like a dead TCP peer —
// while its service (ledger, snapshots) survives for the rejoin, the
// in-memory stand-in for a WAL-backed process restart.
func (t *clusterTarget) Crash(i int) error {
	if err := t.checkNode(i); err != nil {
		return err
	}
	t.alive[i] = false
	if i < len(t.upRep) && t.upRep[i] {
		t.upRep[i] = false
		t.faults[i].Close() // closes the hub endpoint underneath
		t.nodes[i].Close()
		t.nodes[i] = nil
	}
	return nil
}

// Leave is a graceful shutdown; for this target it is indistinguishable from
// a crash (the ledger is durable either way).
func (t *clusterTarget) Leave(i int) error { return t.Crash(i) }

// Rejoin brings identity i back; a replica re-registers its endpoint and a
// fresh replication agent whose next digest pulls everything it missed.
func (t *clusterTarget) Rejoin(i int) error {
	if err := t.checkNode(i); err != nil {
		return err
	}
	t.alive[i] = true
	if i < len(t.upRep) && !t.upRep[i] {
		if err := t.attach(i); err != nil {
			return err
		}
		t.upRep[i] = true
	}
	return nil
}

// SetLoss changes the replication-path drop probability on every replica's
// fault injector (epoch-internal gossip loss stays fixed at construction).
// Dropped batches are recovered by the watermark pull, dropped digests by
// the next round's exchange, so loss slows convergence without breaking it.
func (t *clusterTarget) SetLoss(p float64) error {
	if p < 0 || p >= 1 {
		return fmt.Errorf("scenario: replication loss %v out of [0,1)", p)
	}
	t.lossP = p
	for i, up := range t.upRep {
		if up {
			t.faults[i].SetDropProb(p)
		}
	}
	return nil
}

// SetLinkFault installs (or, with nil, heals) a pairwise partition on the
// replication path. The runner's predicate speaks timeline node indices;
// replicas translate their peer addresses back through replicaIndex, and
// sends touching a client index (never a replication address) pass through.
func (t *clusterTarget) SetLinkFault(down func(from, to int) bool) error {
	t.linkDown = down
	for i, up := range t.upRep {
		if !up {
			continue
		}
		if down == nil {
			t.faults[i].SetLinkFault(nil)
		} else {
			t.faults[i].SetLinkFault(t.linkPredicate())
		}
	}
	return nil
}

// Collude floods each member's lie ratings through the round-robin cursor —
// the federated shape of the paper's group-inflation attack, with the lies
// entering the cluster wherever the routing happens to land.
func (t *clusterTarget) Collude(group []int, lie float64) error {
	if lie < 0 || lie > 1 {
		return fmt.Errorf("scenario: collusion lie %v out of [0,1]", lie)
	}
	for _, i := range group {
		for _, j := range group {
			if i == j {
				continue
			}
			home := t.nextUpReplica()
			if home < 0 {
				continue
			}
			if _, err := t.svcs[home].SubmitCtx(context.Background(), i, j, lie, t.nextStamp()); err != nil {
				return err
			}
		}
	}
	return nil
}

func (t *clusterTarget) RefreshTopology() {}

// Check verifies, per live replica, what the service target verifies for its
// single service: the folded sequence number is monotone, and each freshly
// published epoch tracks the exact reference on its own frozen columns
// within the envelope.
func (t *clusterTarget) Check(float64) (float64, []string) {
	var violations []string
	if t.epochErr != nil {
		violations = append(violations, fmt.Sprintf("epoch error: %v", t.epochErr))
		t.epochErr = nil
	}
	worst := 0.0
	for r, up := range t.upRep {
		if !up {
			continue
		}
		v := t.svcs[r].View()
		if v.Seq() < t.lastSeq[r] {
			violations = append(violations, fmt.Sprintf("replica %d folded seq went backwards: %d after %d", r, v.Seq(), t.lastSeq[r]))
		}
		t.lastSeq[r] = v.Seq()
		if v.Epoch() == 0 || v.Epoch() == t.lastChecked[r] {
			continue
		}
		t.lastChecked[r] = v.Epoch()
		if w := viewRefErr(v); w > worst {
			worst = w
			if w > t.bound {
				violations = append(violations, fmt.Sprintf("replica %d epoch %d deviates %.3e from reference (bound %.3e)", r, v.Epoch(), w, t.bound))
			}
		}
	}
	return worst, violations
}

// finalize drains the cluster to quiescence — anti-entropy rounds until
// every live replica holds identical watermarks and no message moves — then
// folds one last epoch on each. It runs once, triggered by the end-of-run
// accessors.
func (t *clusterTarget) finalize() {
	if t.finalized {
		return
	}
	t.finalized = true
	anyUp := false
	for _, up := range t.upRep {
		anyUp = anyUp || up
	}
	if !anyUp {
		return
	}
	quiesced := false
	for iter := 0; iter < 200 && !quiesced; iter++ {
		t.antiEntropy()
		// Watermark agreement across live replicas IS full replication:
		// equal maps mean every replica's mark for each origin equals that
		// origin's own self-mark, i.e. everyone holds everything. Any batch
		// still in flight after that can only be a harmless duplicate.
		var ref map[string]uint64
		quiesced = true
		for r, up := range t.upRep {
			if !up {
				continue
			}
			m := t.nodes[r].Stats().Marks
			if ref == nil {
				ref = m
			} else if !reflect.DeepEqual(ref, m) {
				quiesced = false
			}
		}
	}
	if !quiesced {
		t.finalViols = append(t.finalViols, "cluster watermarks never converged in finalize")
	}
	for r, up := range t.upRep {
		if !up {
			continue
		}
		if _, _, err := t.svcs[r].RunEpoch(); err != nil {
			t.finalViols = append(t.finalViols, fmt.Sprintf("replica %d final epoch: %v", r, err))
		}
	}
}

// Reputations returns the converged per-identity reputations as served by
// the first live replica (all live replicas serve identical values once
// finalize has run — ReferenceErr asserts it).
func (t *clusterTarget) Reputations() []float64 {
	t.finalize()
	out := make([]float64, t.g.N())
	for r, up := range t.upRep {
		if !up {
			continue
		}
		v := t.svcs[r].View()
		for j := range out {
			out[j], _ = v.Reputation(j)
		}
		break
	}
	return out
}

// ReferenceErr reports the worst cross-replica divergence after the final
// drain: replicating services with a shared seed must, once converged, be
// bit-identical, so anything above zero is a replication defect. A cluster
// that failed to quiesce reports +Inf.
func (t *clusterTarget) ReferenceErr([]bool) float64 {
	t.finalize()
	if len(t.finalViols) > 0 {
		return math.Inf(1)
	}
	var views []*service.View
	for r, up := range t.upRep {
		if up {
			views = append(views, t.svcs[r].View())
		}
	}
	if len(views) < 2 {
		return 0
	}
	worst := 0.0
	for j := 0; j < t.g.N(); j++ {
		base, err := views[0].Reputation(j)
		if err != nil {
			return math.Inf(1)
		}
		for _, v := range views[1:] {
			got, err := v.Reputation(j)
			if err != nil {
				return math.Inf(1)
			}
			if d := math.Abs(got - base); d > worst {
				worst = d
			}
		}
	}
	return worst
}

func (t *clusterTarget) Messages() gossip.Messages { return gossip.Messages{} }

// Close tears the fault wrappers (and the hub endpoints underneath), agents
// and services down.
func (t *clusterTarget) Close() error {
	var first error
	for r, up := range t.upRep {
		if up {
			t.faults[r].Close()
			t.nodes[r].Close()
		}
	}
	for _, svc := range t.svcs {
		if err := svc.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

var _ target = (*clusterTarget)(nil)
