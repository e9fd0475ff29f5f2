package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"diffgossip/internal/gossip"
	"diffgossip/internal/graph"
	"diffgossip/internal/rng"
	"diffgossip/internal/trust"
)

// GlobalSubjects runs the paper's Algorithm 1 for an arbitrary subject
// subset: one independent push-sum campaign per subject, each drawing from
// its own randomness stream split off p.Seed by global subject id
// (SplitMix64 substream derivation — see subjectSeed).
//
// Because the campaigns share nothing, a subject's result column depends
// only on (p.Seed, the graph, its trust column, and for warm starts its
// recorded state) — never on which other subjects are computed alongside
// it, how the subject space is sharded, in which order shards fold, or how
// many workers run. That invariance is what lets the sharded service
// recompute any dirty subset of subjects and still match a full recompute
// bit for bit; GlobalAll is exactly the S=1 / all-subjects case.
//
// Each campaign picks the cheapest sound execution:
//
//   - no raters: the column is exactly zero, no engine runs;
//   - one rater (sparse mode on): the fixed point is the rater's value — the
//     column is filled directly, zero gossip steps;
//   - at most p.SparseRaterFrac·N raters: push-sum over the k-node rater
//     overlay, graph.Circulant(k), so cost scales with the raters, not N;
//   - otherwise: push-sum over the full graph.
//
// Either way the campaign is Algorithm 1 on one subject, run on the scalar
// gossip.Engine — the engine GlobalSingle runs: a cold dense campaign for
// subject j is bit-identical to GlobalSingle seeded with subjectSeed(p.Seed,
// j) (TestDenseCampaignIsGlobalSingle).
//
// When p.Warm supplies a usable previous state, the campaign restarts from
// it with the trust-column delta injected as mass corrections — a
// near-fixed-point start that converges in a handful of steps — and falls
// back to a cold start when the state no longer fits (rater removed,
// campaign mode changed). A campaign whose trust column is bit-identical to
// what a converged state recorded skips the engine entirely: the recorded
// fixed point is republished at zero steps and zero messages. Warm results
// agree with cold ones within the ξ tolerance but not bit for bit.
//
// p.Workers parallelises across subjects (0/1 sequential, negative =
// GOMAXPROCS): workers pull campaigns longest-estimated-first from a shared
// queue (scheduleOrder) and reuse one engine per topology via Engine.Reset
// — indistinguishable from a fresh NewEngine by construction — so the
// steady-state allocation per subject is just its result column.
func GlobalSubjects(g *graph.Graph, t trust.Reader, subjects []int, p Params) (*SubjectsResult, error) {
	return globalSubjects(g, t, subjects, p, true)
}

// GlobalSubjectsAtRoot is GlobalSubjects for a caller that reads one node's
// estimate per subject: the same campaigns, bit for bit, reporting only
// SubjectsResult.AtRoot and leaving Columns nil. A dense campaign writes its
// estimates into a per-worker scratch column; a sparse, single-rater or
// republished campaign builds no N-wide column at all, so the steady-state
// allocation per subject is its recorded state (Params.KeepStates) or nothing.
func GlobalSubjectsAtRoot(g *graph.Graph, t trust.Reader, subjects []int, p Params) (*SubjectsResult, error) {
	return globalSubjects(g, t, subjects, p, false)
}

// globalSubjects is the one campaign loop behind both result shapes; columns
// selects whether each subject's N-wide column is built besides AtRoot.
func globalSubjects(g *graph.Graph, t trust.Reader, subjects []int, p Params, columns bool) (*SubjectsResult, error) {
	p = p.withDefaults()
	if err := p.Validate(g); err != nil {
		return nil, err
	}
	n := g.N()
	if t == nil || t.N() != n {
		return nil, fmt.Errorf("core: trust source size does not match graph size %d", n)
	}
	seen := make(map[int]bool, len(subjects))
	for _, j := range subjects {
		if j < 0 || j >= n {
			return nil, fmt.Errorf("core: subject %d out of range [0,%d)", j, n)
		}
		if seen[j] {
			return nil, fmt.Errorf("core: duplicate subject %d", j)
		}
		seen[j] = true
	}

	res := &SubjectsResult{
		Subjects:       append([]int(nil), subjects...),
		AtRoot:         make([]float64, len(subjects)),
		StepsBySubject: make([]int, len(subjects)),
		Converged:      true,
	}
	if columns {
		res.Columns = make([][]float64, len(subjects))
	}
	if p.KeepStates {
		res.States = make([]*gossip.CampaignState, len(subjects))
	}
	sparseMax := 0
	if p.SparseRaterFrac > 0 {
		sparseMax = int(p.SparseRaterFrac * float64(n))
		if sparseMax < 1 {
			sparseMax = 1
		}
	}

	type outcome struct {
		steps     int
		converged bool
		msgs      gossip.Messages
		ran       bool
		warm      bool
		err       error
	}
	outs := make([]outcome, len(subjects))

	// Per-worker reusable state: one engine per topology (the real graph,
	// built on the first dense campaign, and one per overlay size, each over
	// its own overlay) and the seed scratch blocks, each allocated by the
	// first campaign that needs it. All of it, overlays included, is dropped
	// with the call, so the rater counts of past calls pin no memory.
	type workerState struct {
		engines map[int]*gossip.Engine // by overlay size; 0 is the real graph
		scratch *seedScratch           // dense seeds
		col     []float64              // dense estimate column when none is kept
		sy, sg  []float64              // sparse seeds, sliced to the overlay size
		est     []float64              // sparse estimate column
		ids     []int
		vals    []float64
	}

	runSubject := func(s int, w *workerState) {
		j := res.Subjects[s]
		w.ids, w.vals = t.RatersOfInto(j, w.ids[:0], w.vals[:0])
		ids, vals := w.ids, w.vals
		var col []float64 // stays nil (fills are no-ops) unless columns are kept
		if columns {
			col = make([]float64, n)
			res.Columns[s] = col
		}
		k := len(ids)
		if k == 0 {
			outs[s] = outcome{converged: true}
			return
		}
		sparse := sparseMax > 0 && k <= sparseMax
		if sparse && k == 1 {
			// A single rater's campaign has a closed-form fixed point: every
			// node's estimate is the rater's value. Zero steps, still a
			// computed (cold) campaign for the incrementality accounting.
			res.AtRoot[s] = vals[0]
			fill(col, vals[0])
			outs[s] = outcome{converged: true, ran: true}
			return
		}
		// A sparse campaign's engine runs over the k-node rater overlay, a
		// dense one over the real graph; a recorded state is usable only by
		// a campaign of the mode and size that recorded it.
		size, key := n, 0
		if sparse {
			size, key = k, k
		}
		var ws *gossip.CampaignState
		if p.Warm != nil {
			ws = p.Warm(j)
		}
		usable := ws != nil && ws.Sparse == sparse &&
			len(ws.Y) == size && len(ws.G) == size &&
			len(ws.PrevVals) == len(ws.Raters)
		sameRaters := usable && sameIDs(ws.Raters, ids)
		if sameRaters && ws.Converged && sameVals(ws.PrevVals, vals) {
			// Unchanged campaign: the recorded state already holds the fixed
			// point, so republish its column — zero steps, zero messages, and
			// the state carries forward untouched for the next epoch.
			res.AtRoot[s] = stateEstimate(ws, p.Root)
			stateColumn(ws, col)
			outs[s] = outcome{converged: true, ran: true, warm: true}
			if res.States != nil {
				res.States[s] = ws
			}
			return
		}

		var warm bool
		var y0, g0 []float64
		if sparse {
			// Overlay node pos is rater ids[pos], so a recorded state fits
			// only the exact rater set it was recorded over.
			warm = sameRaters
			if w.est == nil {
				w.sy, w.sg, w.est = make([]float64, sparseMax), make([]float64, sparseMax), make([]float64, sparseMax)
			}
			y0, g0 = w.sy[:k], w.sg[:k]
			if warm {
				copy(y0, ws.Y)
				copy(g0, ws.G)
				for pos, v := range vals {
					y0[pos] += v - ws.PrevVals[pos]
				}
			} else {
				for pos, v := range vals {
					y0[pos] = v
					g0[pos] = 1
				}
			}
		} else {
			if w.scratch == nil {
				w.scratch = newSeedScratch(n)
			}
			warm = usable && w.scratch.seedWarm(ws, ids, vals)
			if !warm {
				w.scratch.seedCold(ids, vals)
			}
			y0, g0 = w.scratch.y, w.scratch.g
		}

		// Only the seed and masses matter to the dynamics, so one engine per
		// topology replays every later campaign via Reset, bit-identically
		// to a fresh construction.
		seed := subjectSeed(p.Seed, j)
		eng := w.engines[key]
		var err error
		if eng == nil {
			topo := g
			if sparse {
				// The overlay is a pure function of k: every shard, worker
				// and replica derives the identical graph, which keeps
				// campaign results partition-invariant.
				topo = graph.Circulant(k)
			}
			cfg := p.gossipConfig(topo)
			cfg.Seed = seed
			eng, err = gossip.NewEngine(cfg, y0, g0)
			w.engines[key] = eng
		} else {
			err = eng.Reset(seed, y0, g0)
		}
		if err != nil {
			outs[s] = outcome{err: err}
			return
		}
		if warm {
			eng.SetMinSteps(warmMinSteps)
		} else {
			eng.SetMinSteps(0)
		}
		est, at := col, p.Root
		if sparse {
			// Every overlay node's estimate is within the ξ band; node 0's
			// stands for the whole network, like the root's does on a dense run.
			est, at = w.est[:k], 0
		} else if est == nil {
			if w.col == nil {
				w.col = make([]float64, n)
			}
			est = w.col
		}
		steps, conv := eng.RunInto(est)
		res.AtRoot[s] = est[at]
		if sparse {
			fill(col, est[0])
		}
		outs[s] = outcome{steps: steps, converged: conv, msgs: eng.Messages(), ran: true, warm: warm}
		if res.States != nil {
			res.States[s] = captureState(eng, sparse, ids, vals, steps, conv)
		}
	}

	workers := p.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(subjects) {
		workers = len(subjects)
	}
	if workers < 1 {
		workers = 1
	}
	order := scheduleOrder(t, res.Subjects, p, n, sparseMax, workers)
	var cursor atomic.Int64
	runWorker := func() {
		w := &workerState{engines: make(map[int]*gossip.Engine)}
		for {
			x := int(cursor.Add(1)) - 1
			if x >= len(order) {
				return
			}
			runSubject(order[x], w)
		}
	}
	if workers == 1 {
		runWorker()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runWorker()
			}()
		}
		wg.Wait()
	}

	// Aggregate in subject order so the tallies are deterministic for any
	// worker count. The campaigns share one degree exchange, charged once
	// (each engine's own Setup tally is left out).
	for s := range outs {
		if outs[s].err != nil {
			return nil, outs[s].err
		}
		if outs[s].steps > res.Steps {
			res.Steps = outs[s].steps
		}
		res.Converged = res.Converged && outs[s].converged
		if outs[s].ran {
			res.Computed++
			res.TotalSteps += outs[s].steps
			res.StepsBySubject[s] = outs[s].steps
			if outs[s].warm {
				res.WarmStarts++
			} else {
				res.ColdStarts++
			}
			res.Messages.Gossip += outs[s].msgs.Gossip
			res.Messages.Announce += outs[s].msgs.Announce
			res.Messages.Lost += outs[s].msgs.Lost
			res.Messages.ActiveNodeSteps += outs[s].msgs.ActiveNodeSteps
		} else {
			res.StepsBySubject[s] = -1
		}
	}
	res.Messages.Setup = 2 * g.M()
	return res, nil
}

// subjectSeed derives subject j's campaign seed from the run seed: position
// j of a SplitMix64 sequence — the same substream derivation rng.Source
// seeding is built on — evaluated positionally in O(1), so a shard fold
// pays only for the subjects it actually computes (never an O(N) draw
// sweep). The additive offset keeps campaign seeds disjoint from the state
// words rng.New derives from the same base. The seed is a pure function of
// (run seed, global subject id): any partition of the subject space at any
// worker count replays the same stream for the same subject.
func subjectSeed(base uint64, j int) uint64 {
	return rng.Mix64(base + 0xd1342543de82ef95 + (uint64(j)+1)*0x9e3779b97f4a7c15)
}

// GlobalAll runs the paper's third variant: Algorithm 1 for every subject.
// Since PR 4 it is the all-subjects case of GlobalSubjects — N independent
// per-subject push-sum campaigns, one split randomness stream each —
// rather than one vector gossip with a shared routing stream. The paper
// observes that the per-subject streams are independent ("the time
// complexity matches the single-subject algorithm"); running them as
// genuinely separate campaigns makes the result decomposable by subject,
// which the sharded epoch pipeline relies on, at the cost of per-campaign
// routing draws instead of one shared routing. Each campaign is a scalar
// gossip.Engine run — the one GlobalSingle makes — converging under the
// scalar rule |r(n) − r(n−1)| ≤ ξ, the one-subject form of rule (7).
//
// Messages tallies the campaigns' pushes (one subject slot per push, so a
// push costs one unit) plus a single shared degree exchange.
func GlobalAll(g *graph.Graph, t *trust.Matrix, p Params) (*AllResult, error) {
	p = p.withDefaults()
	if err := p.validate(g, t); err != nil {
		return nil, err
	}
	n := g.N()
	subjects := make([]int, n)
	for j := range subjects {
		subjects[j] = j
	}
	sub, err := GlobalSubjects(g, t, subjects, p)
	if err != nil {
		return nil, err
	}
	out := &AllResult{
		Reputation: zeros(n),
		Steps:      sub.Steps,
		Converged:  sub.Converged,
		Messages:   sub.Messages,
	}
	for j := 0; j < n; j++ {
		col := sub.Columns[j]
		for i := 0; i < n; i++ {
			out.Reputation[i][j] = col[i]
		}
	}
	return out, nil
}

// GCLRAll runs the paper's fourth variant: Algorithm 2 for every subject
// simultaneously. Nodes push their full trust vectors t_i in the feedback
// phase, the trio vectors (y, g, count) gossip as in variant 3, and each node
// applies eq. (6) per subject at the end.
func GCLRAll(g *graph.Graph, t *trust.Matrix, p Params) (*AllResult, error) {
	return GCLRAllFromReports(g, t, t, p)
}

// GCLRAllFromReports is GCLRAll where the values pushed into the gossip phase
// come from a separate "reported" matrix while the neighbour-feedback phase
// and the confidence weights use the honest direct-interaction matrix. This
// is exactly the collusion threat model of §5.2: colluders can lie in what
// they gossip (third mechanism) but direct experience and neighbour feedback
// are unaffected.
func GCLRAllFromReports(g *graph.Graph, honest, reported *trust.Matrix, p Params) (*AllResult, error) {
	p = p.withDefaults()
	if err := p.validate(g, honest); err != nil {
		return nil, err
	}
	if reported == nil || reported.N() != honest.N() {
		return nil, errSize(reported, honest)
	}
	n := g.N()
	e, err := gossip.NewVectorEngine(p.gossipConfig(g), p.Root, reported.RowInto)
	if err != nil {
		return nil, err
	}
	// Feedback phase: each node pushes its trust vector to each neighbour.
	e.ChargeSetup(2 * g.M() * n)
	res := e.Run()

	out := &AllResult{
		Reputation: zeros(n),
		Counts:     res.Counts,
		Steps:      res.Steps,
		Converged:  res.Converged,
		Messages:   res.Messages,
	}
	var row, col []int
	var rowVals, colVals []float64
	for j := 0; j < n; j++ {
		col, colVals = honest.RatersOfInto(j, col[:0], colVals[:0])
		for i := 0; i < n; i++ {
			row, rowVals = honest.RowInto(i, row[:0], rowVals[:0])
			out.Reputation[i][j] = combineGCLR(p.Weights, row, rowVals, col, colVals, res.Estimates[i][j], res.Counts[i][j])
		}
	}
	return out, nil
}

// zeros returns an N×N zero matrix: one contiguous block, rows as views.
func zeros(n int) [][]float64 {
	buf := make([]float64, n*n)
	out := make([][]float64, n)
	for i := range out {
		out[i] = buf[i*n : (i+1)*n : (i+1)*n]
	}
	return out
}
