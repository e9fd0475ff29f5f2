package gossip

import (
	"fmt"
	"runtime"
	"sync"

	"diffgossip/internal/rng"
)

// VectorEngine runs the paper's fourth algorithm variant: Algorithm 2 for
// every subject at once. Every node gossips a full vector of (Y, G, Count)
// triples — one slot per subject node — so the reputations of all N nodes
// aggregate simultaneously. A node id travels with each triple implicitly via
// the slot index, and pushing the vector costs N message units.
//
// Convergence uses the paper's rule (7): node i announces convergence when
//
//	Σ_j |r_ij(n) − r_ij(n−1)| ≤ N·ξ
//
// after hearing from at least one other node, and stops once it and all its
// neighbours have announced. Counts take no part in it.
//
// Memory layout: every N×N matrix (y, g, count, prevR and their double
// buffers) is backed by a single contiguous []float64 block; the [][]float64
// fields are row views buf[i*n:(i+1)*n] into it, so row traversals are
// unit-stride and the whole matrix is one allocation instead of N. Step
// performs zero heap allocations in steady state: fan-out targets are drawn
// into a reused scratch buffer (graph.AppendRandomNeighbors), routed shares
// into reused per-destination lists, and rows move between the current and
// next buffer by view swapping.
//
// The start is fixed (see NewVectorEngine): every node holds its reported
// trust row and the root holds the unit weight of every subject column, so
// every column is weighted from step one and a node's ratios converge to the
// column sums, its counts to the rater counts.
//
// The overlay is static: the engine has no churn hooks, and packet loss
// (Config.LossProb, fixed at construction) is its only fault. Its one caller
// is core.GCLRAllFromReports (and GCLRAll through it), the all-subjects
// variant behind Figs. 5–6; churn runs on the scalar Engine.
//
// Memory is Θ(N²); the experiment harness uses the engine for the collusion
// figures at moderate N and falls back to the scalar engine for the large-N
// timing figures. A single subject's campaign needs no vector at all: it is
// the scalar Engine, which core.GlobalSubjects runs once per subject
// (core's TestDenseCampaignIsGlobalSingle pins that such a campaign is
// bit-identical to GlobalSingle).
type VectorEngine struct {
	cfg   Config
	n     int
	ks    []int
	src   *rng.Source
	steps int

	y, g  [][]float64 // [node][subject] masses, rows into contiguous blocks
	count [][]float64 // rater-count mass
	prevR [][]float64 // previous-step ratios

	selfConv []bool
	stopped  []bool

	nextY, nextG, nextC [][]float64
	extRecv             []int
	incoming            [][]push
	l1                  []float64
	hasWeight           []bool
	// recomputed[i] marks rows rewritten this step; untouched rows (a
	// stopped node that heard nothing keeps its exact mass) skip the Θ(N)
	// accumulate-and-scan entirely and are not view-swapped.
	recomputed []bool
	nbrs       []int // scratch for fan-out target sampling
	wg         sync.WaitGroup

	msgs Messages
}

// VectorResult is the outcome of a VectorEngine run. Estimates[i][j] is node
// i's estimate for subject j, and Counts[i][j] its estimate of j's rater
// count.
type VectorResult struct {
	Steps     int
	Converged bool
	Estimates [][]float64
	Counts    [][]float64
	Messages  Messages
}

// NewVectorEngine builds variant 4's start in place: node i holds its
// reported trust row (y = t_ij and a rater count of 1 at every subject j it
// rated, 0 elsewhere), and root holds weight 1 in every subject column. row
// appends node i's rated subjects and their values to ids and vals — the
// signature of trust.Matrix.RowInto.
func NewVectorEngine(cfg Config, root int, row func(i int, ids []int, vals []float64) ([]int, []float64)) (*VectorEngine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Graph.N()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("gossip: root %d out of range [0,%d)", root, n)
	}
	e := &VectorEngine{
		cfg:        cfg,
		n:          n,
		ks:         cfg.fanouts(),
		src:        rng.New(cfg.Seed),
		y:          alloc(n),
		g:          alloc(n),
		count:      alloc(n),
		prevR:      alloc(n),
		selfConv:   make([]bool, n),
		stopped:    make([]bool, n),
		nextY:      alloc(n),
		nextG:      alloc(n),
		nextC:      alloc(n),
		extRecv:    make([]int, n),
		incoming:   make([][]push, n),
		l1:         make([]float64, n),
		hasWeight:  make([]bool, n),
		recomputed: make([]bool, n),
	}
	var ids []int
	var vals []float64
	for i := 0; i < n; i++ {
		// A node can receive at most one share from each neighbour, one
		// self share, and k_i loss-returned shares per step, so
		// per-destination push lists are sized once, up front — Step never
		// grows them.
		e.incoming[i] = make([]push, 0, 1+e.ks[i]+cfg.Graph.Degree(i))
		// Construction-time degree exchange: every node announces its
		// degree to each neighbour before the first round.
		e.msgs.Setup += cfg.Graph.Degree(i)
		ids, vals = row(i, ids[:0], vals[:0])
		for k, j := range ids {
			e.y[i][j] = vals[k]
			e.count[i][j] = 1
		}
		// A row without weight reports the Sentinel ratio everywhere.
		for j := range e.prevR[i] {
			e.prevR[i][j] = Sentinel
		}
	}
	// The root's ratios are y/1 = y exactly, and only its row starts
	// weighted in every column (hasWeight, as the full scan would compute
	// it for rows that stay untouched from step one).
	for j := range e.g[root] {
		e.g[root][j] = 1
	}
	copy(e.prevR[root], e.y[root])
	e.hasWeight[root] = true
	return e, nil
}

// alloc returns an N×N zero matrix: one contiguous block, rows as views.
func alloc(n int) [][]float64 {
	buf := make([]float64, n*n)
	out := make([][]float64, n)
	for i := range out {
		out[i] = buf[i*n : (i+1)*n : (i+1)*n]
	}
	return out
}

// ChargeSetup adds extra setup messages to the tally.
func (e *VectorEngine) ChargeSetup(n int) { e.msgs.Setup += n }

// Messages returns the transmission tally accumulated so far.
func (e *VectorEngine) Messages() Messages { return e.msgs }

// MassY returns Σ_i y_i[j] for subject j (invariant across steps).
func (e *VectorEngine) MassY(j int) float64 {
	total := 0.0
	for i := 0; i < e.n; i++ {
		total += e.y[i][j]
	}
	return total
}

// MassG returns Σ_i g_i[j] for subject j (invariant across steps).
func (e *VectorEngine) MassG(j int) float64 {
	total := 0.0
	for i := 0; i < e.n; i++ {
		total += e.g[i][j]
	}
	return total
}

// push is one routed share: the destination accumulates f times the source's
// current vectors.
type push struct {
	src int
	f   float64
}

// Step executes one synchronous vector gossip step; it returns true while
// some node is still running.
//
// The step has three phases. Routing (sequential, so the random choices are
// identical regardless of parallelism) decides which shares go where.
// Accumulation — the Θ(N²) part — applies the routed shares per destination
// and is split across cfg.Workers goroutines; every destination sums its
// incoming list in routing order, so the result is bit-identical for any
// worker count. Flags (sequential) runs the convergence protocol.
func (e *VectorEngine) Step() bool {
	g := e.cfg.Graph

	// Phase 1: routing.
	for i := range e.incoming {
		e.incoming[i] = e.incoming[i][:0]
		e.extRecv[i] = 0
	}
	for i := 0; i < e.n; i++ {
		if e.stopped[i] || g.Degree(i) == 0 {
			e.incoming[i] = append(e.incoming[i], push{src: i, f: 1})
			continue
		}
		e.msgs.ActiveNodeSteps++
		k := e.ks[i]
		f := 1 / float64(k+1)
		e.incoming[i] = append(e.incoming[i], push{src: i, f: f}) // self share
		e.nbrs = g.AppendRandomNeighbors(e.nbrs[:0], i, k, e.src)
		for _, t := range e.nbrs {
			// A push carries N slots and costs N message units, lost or
			// not: the paper's communication complexity of the vector
			// variant grows with the vector size.
			e.msgs.Gossip += e.n
			// A lost push gets no ack, so the sender re-absorbs the share.
			if e.cfg.LossProb > 0 && e.src.Bool(e.cfg.LossProb) {
				e.msgs.Lost += e.n
				e.incoming[i] = append(e.incoming[i], push{src: i, f: f})
				continue
			}
			e.incoming[t] = append(e.incoming[t], push{src: i, f: f})
			e.extRecv[t]++
		}
	}

	// Phase 2: accumulation (parallel over destinations).
	e.steps++
	e.parallelAccumulate()
	for i := 0; i < e.n; i++ {
		if !e.recomputed[i] {
			continue
		}
		e.y[i], e.nextY[i] = e.nextY[i], e.y[i]
		e.g[i], e.nextG[i] = e.nextG[i], e.g[i]
		e.count[i], e.nextC[i] = e.nextC[i], e.count[i]
	}

	// Phase 3: convergence flags (same revocable protocol as the scalar
	// engine; see Engine.Step) under the paper's rule (7): an L1 budget of
	// N·ξ over the N subject slots.
	nxi := float64(e.n) * e.cfg.Epsilon
	for i := 0; i < e.n; i++ {
		heard := e.extRecv[i] >= 1 || e.selfConv[i] || e.stopped[i]
		conv := e.hasWeight[i] && heard && e.l1[i] <= nxi && e.steps >= e.cfg.MinSteps
		if conv != e.selfConv[i] {
			e.selfConv[i] = conv
			e.msgs.Announce += g.Degree(i)
		}
	}
	running := false
	for i := 0; i < e.n; i++ {
		e.stopped[i] = (e.selfConv[i] || g.Degree(i) == 0) && allConverged(e.selfConv, g.Neighbors(i))
		if !e.stopped[i] {
			running = true
		}
	}
	return running
}

// accumulate rebuilds destination i's next-step row from its routed shares:
// the first share initialises the row (no zeroing pass), the others
// accumulate, the three masses together per share, and the ratio/L1
// convergence scan runs as its own pass (counts take no part in
// convergence).
func (e *VectorEngine) accumulate(i int) {
	pushes := e.incoming[i]
	if len(pushes) == 1 && pushes[0].src == i && pushes[0].f == 1 {
		// Untouched row: the node kept its entire mass and received
		// nothing, so y/g/count are bit-identical to last step, every
		// ratio matches prevR exactly, and the L1 delta is exactly the
		// zero a full recompute would produce. hasWeight keeps its last
		// computed value for the same reason.
		e.l1[i] = 0
		e.recomputed[i] = false
		return
	}
	e.recomputed[i] = true
	yi, gi, ci := e.nextY[i], e.nextG[i], e.nextC[i]
	p := pushes[0]
	mulRow3(yi, gi, ci, e.y[p.src], e.g[p.src], e.count[p.src], p.f)
	for _, p := range pushes[1:] {
		mulAddRow3(yi, gi, ci, e.y[p.src], e.g[p.src], e.count[p.src], p.f)
	}
	e.l1[i], e.hasWeight[i] = scanRow(yi, gi, e.prevR[i])
}

// parallelAccumulate fans accumulate(i) out across the configured worker
// count. Ranges are spawned as plain method goroutines (no closures), so the
// parallel path stays allocation-free once the runtime has warmed its
// goroutine pool.
func (e *VectorEngine) parallelAccumulate() {
	workers := e.cfg.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 || e.n < 2*workers {
		e.accumulateRange(0, e.n)
		return
	}
	chunk := (e.n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > e.n {
			hi = e.n
		}
		if lo >= hi {
			break
		}
		e.wg.Add(1)
		go e.accumulateRangeDone(lo, hi)
	}
	e.wg.Wait()
}

func (e *VectorEngine) accumulateRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		e.accumulate(i)
	}
}

func (e *VectorEngine) accumulateRangeDone(lo, hi int) {
	defer e.wg.Done()
	e.accumulateRange(lo, hi)
}

// Run drives Step to completion.
func (e *VectorEngine) Run() VectorResult {
	budget := e.cfg.maxSteps()
	running := true
	for running && e.steps < budget {
		running = e.Step()
	}
	res := VectorResult{
		Steps:     e.steps,
		Converged: !running,
		Estimates: alloc(e.n),
		Counts:    alloc(e.n),
		Messages:  e.msgs,
	}
	for i := 0; i < e.n; i++ {
		for j := 0; j < e.n; j++ {
			if e.g[i][j] > 0 {
				res.Estimates[i][j] = e.y[i][j] / e.g[i][j]
				res.Counts[i][j] = e.count[i][j] / e.g[i][j]
			}
		}
	}
	return res
}

// allConverged reports whether every listed neighbour announced convergence.
func allConverged(conv []bool, nbrs []int) bool {
	for _, v := range nbrs {
		if !conv[v] {
			return false
		}
	}
	return true
}
