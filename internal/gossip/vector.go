package gossip

import (
	"fmt"
	"runtime"
	"sync"

	"diffgossip/internal/rng"
)

// VectorEngine runs the paper's third/fourth algorithm variants: every node
// gossips a full vector of (Y, G) pairs — one slot per subject node — so the
// reputations of all N nodes aggregate simultaneously. A node id travels with
// each pair implicitly via the slot index. An optional Count vector carries
// Algorithm 2's rater-count mass.
//
// Convergence uses the paper's rule (7): node i announces convergence when
//
//	Σ_j |r_ij(n) − r_ij(n−1)| ≤ N·ξ
//
// after hearing from at least one other node, and stops once it and all its
// neighbours have announced.
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
// Sparse trust workloads are handled by an active-subject index: a column
// nobody rated (no initial weight mass anywhere) carries no campaign, cannot
// influence any estimate, and is skipped by the accumulation and the
// convergence scan alike.
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
	count [][]float64 // optional rater-count mass
	prevR [][]float64 // previous-step ratios

	selfConv []bool
	stopped  []bool

	// active[j] is true when some node started with weight mass for
	// subject j; only active subjects gate a node's convergence (a column
	// nobody rated carries no campaign and must not block termination).
	active []bool
	// activeIdx lists the active subjects in ascending order; the hot path
	// iterates it instead of all N columns when the workload is sparse.
	// denseActive short-circuits the indirection when every subject is
	// rated (the Fig3/Table2-class workloads).
	activeIdx   []int
	denseActive bool

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
	// perPushUnits scales the per-push message accounting: pushing an
	// N-slot vector costs N logical message units when
	// CountVectorMessages is set; 1 otherwise (one packet per push).
	perPushUnits int
}

// VectorResult is the outcome of a VectorEngine run. Estimates[i][j] is node
// i's estimate for subject j.
type VectorResult struct {
	Steps     int
	Converged bool
	Estimates [][]float64
	Counts    [][]float64
	Messages  Messages
}

// NewVectorEngine builds a vector gossip run from initial masses. y0 and g0
// must be N×N (row i = node i's initial vector).
func NewVectorEngine(cfg Config, y0, g0 [][]float64) (*VectorEngine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Graph.N()
	if len(y0) != n || len(g0) != n {
		return nil, fmt.Errorf("gossip: initial matrices have %d/%d rows, want %d", len(y0), len(g0), n)
	}
	y, err := deepCopy(y0, n)
	if err != nil {
		return nil, err
	}
	g, err := deepCopy(g0, n)
	if err != nil {
		return nil, err
	}
	e := &VectorEngine{
		cfg:          cfg,
		n:            n,
		ks:           cfg.fanouts(),
		src:          rng.New(cfg.Seed),
		y:            y,
		g:            g,
		prevR:        alloc(n),
		selfConv:     make([]bool, n),
		stopped:      make([]bool, n),
		nextY:        alloc(n),
		nextG:        alloc(n),
		extRecv:      make([]int, n),
		incoming:     make([][]push, n),
		l1:           make([]float64, n),
		hasWeight:    make([]bool, n),
		recomputed:   make([]bool, n),
		active:       make([]bool, n),
		perPushUnits: 1,
	}
	for i := 0; i < n; i++ {
		// A node can receive at most one share from each neighbour, one
		// self share, and k_i loss-returned shares per step, so
		// per-destination push lists are sized once, up front — Step never
		// grows them.
		e.incoming[i] = make([]push, 0, 1+e.ks[i]+cfg.Graph.Degree(i))
		// Construction-time degree exchange: every node announces its
		// degree to each neighbour before the first round.
		e.msgs.Setup += cfg.Graph.Degree(i)
		for s := 0; s < n; s++ {
			if g[i][s] < 0 {
				return nil, fmt.Errorf("gossip: negative initial weight g0[%d][%d]", i, s)
			}
			if g[i][s] > 0 {
				e.active[s] = true
			}
			e.prevR[i][s] = ratioOr(y[i][s], g[i][s])
		}
	}
	for s, a := range e.active {
		if a {
			e.activeIdx = append(e.activeIdx, s)
		}
	}
	e.denseActive = len(e.activeIdx) == n
	// Sparse mode never rewrites inactive columns, so pin them to their
	// initial values in both buffers: rows then carry identical bits for
	// those subjects whichever buffer is current, and the MassY invariant
	// holds for unrated subjects too (their mass simply never moves).
	if !e.denseActive {
		for i := 0; i < n; i++ {
			for s, a := range e.active {
				if !a {
					e.nextY[i][s] = y[i][s]
					e.nextG[i][s] = g[i][s]
				}
			}
		}
	}
	// Seed hasWeight so rows that stay untouched from step one (isolated
	// nodes) report the same flag the full scan would compute.
	for i := 0; i < n; i++ {
		hw := true
		for _, s := range e.activeIdx {
			if g[i][s] == 0 {
				hw = false
				break
			}
		}
		e.hasWeight[i] = hw
	}
	return e, nil
}

// deepCopy copies an N×N matrix into a single contiguous backing block and
// returns its row views. Ragged input rows are reported as an error, matching
// the validation style of the rest of the constructor.
func deepCopy(m [][]float64, n int) ([][]float64, error) {
	out := alloc(n)
	for i := range out {
		if len(m[i]) != n {
			return nil, fmt.Errorf("gossip: row %d has length %d, want %d", i, len(m[i]), n)
		}
		copy(out[i], m[i])
	}
	return out, nil
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

func ratioOr(y, g float64) float64 {
	if g == 0 {
		return Sentinel
	}
	return y / g
}

// EnableCountGossip attaches the rater-count component (N×N row per node).
func (e *VectorEngine) EnableCountGossip(count0 [][]float64) error {
	if len(count0) != e.n {
		return fmt.Errorf("gossip: count matrix has %d rows, want %d", len(count0), e.n)
	}
	if e.steps > 0 {
		return fmt.Errorf("gossip: EnableCountGossip after stepping")
	}
	count, err := deepCopy(count0, e.n)
	if err != nil {
		return err
	}
	e.count = count
	e.nextC = alloc(e.n)
	if !e.denseActive {
		for i := 0; i < e.n; i++ {
			for j, a := range e.active {
				if !a {
					e.nextC[i][j] = e.count[i][j]
				}
			}
		}
	}
	return nil
}

// CountVectorMessages makes the message tally charge N units per vector push
// instead of 1, reflecting the paper's note that communication complexity of
// the vector variants grows proportionally to the vector size.
func (e *VectorEngine) CountVectorMessages() { e.perPushUnits = e.n }

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
			e.msgs.Gossip += e.perPushUnits
			// A lost push gets no ack, so the sender re-absorbs the share.
			if e.cfg.LossProb > 0 && e.src.Bool(e.cfg.LossProb) {
				e.msgs.Lost += e.perPushUnits
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
		if e.nextC != nil {
			e.count[i], e.nextC[i] = e.nextC[i], e.count[i]
		}
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

// accumulate rebuilds destination i's next-step row from its routed shares
// and runs the ratio/L1 convergence scan over the active subjects, all in one
// sweep: the first share initialises the row (no zeroing pass), middle shares
// accumulate, and the scan rides the final share. With counts enabled the
// three masses accumulate together per share and the scan runs as its own
// pass (counts take no part in convergence).
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
	yi, gi := e.nextY[i], e.nextG[i]
	pr := e.prevR[i]
	last := len(pushes) - 1
	if e.nextC != nil {
		ci := e.nextC[i]
		p := pushes[0]
		if e.denseActive {
			mulRow3(yi, gi, ci, e.y[p.src], e.g[p.src], e.count[p.src], p.f)
			for _, p := range pushes[1:] {
				mulAddRow3(yi, gi, ci, e.y[p.src], e.g[p.src], e.count[p.src], p.f)
			}
			e.l1[i], e.hasWeight[i] = scanRow(yi, gi, pr)
		} else {
			idx := e.activeIdx
			mulAt3(yi, gi, ci, e.y[p.src], e.g[p.src], e.count[p.src], p.f, idx)
			for _, p := range pushes[1:] {
				mulAddAt3(yi, gi, ci, e.y[p.src], e.g[p.src], e.count[p.src], p.f, idx)
			}
			e.l1[i], e.hasWeight[i] = scanAt(yi, gi, pr, idx)
		}
		return
	}
	if e.denseActive {
		p := pushes[0]
		switch last {
		case 0:
			e.l1[i], e.hasWeight[i] = mulScanRow(yi, gi, e.y[p.src], e.g[p.src], p.f, pr)
		case 1:
			// Self share plus exactly one received share — the most
			// common shape — collapses to a single sweep.
			q := pushes[1]
			e.l1[i], e.hasWeight[i] = mul2ScanRow(yi, gi,
				e.y[p.src], e.g[p.src], p.f, e.y[q.src], e.g[q.src], q.f, pr)
		default:
			mulRow2(yi, gi, e.y[p.src], e.g[p.src], p.f)
			for _, p := range pushes[1:last] {
				mulAddRow2(yi, gi, e.y[p.src], e.g[p.src], p.f)
			}
			p = pushes[last]
			e.l1[i], e.hasWeight[i] = mulAddScanRow(yi, gi, e.y[p.src], e.g[p.src], p.f, pr)
		}
		return
	}
	idx := e.activeIdx
	p := pushes[0]
	switch last {
	case 0:
		e.l1[i], e.hasWeight[i] = mulScanAt(yi, gi, e.y[p.src], e.g[p.src], p.f, pr, idx)
	case 1:
		q := pushes[1]
		e.l1[i], e.hasWeight[i] = mul2ScanAt(yi, gi,
			e.y[p.src], e.g[p.src], p.f, e.y[q.src], e.g[q.src], q.f, pr, idx)
	default:
		mulAt2(yi, gi, e.y[p.src], e.g[p.src], p.f, idx)
		for _, p := range pushes[1:last] {
			mulAddAt2(yi, gi, e.y[p.src], e.g[p.src], p.f, idx)
		}
		p = pushes[last]
		e.l1[i], e.hasWeight[i] = mulAddScanAt(yi, gi, e.y[p.src], e.g[p.src], p.f, pr, idx)
	}
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
		Messages:  e.msgs,
	}
	for i := 0; i < e.n; i++ {
		for j := 0; j < e.n; j++ {
			if e.g[i][j] > 0 {
				res.Estimates[i][j] = e.y[i][j] / e.g[i][j]
			}
		}
	}
	if e.count != nil {
		res.Counts = alloc(e.n)
		for i := 0; i < e.n; i++ {
			for j := 0; j < e.n; j++ {
				if e.g[i][j] > 0 {
					res.Counts[i][j] = e.count[i][j] / e.g[i][j]
				}
			}
		}
	}
	return res
}

// Steps returns the number of gossip steps executed so far.
func (e *VectorEngine) Steps() int { return e.steps }

// allConverged reports whether every listed neighbour announced convergence.
func allConverged(conv []bool, nbrs []int) bool {
	for _, v := range nbrs {
		if !conv[v] {
			return false
		}
	}
	return true
}
