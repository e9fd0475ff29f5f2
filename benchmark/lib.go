package main

import (
	"math"
	"time"

	"diffgossip"
	"diffgossip/internal/core"
	"diffgossip/internal/graph"
	"diffgossip/internal/rng"
)

// libSizes sizes lib-aggregate. The fixture holds the paper's largest
// network, 50,000 nodes with 24 rated subjects, but one campaign on it takes
// 0.5–1.2 s and its step count moves ±15 % with the seed, which no 10 % bound
// survives; so the timed round runs many campaigns on a 5,000-node overlay,
// whose summed cost is steady across seeds, and the 50,000-node calls are
// rungs of the traced ladder.
type libSizes struct {
	n, subjects, raters                   int // single-subject calls
	blockN, blockRaters, blockLen, blocks int // dense vector engine
	rounds                                int // rounds per segment
	paperN, paperSubjects, paperRaters    int // the paper-scale network
}

var (
	libFull  = libSizes{5000, 10, 500, 1000, 48, 25, 4, 2, 50000, 24, 5000}
	libSmoke = libSizes{200, 3, 40, 120, 12, 10, 2, 1, 400, 3, 60}
)

// gclrObservers are the nodes whose personalised Alg. 2 estimate is checked
// against the exact eq. 6 value.
var gclrObservers = []int{0, 1, 17}

// libWorkload is the paper's own experiment through the public library API.
// One round = AggregateGlobal (Alg. 1) and AggregateGCLR (Alg. 2) for each
// subject on the big overlay, then AggregateGlobalSubjects on each block of
// the small overlay (dense vector engine). Every call is a slice of its own
// and an item of its own: the same call on the same inputs recurs in every
// round. The primary operation is one Alg. 2 aggregation, the paper's
// contribution; work is counted in aggregation calls.
type libWorkload struct {
	sz        libSizes
	g, bg, pg *diffgossip.Graph // timed overlay, block overlay, paper-scale overlay
	t, bt, pt *diffgossip.TrustMatrix
	p         diffgossip.Params
	blocks    [][]int

	wantGlobal []float64   // GlobalReference per subject
	wantGCLR   [][]float64 // GCLRReference per subject, per observer
	wantBlock  [][]float64 // GlobalReference per block subject

	roundSteps float64 // Σ steps of one round
}

func (w *libWorkload) setup(rc *runCtx) error {
	w.sz = libFull
	if rc.smoke {
		w.sz = libSmoke
	}
	sz := w.sz
	w.p = diffgossip.Params{Epsilon: 1e-4, Workers: -1, Seed: subSeed(rc.seed, "lib-engine", 0)}
	var err error
	if w.g, err = diffgossip.NewPANetwork(sz.n, 2, subSeed(rc.seed, "lib-graph", 0)); err != nil {
		return err
	}
	if w.bg, err = diffgossip.NewPANetwork(sz.blockN, 2, subSeed(rc.seed, "lib-block-graph", 0)); err != nil {
		return err
	}
	if w.pg, err = diffgossip.NewPANetwork(sz.paperN, 2, subSeed(rc.seed, "lib-paper-graph", 0)); err != nil {
		return err
	}
	w.pt = diffgossip.NewTrustMatrix(sz.paperN)
	src := rng.New(subSeed(rc.seed, "lib-paper-ratings", 0))
	for j := 0; j < sz.paperSubjects; j++ {
		for _, r := range src.Sample(sz.paperN, sz.paperRaters) {
			if err := w.pt.Set(r, j, src.Float64()); err != nil {
				return err
			}
		}
	}
	w.t = diffgossip.NewTrustMatrix(sz.n)
	src = rng.New(subSeed(rc.seed, "lib-ratings", 0))
	for j := 0; j < sz.subjects; j++ {
		for _, r := range src.Sample(sz.n, sz.raters) {
			if err := w.t.Set(r, j, src.Float64()); err != nil {
				return err
			}
		}
	}
	w.bt = diffgossip.NewTrustMatrix(sz.blockN)
	w.blocks = make([][]int, sz.blocks)
	for b := range w.blocks {
		for k := 0; k < sz.blockLen; k++ {
			j := b*sz.blockLen + k
			w.blocks[b] = append(w.blocks[b], j)
			for _, r := range src.Sample(sz.blockN, sz.blockRaters) {
				if err := w.bt.Set(r, j, src.Float64()); err != nil {
					return err
				}
			}
		}
	}
	// Expected outputs are part of the fixture: exact fixed points,
	// evaluated centrally.
	w.wantGlobal = make([]float64, sz.subjects)
	w.wantGCLR = make([][]float64, sz.subjects)
	for j := 0; j < sz.subjects; j++ {
		w.wantGlobal[j] = diffgossip.GlobalReference(w.t, j)
		for _, o := range gclrObservers {
			w.wantGCLR[j] = append(w.wantGCLR[j], diffgossip.GCLRReference(w.g, w.t, o, j, w.p))
		}
	}
	w.wantBlock = make([][]float64, sz.blocks)
	for b, block := range w.blocks {
		for _, j := range block {
			w.wantBlock[b] = append(w.wantBlock[b], diffgossip.GlobalReference(w.bt, j))
		}
	}
	return nil
}

func (w *libWorkload) segment(rc *runCtx, idx int) ([]slice, error) {
	var slices []slice
	traced := rc.tr.active()
	for round := 0; round < w.sz.rounds; round++ {
		steps := 0
		for j := 0; j < w.sz.subjects; j++ {
			t0 := time.Now()
			glob, err := diffgossip.AggregateGlobal(w.g, w.t, j, w.p)
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			gclr, err := diffgossip.AggregateGCLR(w.g, w.t, j, w.p)
			if err != nil {
				return nil, err
			}
			t2 := time.Now()
			slices = append(slices,
				slice{item: 2 * j, units: 1, elapsed: t1.Sub(t0)},
				slice{item: 2*j + 1, units: 1, elapsed: t2.Sub(t1), opMs: t2.Sub(t1).Seconds() * 1e3})
			if traced {
				rc.tr.record("lib.global", idx, rc.segSpan, t0, t1)
				rc.tr.record("lib.gclr", idx, rc.segSpan, t1, t2)
			}
			rc.attempted += 2
			steps += glob.Steps + gclr.Steps
			if !glob.Converged {
				rc.fail("Alg. 1 subject %d did not converge in %d steps", j, glob.Steps)
			}
			if !gclr.Converged {
				rc.fail("Alg. 2 subject %d did not converge in %d steps", j, gclr.Steps)
			}
			rc.within(glob.PerNode[0], w.wantGlobal[j], epsTol, "Alg. 1 subject %d at root", j)
			for k, o := range gclrObservers {
				rc.within(gclr.PerNode[o], w.wantGCLR[j][k], epsTol, "Alg. 2 subject %d at observer %d", j, o)
			}
		}
		for b, block := range w.blocks {
			t0 := time.Now()
			res, err := diffgossip.AggregateGlobalSubjects(w.bg, w.bt, block, w.p)
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			slices = append(slices, slice{item: 2*w.sz.subjects + b, units: 1, elapsed: t1.Sub(t0)})
			if traced {
				rc.tr.record("lib.block", idx, rc.segSpan, t0, t1)
			}
			rc.attempted++
			steps += res.TotalSteps
			if !res.Converged {
				rc.fail("block %d did not converge", b)
			}
			for k, j := range block {
				rc.within(res.Columns[k][0], w.wantBlock[b][k], epsTol, "block subject %d at root", j)
			}
		}
		w.roundSteps = float64(steps)
	}
	return slices, nil
}

// check has nothing left to do: every call's output is checked against its
// exact fixed point in the segment that made it.
func (w *libWorkload) check(rc *runCtx) error { return nil }

func (w *libWorkload) counts() map[string]float64 {
	return map[string]float64{"gossip.steps_total": w.roundSteps}
}

// layers times the paper-scale rungs directly in internal/graph and
// internal/core, on the fixture's own 50,000-node network, and derives the
// per-step costs from the result structs.
func (w *libWorkload) layers(rc *runCtx, m map[string]float64) error {
	sz := w.sz
	cfg := graph.PAConfig{N: sz.paperN, M: 2, Seed: subSeed(rc.seed, "lib-paper-graph", 0)}
	build := math.Inf(1)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := graph.PreferentialAttachment(cfg); err != nil {
			return err
		}
		build = math.Min(build, time.Since(t0).Seconds()*1e3)
	}
	m["graph.pa_build.ms"] = build

	g, t := w.pg, w.pt
	p := core.Params{Epsilon: 1e-4, Workers: -1, Seed: subSeed(rc.seed, "ladder-engine", 0)}
	globMs, gclrMs := math.Inf(1), math.Inf(1)
	var glob, gclr *core.SingleResult
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		var err error
		if glob, err = core.GlobalSingle(g, t, 0, p); err != nil {
			return err
		}
		t1 := time.Now()
		if gclr, err = core.GCLRSingle(g, t, 0, p); err != nil {
			return err
		}
		globMs = math.Min(globMs, t1.Sub(t0).Seconds()*1e3)
		gclrMs = math.Min(gclrMs, time.Since(t1).Seconds()*1e3)
	}
	if !glob.Converged || !gclr.Converged {
		rc.fail("50k-rung campaign did not converge")
	}
	rc.within(glob.PerNode[0], core.GlobalRef(t, 0), epsTol, "ladder Alg. 1 at root")
	m["core.global_single.ms"] = globMs
	m["core.gclr_single.ms"] = gclrMs
	m["gossip.scalar.ns_per_node_step"] = (globMs + gclrMs) * 1e6 / (float64(sz.paperN) * float64(glob.Steps+gclr.Steps))
	m["gossip.msgs_per_node_step"] = glob.Messages.PerNodePerStep(sz.paperN, glob.Steps)

	// The dense-engine rung is the workload's own block call; its spans
	// already time AggregateGlobalSubjects, a one-line wrapper of
	// core.GlobalSubjects. One more call gives the step count.
	blockMs := median(rc.tr.durationsMs("lib.block"))
	res, err := core.GlobalSubjects(w.bg, w.bt, w.blocks[0], w.p)
	if err != nil {
		return err
	}
	m["core.global_subjects_dense.ms"] = blockMs
	m["gossip.vector.ns_per_node_step_subject"] = blockMs * 1e6 / (float64(sz.blockN) * float64(res.TotalSteps))
	return nil
}

func (w *libWorkload) close() {}
