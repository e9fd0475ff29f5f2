package core

import (
	"math"
	"sort"

	"diffgossip/internal/gossip"
	"diffgossip/internal/trust"
)

// warmMinSteps is the convergence floor for warm-started campaigns. A warm
// restart injects the feedback delta at the changed raters, and a node's own
// ratio is invariant under pushing — without a floor the injected node could
// announce convergence on step one, before its delta has mixed anywhere. A
// few forced rounds give the delta wave time to spread; the revocable
// convergence protocol handles the rest.
const warmMinSteps = 4

// seedScratch is a worker's reusable (y0, g0) seed block for dense
// campaigns. Instead of zeroing all N slots before every campaign, it tracks
// which slots the previous seed dirtied and scrubs exactly those — so
// seeding a k-rater campaign costs O(k), not O(N). A warm seed overwrites
// the whole block and marks it fully dirty.
type seedScratch struct {
	y, g    []float64
	touched []int
	full    bool
}

func newSeedScratch(n int) *seedScratch {
	return &seedScratch{y: make([]float64, n), g: make([]float64, n)}
}

// scrub zeroes the slots the previous seed dirtied.
func (s *seedScratch) scrub() {
	if s.full {
		clear(s.y)
		clear(s.g)
		s.full = false
	} else {
		for _, i := range s.touched {
			s.y[i] = 0
			s.g[i] = 0
		}
	}
	s.touched = s.touched[:0]
}

// seedCold scatters a from-scratch campaign seed: value mass at each rater,
// unit weight, zeros elsewhere.
func (s *seedScratch) seedCold(ids []int, vals []float64) {
	s.scrub()
	for k, i := range ids {
		s.y[i] = vals[k]
		s.g[i] = 1
	}
	s.touched = append(s.touched, ids...)
}

// seedWarm loads a dense recorded state and injects the trust-column delta:
// existing raters contribute their value change, new raters add fresh value
// and weight mass. Mass totals then equal exactly what a cold seed of the
// new column would carry, so the restarted campaign shares its fixed point.
// It reports false — without touching the scratch — when the state is not
// mergeable (a recorded rater no longer rates the subject: removed weight
// mass cannot be clawed back out of a mixed-in state).
func (s *seedScratch) seedWarm(ws *gossip.CampaignState, ids []int, vals []float64) bool {
	if !subsetOf(ws.Raters, ids) {
		return false
	}
	copy(s.y, ws.Y)
	copy(s.g, ws.G)
	o := 0
	for k, i := range ids {
		if o < len(ws.Raters) && ws.Raters[o] == i {
			s.y[i] += vals[k] - ws.PrevVals[o]
			o++
		} else {
			s.y[i] += vals[k]
			s.g[i] += 1
		}
	}
	s.touched = s.touched[:0]
	s.full = true
	return true
}

// subsetOf reports whether every element of sub appears in sup; both must be
// strictly ascending.
func subsetOf(sub, sup []int) bool {
	o := 0
	for _, v := range sup {
		if o < len(sub) && sub[o] == v {
			o++
		}
	}
	return o == len(sub)
}

// sameIDs reports whether a and b hold identical id sequences.
func sameIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// sameVals reports whether a and b hold bit-identical value sequences. An
// unchanged campaign — same raters, same values — needs no recompute at all:
// its fixed point is the one the recorded state already reached.
func sameVals(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// stateEstimate reproduces node i's estimate straight from a campaign's
// persisted state, bit-identically to what the recording run published: the
// engine's estimate is y/g where the weight slot is non-empty and zero where
// it is, and under a sparse campaign every node reads overlay node 0's.
func stateEstimate(ws *gossip.CampaignState, i int) float64 {
	if ws.Sparse {
		i = 0
	}
	if ws.G[i] > 0 {
		return ws.Y[i] / ws.G[i]
	}
	return 0
}

// stateColumn is stateEstimate for every node of a result column.
func stateColumn(ws *gossip.CampaignState, col []float64) {
	if ws.Sparse {
		fill(col, stateEstimate(ws, 0))
		return
	}
	for i := range col {
		col[i] = stateEstimate(ws, i)
	}
}

// fill broadcasts v to every slot of col.
func fill(col []float64, v float64) {
	for i := range col {
		col[i] = v
	}
}

// captureState snapshots a finished campaign's masses and the column it
// folded, for persisting as next epoch's warm seed.
func captureState(eng *gossip.Engine, sparse bool, ids []int, vals []float64, steps int, conv bool) *gossip.CampaignState {
	st := &gossip.CampaignState{
		Sparse:    sparse,
		Raters:    append([]int(nil), ids...),
		PrevVals:  append([]float64(nil), vals...),
		Y:         make([]float64, eng.N()),
		G:         make([]float64, eng.N()),
		Steps:     steps,
		Converged: conv,
	}
	eng.ExportState(st.Y, st.G)
	return st
}

// scheduleOrder returns the order workers pull campaigns in:
// longest-estimated-first, so the one straggler that dominates an epoch's
// critical path starts immediately instead of last. The estimate multiplies
// the campaign's per-step cost (overlay size for sparse campaigns, N for
// dense ones) by an expected step count — a handful of steps when a usable
// warm state is on record, the log²-shaped budget otherwise. Results are
// identical for any order; only the wall-clock changes.
func scheduleOrder(t trust.Reader, subjects []int, p Params, n, sparseMax, workers int) []int {
	order := make([]int, len(subjects))
	for i := range order {
		order[i] = i
	}
	if workers <= 1 || len(subjects) < 2 {
		return order
	}
	cost := make([]float64, len(subjects))
	for i, j := range subjects {
		_, k := t.ColumnSum(j)
		if k == 0 {
			continue
		}
		size := n
		sparse := sparseMax > 0 && k <= sparseMax
		if sparse {
			size = k
		}
		if size == 1 {
			cost[i] = 1
			continue
		}
		l := math.Log2(float64(size) + 1)
		est := l*l + 1
		if p.Warm != nil {
			if ws := p.Warm(j); ws != nil && ws.Sparse == sparse && len(ws.Raters) == k {
				est = warmMinSteps + 2
			}
		}
		cost[i] = est * float64(size)
	}
	sort.Slice(order, func(a, b int) bool {
		if cost[order[a]] != cost[order[b]] {
			return cost[order[a]] > cost[order[b]]
		}
		return order[a] < order[b]
	})
	return order
}
