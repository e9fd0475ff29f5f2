package gossip

import (
	"testing"

	"diffgossip/internal/graph"
	"diffgossip/internal/rng"
)

// The property tests drive the scalar engine through randomized op sequences —
// steps interleaved with crashes, graceful leaves, whitewashing rejoins,
// preferential-attachment joins, loss-probability changes and link-fault
// toggles — and check the push-sum conservation invariant after every
// single round: total mass equals base + injected − lost (the churn
// ledgers), for the value, weight and (when enabled) rater-count masses.
// Every trial derives from a logged seed, so a failure reproduces exactly.

// scalarOps applies one randomized churn op to e, returning false if the op
// was a no-op this round.
func scalarOps(t *testing.T, e *Engine, g *graph.Graph, src *rng.Source, seed uint64) {
	t.Helper()
	pickAliveNode := func() int {
		alive := make([]int, 0, e.N())
		for i := 0; i < e.N(); i++ {
			if !e.Down(i) {
				alive = append(alive, i)
			}
		}
		if len(alive) < 2 {
			return -1
		}
		return alive[src.Intn(len(alive))]
	}
	pickDownNode := func() int {
		downs := make([]int, 0, 8)
		for i := 0; i < e.N(); i++ {
			if e.Down(i) {
				downs = append(downs, i)
			}
		}
		if len(downs) == 0 {
			return -1
		}
		return downs[src.Intn(len(downs))]
	}
	switch src.Intn(8) {
	case 0: // crash
		if i := pickAliveNode(); i >= 0 {
			if err := e.Crash(i); err != nil {
				t.Fatalf("seed=%d crash(%d): %v", seed, i, err)
			}
		}
	case 1: // graceful leave
		if i := pickAliveNode(); i >= 0 {
			if err := e.Leave(i); err != nil {
				t.Fatalf("seed=%d leave(%d): %v", seed, i, err)
			}
		}
	case 2: // whitewash rejoin
		if i := pickDownNode(); i >= 0 {
			if err := e.Rejoin(i, src.Float64(), 1); err != nil {
				t.Fatalf("seed=%d rejoin(%d): %v", seed, i, err)
			}
		}
	case 3: // preferential-attachment join
		id := graph.AttachPreferential(g, 2, src, func(v int) bool { return !e.Down(v) })
		if _, err := e.AddNode(src.Float64(), 1); err != nil {
			t.Fatalf("seed=%d join(%d): %v", seed, id, err)
		}
		e.RefreshFanouts()
	case 4: // loss schedule change
		if err := e.SetLossProb(0.4 * src.Float64()); err != nil {
			t.Fatalf("seed=%d setloss: %v", seed, err)
		}
	case 5: // link-fault toggle (random even/odd partition)
		if src.Bool(0.5) {
			e.SetLinkFault(func(from, to int) bool { return from%2 != to%2 })
		} else {
			e.SetLinkFault(nil)
		}
	case 6: // collusion-style override
		if i := pickAliveNode(); i >= 0 {
			p := e.Held(i)
			if err := e.Override(i, p.G, p.G); err != nil {
				t.Fatalf("seed=%d override(%d): %v", seed, i, err)
			}
		}
	default: // plain round, no churn
	}
}

func TestEngineMassConservationProperty(t *testing.T) {
	trials := 25
	rounds := 60
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		seed := uint64(0xA5A5 + 977*trial)
		src := rng.New(seed)
		n := 20 + src.Intn(60)
		g := graph.MustPA(n, 1+src.Intn(2), src.Uint64())
		y0 := make([]float64, n)
		g0 := make([]float64, n)
		count0 := make([]float64, n)
		for i := range y0 {
			y0[i] = src.Float64()
			g0[i] = 1
			if src.Bool(0.3) {
				count0[i] = 1
			}
		}
		e, err := NewEngine(Config{
			Graph:    g,
			Epsilon:  1e-4,
			Seed:     src.Uint64(),
			LossProb: 0.3 * src.Float64(),
		}, y0, g0)
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		withCount := src.Bool(0.5)
		if withCount {
			if err := e.EnableCountGossip(count0); err != nil {
				t.Fatalf("seed=%d: %v", seed, err)
			}
		}
		for r := 0; r < rounds; r++ {
			scalarOps(t, e, g, src, seed)
			e.Step()
			base, inj, lost := e.MassLedger()
			if err := ledgerErr(e.MassY(), base.Y+inj.Y-lost.Y); err > 1e-9 {
				t.Fatalf("seed=%d round=%d: Y mass drift %v", seed, r, err)
			}
			if err := ledgerErr(e.MassG(), base.G+inj.G-lost.G); err > 1e-9 {
				t.Fatalf("seed=%d round=%d: G mass drift %v", seed, r, err)
			}
			if withCount {
				count := 0.0
				for _, c := range e.counts() {
					count += c
				}
				if err := ledgerErr(count, e.baseCount+e.injectedCount-e.lostCount); err > 1e-9 {
					t.Fatalf("seed=%d round=%d: count mass drift %v", seed, r, err)
				}
			}
		}
	}
}
