package gossip

import (
	"testing"

	"diffgossip/internal/graph"
	"diffgossip/internal/rng"
)

// The property tests drive the engines through randomized op sequences —
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
				for _, c := range e.count {
					count += c
				}
				if err := ledgerErr(count, e.baseCount+e.injectedCount-e.lostCount); err > 1e-9 {
					t.Fatalf("seed=%d round=%d: count mass drift %v", seed, r, err)
				}
			}
		}
	}
}

func TestVectorEngineMassConservationProperty(t *testing.T) {
	trials := 12
	rounds := 30
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		seed := uint64(0x5A5A + 1237*trial)
		src := rng.New(seed)
		n := 15 + src.Intn(20)
		g := graph.MustPA(n, 2, src.Uint64())
		y0 := make([][]float64, n)
		g0 := make([][]float64, n)
		stride := 1 + src.Intn(4) // exercises dense and sparse active sets
		for i := 0; i < n; i++ {
			y0[i] = make([]float64, n)
			g0[i] = make([]float64, n)
		}
		for j := 0; j < n; j += stride {
			for i := 0; i < n; i++ {
				y0[i][j] = src.Float64()
				g0[i][j] = 1
			}
		}
		e, err := NewVectorEngine(Config{
			Graph:    g,
			Epsilon:  1e-4,
			Seed:     src.Uint64(),
			LossProb: 0.3 * src.Float64(),
		}, y0, g0)
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		check := func(r int) {
			for j := 0; j < e.N(); j++ {
				base, inj, lost := e.MassLedger(j)
				if err := ledgerErr(e.MassY(j), base.Y+inj.Y-lost.Y); err > 1e-9 {
					t.Fatalf("seed=%d round=%d subject=%d: Y mass drift %v", seed, r, j, err)
				}
				if err := ledgerErr(e.MassG(j), base.G+inj.G-lost.G); err > 1e-9 {
					t.Fatalf("seed=%d round=%d subject=%d: G mass drift %v", seed, r, j, err)
				}
			}
		}
		for r := 0; r < rounds; r++ {
			e.Step()
			check(r)
			switch src.Intn(6) {
			case 0:
				// crash a random alive node (keep at least two alive)
				alive := make([]int, 0, e.N())
				for i := 0; i < e.N(); i++ {
					if !e.Down(i) {
						alive = append(alive, i)
					}
				}
				if len(alive) > 2 {
					i := alive[src.Intn(len(alive))]
					if err := e.Crash(i); err != nil {
						t.Fatalf("seed=%d crash: %v", seed, err)
					}
				}
			case 1:
				alive := make([]int, 0, e.N())
				for i := 0; i < e.N(); i++ {
					if !e.Down(i) {
						alive = append(alive, i)
					}
				}
				if len(alive) > 2 {
					i := alive[src.Intn(len(alive))]
					if err := e.Leave(i); err != nil {
						t.Fatalf("seed=%d leave: %v", seed, err)
					}
				}
			case 2:
				for i := 0; i < e.N(); i++ {
					if e.Down(i) {
						y := make([]float64, e.N())
						gw := make([]float64, e.N())
						for _, nb := range g.Neighbors(i) {
							y[nb] = src.Float64()
							gw[nb] = 1
						}
						if err := e.Rejoin(i, y, gw); err != nil {
							t.Fatalf("seed=%d rejoin(%d): %v", seed, i, err)
						}
						break
					}
				}
			case 3:
				id := graph.AttachPreferential(g, 2, src, func(v int) bool { return !e.Down(v) })
				y := make([]float64, e.N()+1)
				gw := make([]float64, e.N()+1)
				for _, nb := range g.Neighbors(id) {
					y[nb] = src.Float64()
					gw[nb] = 1
				}
				if _, err := e.AddNode(y, gw); err != nil {
					t.Fatalf("seed=%d join: %v", seed, err)
				}
			case 4:
				if err := e.SetLossProb(0.4 * src.Float64()); err != nil {
					t.Fatalf("seed=%d setloss: %v", seed, err)
				}
			default:
			}
			check(r)
		}
	}
}
