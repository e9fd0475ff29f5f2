// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus ablations on the design choices DESIGN.md calls out. Each benchmark
// reports the experiment's headline quantity as a custom metric (steps,
// messages per node per step, or RMS error) alongside the usual ns/op, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's numbers and their costs in one run. The large-N
// sweeps (N = 10,000 and 50,000 of Figure 3 / Table 2) are exercised at
// reduced sizes here to keep the suite fast; cmd/dgsim runs the full sweeps.
package diffgossip_test

import (
	"testing"

	"diffgossip/internal/gossip"
	"diffgossip/internal/graph"
	"diffgossip/internal/rng"
	"diffgossip/internal/sim"
)

// BenchmarkTable1 regenerates the §4.2 worked example (10-node network,
// 8 iterations).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := sim.RunTable1(sim.Table1Config{Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Values) != 8 {
			b.Fatal("wrong iteration count")
		}
	}
}

// BenchmarkTable2 regenerates the message-overhead table; the benchmark
// metric msgs/node/step is the paper's reported quantity.
func BenchmarkTable2(b *testing.B) {
	for _, n := range []int{100, 500, 1000, 10000} {
		b.Run(byN(n), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				rows, err := sim.RunTable2(sim.Table2Config{
					Sizes:    []int{n},
					Epsilons: []float64{1e-3},
					Seed:     42,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = rows[0].MessagesPerStep
			}
			b.ReportMetric(last, "msgs/node/step")
		})
	}
}

// BenchmarkFig3 regenerates the convergence-steps figure, differential vs
// normal push, reporting gossip steps as the metric.
func BenchmarkFig3(b *testing.B) {
	for _, proto := range []gossip.Protocol{gossip.DifferentialPush, gossip.NormalPush} {
		for _, n := range []int{100, 1000, 10000} {
			b.Run(proto.String()+"/"+byN(n), func(b *testing.B) {
				var steps float64
				for i := 0; i < b.N; i++ {
					rows, err := sim.RunFig3(sim.Fig3Config{
						Sizes:     []int{n},
						Epsilons:  []float64{1e-3},
						Protocols: []gossip.Protocol{proto},
						Seed:      42,
					})
					if err != nil {
						b.Fatal(err)
					}
					steps = rows[0].Steps
				}
				b.ReportMetric(steps, "steps")
			})
		}
	}
}

// BenchmarkFig4 regenerates the packet-loss figure at a reduced N, reporting
// steps under each loss probability.
func BenchmarkFig4(b *testing.B) {
	for _, loss := range []float64{0, 0.1, 0.2, 0.3} {
		b.Run(byLoss(loss), func(b *testing.B) {
			var steps float64
			for i := 0; i < b.N; i++ {
				rows, err := sim.RunFig4(sim.Fig4Config{
					N:         2000,
					Epsilons:  []float64{1e-3},
					LossProbs: []float64{loss},
					Seed:      42,
				})
				if err != nil {
					b.Fatal(err)
				}
				steps = rows[0].Steps
			}
			b.ReportMetric(steps, "steps")
		})
	}
}

// BenchmarkFig5 regenerates the group-collusion figure, reporting the average
// RMS error of eq. (18).
func BenchmarkFig5(b *testing.B) {
	for _, frac := range []float64{0.2, 0.5} {
		b.Run(byPct(frac), func(b *testing.B) {
			var rms float64
			for i := 0; i < b.N; i++ {
				rows, err := sim.RunCollusion(sim.CollusionConfig{
					N:          200,
					Fractions:  []float64{frac},
					GroupSizes: []int{5},
					Seed:       42,
				})
				if err != nil {
					b.Fatal(err)
				}
				rms = rows[0].AvgRMSErr
			}
			b.ReportMetric(rms, "avg-rms-err")
		})
	}
}

// BenchmarkFig6 is the individual-collusion variant (G = 1).
func BenchmarkFig6(b *testing.B) {
	for _, frac := range []float64{0.2, 0.5} {
		b.Run(byPct(frac), func(b *testing.B) {
			var rms float64
			for i := 0; i < b.N; i++ {
				rows, err := sim.RunCollusion(sim.CollusionConfig{
					N:          200,
					Fractions:  []float64{frac},
					GroupSizes: []int{1},
					Seed:       42,
				})
				if err != nil {
					b.Fatal(err)
				}
				rms = rows[0].AvgRMSErr
			}
			b.ReportMetric(rms, "avg-rms-err")
		})
	}
}

// BenchmarkScaling supports Theorems 5.1/5.2: steps normalised by (log2 N)²
// should stay bounded.
func BenchmarkScaling(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(byN(n), func(b *testing.B) {
			var norm float64
			for i := 0; i < b.N; i++ {
				rows, err := sim.RunScaling([]int{n}, 1e-4, 42)
				if err != nil {
					b.Fatal(err)
				}
				norm = rows[0].Normalized
			}
			b.ReportMetric(norm, "steps/log2N^2")
		})
	}
}

// BenchmarkAblationRounding compares the paper's round-to-nearest fan-out
// against ceiling and fixed fan-outs (DESIGN.md §4 ablation).
func BenchmarkAblationRounding(b *testing.B) {
	g := graph.MustPA(5000, 2, 42)
	xs := randomVals(5000, 43)
	cases := []struct {
		name string
		cfg  gossip.Config
	}{
		{"round", gossip.Config{Graph: g, Protocol: gossip.DifferentialPush, Epsilon: 1e-4, Seed: 44}},
		{"ceil", gossip.Config{Graph: g, Protocol: gossip.CeilPush, Epsilon: 1e-4, Seed: 44}},
		{"fixed2", gossip.Config{Graph: g, Protocol: gossip.FixedPush, FixedK: 2, Epsilon: 1e-4, Seed: 44}},
		{"normal", gossip.Config{Graph: g, Protocol: gossip.NormalPush, Epsilon: 1e-4, Seed: 44}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var steps, msgs float64
			for i := 0; i < b.N; i++ {
				res, err := gossip.Average(c.cfg, xs)
				if err != nil {
					b.Fatal(err)
				}
				steps = float64(res.Steps)
				msgs = float64(res.Messages.Gossip)
			}
			b.ReportMetric(steps, "steps")
			b.ReportMetric(msgs, "gossip-msgs")
		})
	}
}

// BenchmarkAblationTopology contrasts the power-law overlay with a
// same-density Erdős–Rényi graph: differential push's advantage is specific
// to heavy-tailed degree distributions.
func BenchmarkAblationTopology(b *testing.B) {
	n := 2000
	xs := randomVals(n, 51)
	pa := graph.MustPA(n, 2, 50)
	er := graph.ErdosRenyi(n, float64(2*pa.M())/float64(n*(n-1)), 50)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"pa", pa}, {"erdos-renyi", er}} {
		for _, proto := range []gossip.Protocol{gossip.DifferentialPush, gossip.NormalPush} {
			b.Run(tc.name+"/"+proto.String(), func(b *testing.B) {
				var steps float64
				for i := 0; i < b.N; i++ {
					res, err := gossip.Average(gossip.Config{
						Graph: tc.g, Protocol: proto, Epsilon: 1e-4, Seed: 52,
					}, xs)
					if err != nil {
						b.Fatal(err)
					}
					steps = float64(res.Steps)
				}
				b.ReportMetric(steps, "steps")
			})
		}
	}
}

// BenchmarkBaselineCollusion runs the cross-scheme collusion comparison,
// reporting DGT's normalised RMSE under attack.
func BenchmarkBaselineCollusion(b *testing.B) {
	var rmse float64
	for i := 0; i < b.N; i++ {
		rows, err := sim.RunBaselineCollusion(sim.BaselineCollusionConfig{N: 150, Seed: 80})
		if err != nil {
			b.Fatal(err)
		}
		rmse = rows[0].NormRMSE
	}
	b.ReportMetric(rmse, "dgt-norm-rmse")
}

// BenchmarkWhitewash measures the whitewashing-payoff experiment.
func BenchmarkWhitewash(b *testing.B) {
	var adv float64
	for i := 0; i < b.N; i++ {
		rows, err := sim.RunWhitewash(sim.WhitewashConfig{
			N: 100, Priors: []float64{0}, Rounds: 16, ResetEvery: 4, Seed: 81,
		})
		if err != nil {
			b.Fatal(err)
		}
		adv = rows[0].Advantage
	}
	b.ReportMetric(adv, "whitewash-advantage")
}

// BenchmarkEngineStep isolates the per-step cost of the scalar engine. The
// reported allocs/op must stay at 0 — Step is the hot path the atomic-only
// instrumentation discipline protects.
func BenchmarkEngineStep(b *testing.B) {
	for _, n := range []int{1000, 10000, 50000} {
		b.Run(byN(n), func(b *testing.B) {
			g := graph.MustPA(n, 2, 60)
			xs := randomVals(n, 61)
			g0 := make([]float64, n)
			for i := range g0 {
				g0[i] = 1
			}
			e, err := gossip.NewEngine(gossip.Config{Graph: g, Epsilon: 1e-12, Seed: 62}, xs, g0)
			if err != nil {
				b.Fatal(err)
			}
			e.Step() // warm the scratch buffers outside the measured window
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

// BenchmarkPAGeneration measures overlay construction.
func BenchmarkPAGeneration(b *testing.B) {
	for _, n := range []int{1000, 10000, 50000} {
		b.Run(byN(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = graph.MustPA(n, 2, uint64(i))
			}
		})
	}
}

func byN(n int) string { return "N=" + itoa(n) }
func byLoss(p float64) string {
	return "loss=" + trim(p)
}
func byPct(p float64) string { return "colluding=" + trim(p) }

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func trim(f float64) string {
	s := []byte{}
	whole := int(f)
	s = append(s, byte('0'+whole))
	frac := int(f*10) % 10
	if frac != 0 {
		s = append(s, '.', byte('0'+frac))
	}
	return string(s)
}

func randomVals(n int, seed uint64) []float64 {
	src := rng.New(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = src.Float64()
	}
	return out
}
