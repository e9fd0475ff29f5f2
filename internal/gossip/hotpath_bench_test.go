package gossip

import (
	"testing"

	"diffgossip/internal/graph"
	"diffgossip/internal/rng"
)

// BenchmarkVectorStep measures the vector engine's steady-state per-step
// cost at core.GCLRAllFromReports' shape (every node reports a rating of
// every subject, the root's weight on every subject), the all-subjects
// variant behind Figs. 5–6. Every node stays active, and ns/node-step is the
// time per step divided by N.
func BenchmarkVectorStep(b *testing.B) {
	for _, n := range []int{300, 1000} {
		b.Run(byN(n), func(b *testing.B) {
			g := graph.MustPA(n, 2, 190)
			m := randomReports(n, 191, 1)
			e, err := NewVectorEngine(Config{Graph: g, Epsilon: 1e-12, Seed: 192, MinSteps: 1 << 30}, 0, m.RowInto)
			if err != nil {
				b.Fatal(err)
			}
			e.Step() // warm scratch buffers before measuring steady state
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/node-step")
		})
	}
}

// BenchmarkScalarStep isolates the scalar engine's per-step cost at the
// paper's large-N sweep sizes — the Fig3/Table2 hot path. Every node stays
// active, and ns/node-step is the time per step divided by N.
func BenchmarkScalarStep(b *testing.B) {
	for _, n := range []int{1000, 10000, 50000} {
		b.Run(byN(n), func(b *testing.B) {
			g := graph.MustPA(n, 2, 200)
			src := rng.New(201)
			xs := make([]float64, n)
			g0 := make([]float64, n)
			for i := range xs {
				xs[i] = src.Float64()
				g0[i] = 1
			}
			e, err := NewEngine(Config{Graph: g, Epsilon: 1e-12, Seed: 202, MinSteps: 1 << 30}, xs, g0)
			if err != nil {
				b.Fatal(err)
			}
			e.Step()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/node-step")
		})
	}
}

func byN(n int) string {
	if n >= 1000 {
		return "N=" + itoa(n/1000) + "k"
	}
	return "N=" + itoa(n)
}

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
