package gossip

import (
	"testing"

	"diffgossip/internal/graph"
	"diffgossip/internal/trust"
)

// TestParallelVectorBitIdentical verifies the headline property of the
// three-phase step: the result is bit-identical for any worker count, because
// routing is sequential and each destination sums its shares in routing
// order.
func TestParallelVectorBitIdentical(t *testing.T) {
	n := 80
	g := graph.MustPA(n, 2, 150)
	m := randomReports(n, 151, 0.5)

	run := func(workers int) VectorResult {
		e, err := NewVectorEngine(Config{
			Graph: g, Epsilon: 1e-7, Seed: 152, Workers: workers, LossProb: 0.1,
		}, 0, m.RowInto)
		if err != nil {
			t.Fatal(err)
		}
		return e.Run()
	}
	base := run(1)
	for _, workers := range []int{2, 4, -1} {
		got := run(workers)
		if got.Steps != base.Steps {
			t.Fatalf("workers=%d: steps %d vs %d", workers, got.Steps, base.Steps)
		}
		if got.Messages != base.Messages {
			t.Fatalf("workers=%d: messages differ", workers)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got.Estimates[i][j] != base.Estimates[i][j] {
					t.Fatalf("workers=%d: estimate[%d][%d] differs: %v vs %v",
						workers, i, j, got.Estimates[i][j], base.Estimates[i][j])
				}
			}
		}
	}
}

func TestParallelVectorWithCounts(t *testing.T) {
	n := 40
	g := graph.MustPA(n, 2, 160)
	m := trust.NewMatrix(n)
	for i := 1; i < n; i++ {
		_ = m.Set(i, 0, 0.5)
	}
	run := func(workers int) VectorResult {
		e, err := NewVectorEngine(Config{Graph: g, Epsilon: 1e-8, Seed: 161, Workers: workers}, 0, m.RowInto)
		if err != nil {
			t.Fatal(err)
		}
		return e.Run()
	}
	a, b := run(1), run(4)
	for i := 0; i < n; i++ {
		if a.Counts[i][0] != b.Counts[i][0] {
			t.Fatalf("counts differ at %d: %v vs %v", i, a.Counts[i][0], b.Counts[i][0])
		}
	}
}

func BenchmarkVectorStepWorkers(b *testing.B) {
	n := 600
	g := graph.MustPA(n, 2, 170)
	m := randomReports(n, 171, 1)
	for _, workers := range []int{1, 4, -1} {
		name := "workers=1"
		switch workers {
		case 4:
			name = "workers=4"
		case -1:
			name = "workers=max"
		}
		b.Run(name, func(b *testing.B) {
			e, err := NewVectorEngine(Config{Graph: g, Epsilon: 1e-12, Seed: 172, Workers: workers}, 0, m.RowInto)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}
