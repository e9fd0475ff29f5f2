package core

import (
	"sort"
	"testing"

	"diffgossip/internal/graph"
	"diffgossip/internal/rng"
	"diffgossip/internal/trust"
)

// BenchmarkSparseCampaigns times campaigns of the shape a 5 %-dirty service
// epoch runs: N = 2,500, 125 subjects of 48 raters each over frozen
// trust.Columns, every one a sparse campaign on the 48-node circulant
// overlay — the scalar engine's step kernel — here cold and on one worker.
// steps/op is the summed campaign step count, fixed by the seed, so a change
// to the kernel that moves it has changed the dynamics, not the speed;
// ns/node-step divides the time by those steps times the 48 overlay nodes.
func BenchmarkSparseCampaigns(b *testing.B) {
	const n, subjects, raters = 2500, 125, 48
	g := graph.MustPA(n, 2, 300)
	src := rng.New(301)
	subs := make([]int, subjects)
	var cells []trust.Cell
	for s := range subs {
		subs[s] = s * (n / subjects)
		ids := src.Sample(n, raters)
		sort.Ints(ids)
		for _, i := range ids {
			cells = append(cells, trust.Cell{Rater: i, Subject: subs[s], Value: src.Float64()})
		}
	}
	cols, err := trust.NewColumns(n, subs)
	if err != nil {
		b.Fatal(err)
	}
	if cols, _, err = cols.With(cells); err != nil {
		b.Fatal(err)
	}
	p := Params{Epsilon: 1e-4, Seed: 302, SparseRaterFrac: 0.25}
	var steps int
	b.ReportAllocs()
	for b.Loop() {
		res, err := GlobalSubjectsAtRoot(g, cols, subs, p)
		if err != nil {
			b.Fatal(err)
		}
		steps = res.TotalSteps
	}
	b.ReportMetric(float64(steps), "steps/op")
	reportNodeStepCost(b, steps*raters)
}

// BenchmarkGCLRSingle times Algorithm 2 at the lib-aggregate shape: N =
// 5,000 on a PA overlay with M = 2, one GCLRSingle call for each of 10
// subjects rated by 500 random raters, ξ = 1e-4. The count mass rides every
// step, so the kernel carries three masses. steps/op is the
// summed step count of the 10 calls, fixed by the seed; ns/node-step divides
// the time by those steps times N.
func BenchmarkGCLRSingle(b *testing.B) {
	const n, subjects, raters = 5000, 10, 500
	g := graph.MustPA(n, 2, 310)
	src := rng.New(311)
	tm := trust.NewMatrix(n)
	for j := 0; j < subjects; j++ {
		for _, r := range src.Sample(n, raters) {
			if err := tm.Set(r, j, src.Float64()); err != nil {
				b.Fatal(err)
			}
		}
	}
	p := Params{Epsilon: 1e-4, Seed: 312}
	var steps int
	b.ReportAllocs()
	for b.Loop() {
		steps = 0
		for j := 0; j < subjects; j++ {
			res, err := GCLRSingle(g, tm, j, p)
			if err != nil {
				b.Fatal(err)
			}
			steps += res.Steps
		}
	}
	b.ReportMetric(float64(steps), "steps/op")
	reportNodeStepCost(b, steps*n)
}

// reportNodeStepCost reports the time per op divided by the node-steps one
// op runs (Σ steps × nodes), so the step kernel's cost reads the same across
// campaign shapes.
func reportNodeStepCost(b *testing.B, nodeSteps int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nodeSteps), "ns/node-step")
}
