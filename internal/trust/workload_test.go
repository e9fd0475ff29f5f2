package trust

import (
	"math"
	"testing"
)

func TestGenerateWorkloadValidation(t *testing.T) {
	bad := []WorkloadConfig{
		{N: 0},
		{N: 10, Density: -0.1},
		{N: 10, Density: 1.2},
		{N: 10, NeighborDensity: 2},
		{N: 10, FreeRiderFrac: -1},
	}
	for _, cfg := range bad {
		if _, err := GenerateWorkload(cfg); err == nil {
			t.Fatalf("accepted %+v", cfg)
		}
	}
}

func TestGenerateWorkloadShape(t *testing.T) {
	w, err := GenerateWorkload(WorkloadConfig{N: 100, Density: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if w.Matrix.N() != 100 || len(w.Decency) != 100 || len(w.FreeRider) != 100 {
		t.Fatal("workload shape wrong")
	}
	// Density 0.2 over 100*99 ordered pairs: expect ~1980 entries.
	got := float64(w.Matrix.NumEntries())
	if got < 1500 || got > 2500 {
		t.Fatalf("entries = %v, want ~1980", got)
	}
	for j, d := range w.Decency {
		if d < 0 || d > 1 {
			t.Fatalf("decency[%d] = %v", j, d)
		}
	}
	// No self trust.
	for i := 0; i < 100; i++ {
		if _, ok := w.Matrix.Get(i, i); ok {
			t.Fatalf("self trust at %d", i)
		}
	}
}

func TestGenerateWorkloadObservationsTrackDecency(t *testing.T) {
	w, err := GenerateWorkload(WorkloadConfig{N: 200, Density: 0.3, Noise: 0.02, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 200; j++ {
		sum, cnt := w.Matrix.ColumnSum(j)
		if cnt < 10 {
			continue
		}
		mean := sum / float64(cnt)
		// Clamping biases extremes slightly, so allow a loose band.
		if math.Abs(mean-w.Decency[j]) > 0.1 {
			t.Fatalf("subject %d: observed mean %v, decency %v", j, mean, w.Decency[j])
		}
	}
}

func TestGenerateWorkloadNeighborDensity(t *testing.T) {
	adj := func(i, j int) bool { return (i+j)%2 == 0 }
	w, err := GenerateWorkload(WorkloadConfig{
		N: 100, Density: 0.01, NeighborDensity: 0.9, Adjacent: adj, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	nbrPairs, nbrHits := 0, 0
	farPairs, farHits := 0, 0
	for i := 0; i < 100; i++ {
		for j := 0; j < 100; j++ {
			if i == j {
				continue
			}
			if adj(i, j) {
				nbrPairs++
				if _, ok := w.Matrix.Get(i, j); ok {
					nbrHits++
				}
			} else {
				farPairs++
				if _, ok := w.Matrix.Get(i, j); ok {
					farHits++
				}
			}
		}
	}
	nbrRate := float64(nbrHits) / float64(nbrPairs)
	farRate := float64(farHits) / float64(farPairs)
	if nbrRate < 0.8 || farRate > 0.05 {
		t.Fatalf("density split wrong: neighbour %v, far %v", nbrRate, farRate)
	}
}

func TestGenerateWorkloadFreeRiders(t *testing.T) {
	w, err := GenerateWorkload(WorkloadConfig{N: 500, Density: 0.1, FreeRiderFrac: 0.4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	fr, honest := 0, 0
	frSum, honestSum := 0.0, 0.0
	for j := 0; j < 500; j++ {
		if w.FreeRider[j] {
			fr++
			frSum += w.Decency[j]
		} else {
			honest++
			honestSum += w.Decency[j]
		}
	}
	if fr < 150 || fr > 250 {
		t.Fatalf("free riders = %d, want ~200", fr)
	}
	if frSum/float64(fr) >= honestSum/float64(honest) {
		t.Fatal("free riders not less decent than honest nodes")
	}
}

func TestGenerateWorkloadDeterministic(t *testing.T) {
	cfg := WorkloadConfig{N: 50, Density: 0.3, Seed: 5}
	a, _ := GenerateWorkload(cfg)
	b, _ := GenerateWorkload(cfg)
	if a.Matrix.NumEntries() != b.Matrix.NumEntries() {
		t.Fatal("workload not deterministic")
	}
	for i := 0; i < 50; i++ {
		ids, vals := a.Matrix.RowInto(i, nil, nil)
		for k, j := range ids {
			if v := vals[k]; b.Matrix.Value(i, j) != v {
				t.Fatalf("value (%d,%d) differs", i, j)
			}
		}
	}
}
