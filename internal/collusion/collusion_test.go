package collusion

import (
	"math"
	"testing"
	"testing/quick"

	"diffgossip/internal/graph"
	"diffgossip/internal/trust"
)

func workload(t *testing.T, n int, seed uint64) (*graph.Graph, *trust.Matrix) {
	t.Helper()
	g := graph.MustPA(n, 2, seed)
	w, err := trust.GenerateWorkload(trust.WorkloadConfig{
		N: n, Density: 0.3, NeighborDensity: 1, Adjacent: g.HasEdge, Seed: seed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, w.Matrix
}

func TestModelValidate(t *testing.T) {
	bad := []Model{
		{N: 0, Fraction: 0.1, GroupSize: 1},
		{N: 10, Fraction: -0.1, GroupSize: 1},
		{N: 10, Fraction: 1.5, GroupSize: 1},
		{N: 10, Fraction: 0.1, GroupSize: 0},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Fatalf("Validate accepted %+v", m)
		}
	}
	if err := (Model{N: 10, Fraction: 0.3, GroupSize: 5}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAssignCounts(t *testing.T) {
	m := Model{N: 100, Fraction: 0.3, GroupSize: 7, Seed: 1}
	a, err := m.Assign()
	if err != nil {
		t.Fatal(err)
	}
	if got := a.NumColluders(); got != 30 {
		t.Fatalf("colluders = %d, want 30", got)
	}
	// Groups: ceil(30/7) = 5, sizes 7,7,7,7,2.
	if len(a.Members) != 5 {
		t.Fatalf("groups = %d, want 5", len(a.Members))
	}
	total := 0
	for gi, mem := range a.Members {
		if len(mem) > 7 {
			t.Fatalf("group %d oversize: %d", gi, len(mem))
		}
		total += len(mem)
		for _, id := range mem {
			if !a.Colluder[id] || a.Group[id] != gi {
				t.Fatalf("membership inconsistent for node %d", id)
			}
		}
	}
	if total != 30 {
		t.Fatalf("group membership total = %d", total)
	}
	for i, isC := range a.Colluder {
		if !isC && a.Group[i] != -1 {
			t.Fatalf("honest node %d has group %d", i, a.Group[i])
		}
	}
}

func TestAssignDeterministic(t *testing.T) {
	m := Model{N: 200, Fraction: 0.2, GroupSize: 5, Seed: 9}
	a1, _ := m.Assign()
	a2, _ := m.Assign()
	for i := range a1.Colluder {
		if a1.Colluder[i] != a2.Colluder[i] {
			t.Fatal("assignment not deterministic")
		}
	}
}

func TestAssignZeroFraction(t *testing.T) {
	a, err := Model{N: 50, Fraction: 0, GroupSize: 3, Seed: 2}.Assign()
	if err != nil {
		t.Fatal(err)
	}
	if a.NumColluders() != 0 || len(a.Members) != 0 {
		t.Fatalf("zero-fraction assignment has colluders: %+v", a)
	}
}

func TestReportedSemantics(t *testing.T) {
	_, tm := workload(t, 40, 10)
	a, err := Model{N: 40, Fraction: 0.25, GroupSize: 5, Seed: 11}.Assign()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Reported(tm)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if !a.Colluder[i] {
			// Honest rows identical.
			ids, vals := tm.RowInto(i, nil, nil)
			for k, j := range ids {
				if rep.Value(i, j) != vals[k] {
					t.Fatalf("honest row %d changed at %d", i, j)
				}
			}
			if rep.NumEntries() == 0 {
				t.Fatal("reported matrix empty")
			}
			continue
		}
		for j := 0; j < 40; j++ {
			if j == i {
				if _, ok := rep.Get(i, j); ok {
					t.Fatalf("colluder %d rated itself", i)
				}
				continue
			}
			groupMate := a.Colluder[j] && a.Group[j] == a.Group[i]
			got, has := rep.Get(i, j)
			_, rated := tm.Get(i, j)
			switch {
			case groupMate:
				if !has || got != 1 {
					t.Fatalf("colluder %d report about groupmate %d = %v,%v, want 1", i, j, got, has)
				}
			case rated:
				if !has || got != 0 {
					t.Fatalf("colluder %d must zero out rating of %d, got %v,%v", i, j, got, has)
				}
			default:
				if has {
					t.Fatalf("colluder %d invented rater status for %d", i, j)
				}
			}
		}
	}
}

func TestReportedSizeMismatch(t *testing.T) {
	a, _ := Model{N: 10, Fraction: 0.2, GroupSize: 2, Seed: 3}.Assign()
	if _, err := a.Reported(trust.NewMatrix(9)); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestExpectedDeltaOldSigns(t *testing.T) {
	// For a subject outside every colluding group with colluders holding
	// honest trust about it, the delta is Σ t_ij/N − GC/N²; with zero
	// honest colluder trust it is strictly negative (pure suppression).
	n := 50
	tm := trust.NewMatrix(n)
	a, err := Model{N: n, Fraction: 0.4, GroupSize: 5, Seed: 4}.Assign()
	if err != nil {
		t.Fatal(err)
	}
	d := ExpectedDeltaOld(tm, a, 0)
	if d >= 0 {
		t.Fatalf("delta = %v, want negative for empty honest trust", d)
	}
	want := -5.0 * 20.0 / (50.0 * 50.0)
	if math.Abs(d-want) > 1e-12 {
		t.Fatalf("delta = %v, want %v", d, want)
	}
}

func TestDampingFactorBounds(t *testing.T) {
	g, tm := workload(t, 60, 20)
	p := trust.DefaultWeightParams
	f := func(seed uint64) bool {
		o := int(seed % 60)
		d := DampingFactor(tm, o, g.Neighbors(o), p)
		return d > 0 && d <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDampingFactorIsOneWithUnitWeights(t *testing.T) {
	g, tm := workload(t, 30, 21)
	p := trust.WeightParams{A: 1, B: 1} // a=1 -> every weight is 1
	if d := DampingFactor(tm, 0, g.Neighbors(0), p); d != 1 {
		t.Fatalf("unit-weight damping = %v, want 1", d)
	}
}

func TestExpectedDeltaNewDamped(t *testing.T) {
	g, tm := workload(t, 80, 22)
	a, err := Model{N: 80, Fraction: 0.3, GroupSize: 4, Seed: 23}.Assign()
	if err != nil {
		t.Fatal(err)
	}
	p := trust.DefaultWeightParams
	// Pick an observer that actually trusts some neighbours.
	obs := -1
	for i := 0; i < 80; i++ {
		if len(tm.InteractedWith(i)) > 0 {
			obs = i
			break
		}
	}
	if obs < 0 {
		t.Skip("workload produced no trusting observer")
	}
	oldD := ExpectedDeltaOld(tm, a, 5)
	newD := DampingFactor(tm, obs, g.Neighbors(obs), p) * oldD // eq. (17) in full
	if math.Abs(newD) > math.Abs(oldD) {
		t.Fatalf("weighted delta %v larger than unweighted %v", newD, oldD)
	}
}
