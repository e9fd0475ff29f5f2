package baseline

import (
	"math"
	"testing"

	"diffgossip/internal/rng"
	"diffgossip/internal/trust"
)

func uniformTrust(t *testing.T, n int, seed uint64, density float64) *trust.Matrix {
	t.Helper()
	src := rng.New(seed)
	m := trust.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && src.Bool(density) {
				if err := m.Set(i, j, src.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return m
}

func TestEigenTrustValidation(t *testing.T) {
	m := trust.NewMatrix(5)
	if _, err := EigenTrust(trust.NewMatrix(0), EigenTrustConfig{}); err == nil {
		t.Fatal("empty matrix accepted")
	}
	if _, err := EigenTrust(m, EigenTrustConfig{Alpha: 2}); err == nil {
		t.Fatal("alpha 2 accepted")
	}
	if _, err := EigenTrust(m, EigenTrustConfig{PreTrusted: []int{9}}); err == nil {
		t.Fatal("out-of-range pre-trusted accepted")
	}
}

// TestEigenTrustDeterministic runs EigenTrust 20 times on one matrix and
// requires bit-identical output: each row's normaliser is summed in one
// fixed order, not in a map's.
func TestEigenTrustDeterministic(t *testing.T) {
	m := uniformTrust(t, 60, 3, 0.3)
	cfg := EigenTrustConfig{Alpha: 0.1}
	first, err := EigenTrust(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run < 20; run++ {
		res, err := EigenTrust(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != first.Iterations {
			t.Fatalf("run %d took %d iterations, the first %d", run, res.Iterations, first.Iterations)
		}
		for j, v := range res.Reputation {
			if math.Float64bits(v) != math.Float64bits(first.Reputation[j]) {
				t.Fatalf("run %d: peer %d reputation %v, the first run's %v", run, j, v, first.Reputation[j])
			}
		}
	}
}

func TestEigenTrustSumsToOne(t *testing.T) {
	m := uniformTrust(t, 50, 1, 0.3)
	res, err := EigenTrust(m, EigenTrustConfig{Alpha: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("EigenTrust did not converge")
	}
	sum := 0.0
	for _, v := range res.Reputation {
		if v < 0 {
			t.Fatalf("negative reputation %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("reputation sums to %v", sum)
	}
}

func TestEigenTrustRanksGoodPeersHigher(t *testing.T) {
	// Node 0 is universally trusted at 0.95, node 1 universally distrusted
	// at 0.05; everyone else middling.
	n := 30
	src := rng.New(2)
	m := trust.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := 0.5
			switch j {
			case 0:
				v = 0.95
			case 1:
				v = 0.05
			}
			_ = m.Set(i, j, v+0.01*src.Float64())
		}
	}
	res, err := EigenTrust(m, EigenTrustConfig{Alpha: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reputation[0] <= res.Reputation[1] {
		t.Fatalf("good peer %v <= bad peer %v", res.Reputation[0], res.Reputation[1])
	}
	if res.Reputation[0] <= res.Reputation[5] {
		t.Fatalf("good peer %v not above average peer %v", res.Reputation[0], res.Reputation[5])
	}
}

func TestEigenTrustPreTrustedBias(t *testing.T) {
	m := uniformTrust(t, 40, 3, 0.2)
	plain, err := EigenTrust(m, EigenTrustConfig{Alpha: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	biased, err := EigenTrust(m, EigenTrustConfig{Alpha: 0.3, PreTrusted: []int{7}})
	if err != nil {
		t.Fatal(err)
	}
	if biased.Reputation[7] <= plain.Reputation[7] {
		t.Fatalf("pre-trust did not lift peer 7: %v vs %v", biased.Reputation[7], plain.Reputation[7])
	}
}

func TestEigenTrustEmptyMatrixUniform(t *testing.T) {
	// With no trust at all, every node's reputation equals the pre-trust
	// distribution.
	m := trust.NewMatrix(10)
	res, err := EigenTrust(m, EigenTrustConfig{Alpha: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Reputation {
		if math.Abs(v-0.1) > 1e-9 {
			t.Fatalf("uniform fixed point violated: %v", res.Reputation)
		}
	}
}

func TestPowerTrustBasics(t *testing.T) {
	if _, err := PowerTrust(trust.NewMatrix(0), 5); err == nil {
		t.Fatal("empty matrix accepted")
	}
	m := uniformTrust(t, 40, 4, 0.3)
	rep, err := PowerTrust(m, 10)
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range rep {
		if v < 0 || v > 1 {
			t.Fatalf("reputation[%d] = %v out of [0,1]", j, v)
		}
	}
}

func TestPowerTrustWeightsReputableOpinions(t *testing.T) {
	// Subject 2 is rated 0.9 by a reputable node (0, rated highly by all)
	// and 0.1 by a disreputable one (1, rated near zero by all).
	// PowerTrust must land closer to 0.9 than the plain mean 0.5.
	n := 20
	m := trust.NewMatrix(n)
	for i := 3; i < n; i++ {
		_ = m.Set(i, 0, 0.95)
		_ = m.Set(i, 1, 0.02)
	}
	_ = m.Set(0, 2, 0.9)
	_ = m.Set(1, 2, 0.1)
	rep, err := PowerTrust(m, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep[2] <= 0.55 {
		t.Fatalf("PowerTrust rep of subject 2 = %v, want > 0.55", rep[2])
	}
}

func TestGossipTrustFixedPoint(t *testing.T) {
	m := trust.NewMatrix(4)
	_ = m.Set(0, 3, 0.2)
	_ = m.Set(1, 3, 0.8)
	fp := GossipTrustFixedPoint(m)
	if math.Abs(fp[3]-0.5) > 1e-12 {
		t.Fatalf("fixed point = %v, want 0.5", fp[3])
	}
	if fp[0] != 0 {
		t.Fatalf("unrated subject fixed point = %v", fp[0])
	}
}

func TestGossipTrustMatchesDifferentialFixedPoint(t *testing.T) {
	// GossipTrust and Algorithm 1 share the same fixed point — the paper's
	// improvement is in convergence speed and the weighted (GCLR) layer,
	// not the global fixed point.
	m := uniformTrust(t, 30, 5, 0.4)
	fp := GossipTrustFixedPoint(m)
	for j := 0; j < 30; j++ {
		if math.Abs(fp[j]-m.ColumnRaterMean(j)) > 1e-12 {
			t.Fatal("fixed points diverge")
		}
	}
}
