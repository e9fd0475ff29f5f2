package sim

import (
	"bytes"
	"math"
	"testing"
)

func TestRunProfile(t *testing.T) {
	points, err := RunProfile(ProfileConfig{N: 500, Steps: 60, Seed: 90})
	if err != nil {
		t.Fatal(err)
	}
	// 2 protocols × 60 steps.
	if len(points) != 120 {
		t.Fatalf("points = %d", len(points))
	}
	// Differential push's error after 60 steps must be below its start and
	// at most normal push's.
	last := map[string]float64{}
	first := map[string]float64{}
	for _, p := range points {
		if p.Step == 1 {
			first[p.Protocol] = p.MaxError
		}
		if p.Step == 60 {
			last[p.Protocol] = p.MaxError
		}
	}
	for proto, l := range last {
		if l >= first[proto] {
			t.Fatalf("%s error did not decay: %v -> %v", proto, first[proto], l)
		}
	}
	if last["differential-push"] > last["normal-push"]*1.5 {
		t.Fatalf("differential error %v well above normal %v after 60 steps",
			last["differential-push"], last["normal-push"])
	}
}

func TestRunProfileValidation(t *testing.T) {
	if _, err := RunProfile(ProfileConfig{N: -1}); err == nil {
		t.Fatal("negative N accepted")
	}
}

func TestGeometricDecayRate(t *testing.T) {
	points, err := RunProfile(ProfileConfig{N: 500, Steps: 80, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	rate := geometricDecayRate(points, "differential-push")
	if math.IsNaN(rate) {
		t.Fatal("no decay rate")
	}
	if rate >= 1 {
		t.Fatalf("tail not contracting: rate %v", rate)
	}
	if math.IsNaN(geometricDecayRate(nil, "x")) == false {
		t.Fatal("empty series should give NaN")
	}
}

func TestProfileTable(t *testing.T) {
	points := []ProfilePoint{
		{Protocol: "p", Step: 1, MaxError: 0.5},
		{Protocol: "p", Step: 5, MaxError: 0.1},
		{Protocol: "p", Step: 7, MaxError: 0.05},
	}
	var buf bytes.Buffer
	if err := ProfileTable(points).Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !bytes.Contains([]byte(out), []byte("0.5")) {
		t.Fatalf("step 1 missing: %s", out)
	}
}

// geometricDecayRate fits the average per-step error contraction over the
// tail of a profile (last half), for the Theorem 5.2 check: differential
// push's rate should be at most normal push's.
func geometricDecayRate(points []ProfilePoint, protocol string) float64 {
	var series []float64
	for _, p := range points {
		if p.Protocol == protocol {
			series = append(series, p.MaxError)
		}
	}
	if len(series) < 4 {
		return math.NaN()
	}
	half := series[len(series)/2:]
	// Mean of log ratios, ignoring zero/NaN plateaus.
	sum, n := 0.0, 0
	for i := 1; i < len(half); i++ {
		if half[i] > 0 && half[i-1] > 0 {
			sum += math.Log(half[i] / half[i-1])
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(sum / float64(n))
}
