package scenario

import (
	"math"
	"strings"
	"testing"
)

// mustRun executes a scenario and fails the test on error.
func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", cfg.Seed, err)
	}
	return res
}

// requireIdentical asserts two runs are bit-identical in log and outcome.
func requireIdentical(t *testing.T, a, b *Result) {
	t.Helper()
	if len(a.Log) != len(b.Log) {
		t.Fatalf("event logs differ in length: %d vs %d", len(a.Log), len(b.Log))
	}
	for i := range a.Log {
		if a.Log[i] != b.Log[i] {
			t.Fatalf("event log line %d differs:\n  %s\n  %s", i, a.Log[i], b.Log[i])
		}
	}
	if len(a.Reputations) != len(b.Reputations) {
		t.Fatalf("reputation vectors differ in length: %d vs %d", len(a.Reputations), len(b.Reputations))
	}
	for i := range a.Reputations {
		if math.Float64bits(a.Reputations[i]) != math.Float64bits(b.Reputations[i]) {
			t.Fatalf("reputation %d differs at the bit level: %v vs %v", i, a.Reputations[i], b.Reputations[i])
		}
	}
	if a.Rounds != b.Rounds || a.Alive != b.Alive || a.N != b.N ||
		math.Float64bits(a.MaxMassErr) != math.Float64bits(b.MaxMassErr) ||
		math.Float64bits(a.FinalErr) != math.Float64bits(b.FinalErr) ||
		a.Messages != b.Messages {
		t.Fatalf("run summaries differ: %+v vs %+v", a, b)
	}
}

// TestScalarChurnReplay is the acceptance scenario: N=1000 with 10% crash +
// 10% join over the run under 20% packet loss, replayed twice from the same
// seed, must produce bit-identical event logs and final reputations, and
// mass conservation must hold in every round.
func TestScalarChurnReplay(t *testing.T) {
	cfg := Config{
		Target:   TargetScalar,
		N:        1000,
		Rounds:   250,
		LossProb: 0.2,
		Seed:     42,
		Plan:     Plan{CrashFrac: 0.1, JoinFrac: 0.1},
	}
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	requireIdentical(t, a, b)

	if a.Crashes != 100 || a.Joins != 100 {
		t.Fatalf("plan executed %d crashes and %d joins, want 100 each", a.Crashes, a.Joins)
	}
	if len(a.Violations) > 0 {
		t.Fatalf("mass-conservation violations:\n%s", strings.Join(a.Violations, "\n"))
	}
	if a.MaxMassErr > cfg.MassTol && a.MaxMassErr > 1e-8 {
		t.Fatalf("worst mass drift %v exceeds tolerance", a.MaxMassErr)
	}
	if a.N != 1100 || a.Alive != 1000 {
		t.Fatalf("final membership N=%d alive=%d, want 1100/1000", a.N, a.Alive)
	}
	if len(a.Log) < 200 {
		t.Fatalf("event log has only %d lines for 200 events", len(a.Log))
	}
}

func TestScalarSeedSensitivity(t *testing.T) {
	cfg := Config{
		Target: TargetScalar, N: 200, Rounds: 120, LossProb: 0.1, Seed: 1,
		Plan: Plan{CrashFrac: 0.1, JoinFrac: 0.1},
	}
	a := mustRun(t, cfg)
	cfg.Seed = 2
	c := mustRun(t, cfg)
	same := len(a.Log) == len(c.Log)
	if same {
		for i := range a.Log {
			if a.Log[i] != c.Log[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical event logs")
	}
}

// TestScalarLeaveConservesAndConverges: graceful leaves hand mass off, so
// the surviving network still converges to the exact mass-implied average.
func TestScalarLeaveConserves(t *testing.T) {
	cfg := Config{
		Target: TargetScalar, N: 300, Rounds: 400, Seed: 7,
		Plan: Plan{LeaveFrac: 0.2},
	}
	res := mustRun(t, cfg)
	if len(res.Violations) > 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Leaves != 60 {
		t.Fatalf("executed %d leaves, want 60", res.Leaves)
	}
	if !res.Converged {
		t.Fatal("run did not converge after churn settled")
	}
	if res.FinalErr > 0.05 {
		t.Fatalf("final estimate deviates %v from the mass reference", res.FinalErr)
	}
}

// TestScalarPartitionHeals: a partition stalls cross-cell flow; after it
// heals the protocol still satisfies mass conservation and finishes.
func TestScalarPartitionAndCollusion(t *testing.T) {
	cfg := Config{
		Target: TargetScalar, N: 200, Rounds: 300, Seed: 9,
		Plan: Plan{
			CrashFrac:      0.05,
			PartitionSpan:  30,
			PartitionRound: 40,
			PartitionFrac:  0.4,
			ColludeFrac:    0.1,
			ColludeRound:   120,
			ColludeLie:     1,
		},
	}
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	requireIdentical(t, a, b)
	if len(a.Violations) > 0 {
		t.Fatalf("violations: %v", a.Violations)
	}
	var sawPartition, sawHeal, sawCollude bool
	for _, line := range a.Log {
		sawPartition = sawPartition || strings.Contains(line, "partition")
		sawHeal = sawHeal || strings.Contains(line, "heal")
		sawCollude = sawCollude || strings.Contains(line, "collude")
	}
	if !sawPartition || !sawHeal || !sawCollude {
		t.Fatalf("log missing partition/heal/collude entries:\n%s", strings.Join(a.Log, "\n"))
	}
	if a.Colluders == 0 {
		t.Fatal("no colluders formed")
	}
}

func TestServiceChurnReplay(t *testing.T) {
	cfg := Config{
		Target:     TargetService,
		N:          60,
		Rounds:     40,
		Seed:       13,
		EpochEvery: 5,
		Plan: Plan{
			CrashFrac:    0.15,
			RejoinFrac:   0.1,
			ColludeFrac:  0.1,
			ColludeRound: 20,
			ColludeLie:   1,
		},
	}
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	requireIdentical(t, a, b)
	if len(a.Violations) > 0 {
		t.Fatalf("violations:\n%s", strings.Join(a.Violations, "\n"))
	}
	nonZero := 0
	for _, v := range a.Reputations {
		if v != 0 {
			nonZero++
		}
	}
	if nonZero < 10 {
		t.Fatalf("only %d subjects earned a reputation through the epoch loop", nonZero)
	}
}

func TestServiceRejectsOverlayEvents(t *testing.T) {
	cfg := Config{
		Target: TargetService, N: 20, Rounds: 10, Seed: 3,
		Script: []Event{{Round: 2, Kind: KindJoin}},
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("service target accepted a join event")
	}
	cfg.Script = []Event{{Round: 2, Kind: KindLoss, Value: 0.5}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("service target accepted a loss event")
	}
	cfg.Script = []Event{{Round: 2, Kind: KindPartition, Span: 3}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("service target accepted a partition event")
	}
}

func TestScriptedPinnedEvents(t *testing.T) {
	cfg := Config{
		Target: TargetScalar, N: 50, Rounds: 60, Seed: 5,
		Script: []Event{
			{Round: 3, Kind: KindCrash, Node: 7},
			{Round: 10, Kind: KindRejoin, Node: 7},
			{Round: 15, Kind: KindLoss, Value: 0.3},
			{Round: 20, Kind: KindRejoin, Node: PickNode}, // nobody down: skipped
		},
	}
	res := mustRun(t, cfg)
	var sawCrash7, sawRejoin7, sawLoss, sawSkip bool
	for _, line := range res.Log {
		sawCrash7 = sawCrash7 || strings.Contains(line, "crash node=7")
		sawRejoin7 = sawRejoin7 || strings.Contains(line, "rejoin node=7")
		sawLoss = sawLoss || strings.Contains(line, "loss p=0.3")
		sawSkip = sawSkip || strings.Contains(line, "rejoin skipped")
	}
	if !sawCrash7 || !sawRejoin7 || !sawLoss || !sawSkip {
		t.Fatalf("scripted events missing from log:\n%s", strings.Join(res.Log, "\n"))
	}
	if len(res.Violations) > 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Target: TargetScalar, N: 2},                                    // too small
		{Target: TargetScalar, N: 100, LossProb: 1},                     // loss out of range
		{Target: TargetScalar, N: 100, M: 200},                          // M >= N
		{Target: TargetScalar, N: 100, Script: []Event{{Round: 99999}}}, // event out of range
		{Target: TargetScalar, N: 100, Script: []Event{{Round: -1}}},    // negative round
		{Target: TargetKind(99), N: 100},                                // unknown target
		{Target: TargetScalar, N: 100, Epsilon: -1},                     // bad epsilon
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
}

func TestParseTargetKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want TargetKind
	}{{"", TargetScalar}, {"scalar", TargetScalar}, {"service", TargetService}, {"cluster", TargetCluster}} {
		got, err := ParseTargetKind(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseTargetKind(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in && tc.in != "" {
			t.Fatalf("%v.String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	// The vector engine runs only on a static overlay, so "vector" is no
	// scenario target; the refusal names the targets that exist.
	for _, in := range []string{"vector", "bogus"} {
		_, err := ParseTargetKind(in)
		if err == nil || !strings.Contains(err.Error(), "(want scalar|service|cluster)") {
			t.Fatalf("ParseTargetKind(%q) error = %v, want one naming scalar|service|cluster", in, err)
		}
	}
}
