package scenario

import (
	"math"
	"reflect"
	"testing"

	"diffgossip/internal/graph"
	"diffgossip/internal/rng"
	"diffgossip/internal/transport"
)

// TestClusterCrashRejoinConverges is the federation acceptance scenario: a
// 3-replica cluster under client churn loses replica 1 mid-run, gets it
// back, and still converges — every live replica ends bit-identical
// (FinalErr exactly 0) with no invariant violations.
func TestClusterCrashRejoinConverges(t *testing.T) {
	res, err := Run(Config{
		Target:     TargetCluster,
		N:          36,
		Rounds:     60,
		Epsilon:    1e-6,
		Seed:       42,
		EpochEvery: 6,
		Script: []Event{
			{Round: 10, Kind: KindCrash, Node: 1},  // replica 1 dies
			{Round: 20, Kind: KindCrash, Node: 17}, // a client drops too
			{Round: 34, Kind: KindRejoin, Node: 1}, // replica 1 returns
			{Round: 40, Kind: KindRejoin, Node: 17},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Crashes != 2 || res.Rejoins != 2 {
		t.Fatalf("executed %d crashes / %d rejoins, want 2 / 2\nlog:\n%v", res.Crashes, res.Rejoins, res.Log)
	}
	if res.FinalErr != 0 {
		t.Fatalf("replicas diverged: FinalErr = %v (must be bit-identical)", res.FinalErr)
	}
	rated := 0
	for _, v := range res.Reputations {
		if v > 0 {
			rated++
		}
	}
	if rated == 0 {
		t.Fatal("no reputation ever formed")
	}
}

// TestClusterScenarioReplays pins determinism: the same config replays to a
// bit-identical result, including the event log and final reputations.
func TestClusterScenarioReplays(t *testing.T) {
	cfg := Config{
		Target:     TargetCluster,
		N:          24,
		Rounds:     40,
		Epsilon:    1e-5,
		Seed:       7,
		EpochEvery: 5,
		Script: []Event{
			{Round: 8, Kind: KindCrash, Node: 2},
			{Round: 22, Kind: KindRejoin, Node: 2},
			{Round: 30, Kind: KindCollude, Frac: 0.2, Value: 0.95},
		},
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Log, b.Log) {
		t.Fatalf("event logs differ:\n%v\n%v", a.Log, b.Log)
	}
	if !reflect.DeepEqual(a.Reputations, b.Reputations) {
		t.Fatal("final reputations differ between identical runs")
	}
	if a.FinalErr != b.FinalErr || math.IsInf(a.FinalErr, 1) {
		t.Fatalf("FinalErr %v vs %v", a.FinalErr, b.FinalErr)
	}
}

// TestClusterRejectsUnsupportedEvents: the cluster target must refuse the
// events it cannot model rather than silently ignoring them. (Loss and
// partition used to be in this list; they now apply to the replication path
// — see TestClusterMembershipThrash.)
func TestClusterRejectsUnsupportedEvents(t *testing.T) {
	for _, ev := range []Event{
		{Round: 1, Kind: KindJoin},
	} {
		_, err := Run(Config{
			Target: TargetCluster, N: 12, Rounds: 5, Seed: 1,
			Script: []Event{ev},
		})
		if err == nil {
			t.Fatalf("event %v silently accepted", ev.Kind)
		}
	}
}

// thrashConfig is the membership-thrash acceptance scenario: a 5-replica
// cluster bootstrapped from a single seed rides out continuous kill/respawn
// churn, a multi-round dead-replica window long past the dead threshold
// (so peers stop pushing and the rejoin pulls the whole backlog),
// replication-path packet loss, and a partition — while clients keep submitting round-robin
// across whatever replicas are up.
var thrashConfig = Config{
	Target:     TargetCluster,
	N:          40,
	Rounds:     70,
	Epsilon:    1e-6,
	Seed:       99,
	EpochEvery: 7,
	Replicas:   5,
	Script: []Event{
		{Round: 5, Kind: KindLoss, Value: 0.15},
		{Round: 8, Kind: KindCrash, Node: 1}, // quick bounce
		{Round: 10, Kind: KindRejoin, Node: 1},
		{Round: 12, Kind: KindCrash, Node: 2}, // overlapping bounce
		{Round: 15, Kind: KindRejoin, Node: 2},
		{Round: 16, Kind: KindCrash, Node: 3},  // the long dead window:
		{Round: 30, Kind: KindRejoin, Node: 3}, // 14 rounds ≫ dead threshold
		{Round: 34, Kind: KindPartition, Span: 6, Frac: 0.4},
		{Round: 44, Kind: KindLoss, Value: 0},
		{Round: 46, Kind: KindCrash, Node: 4}, // churn after the heal too
		{Round: 52, Kind: KindRejoin, Node: 4},
		{Round: 55, Kind: KindCollude, Frac: 0.2, Value: 0.95},
	},
}

// TestClusterMembershipThrash runs the thrash timeline and requires exact
// convergence: every live replica serves bit-identical reputations
// (FinalErr exactly 0) with no invariant violations, despite round-robin
// client routing — the LWW total order, not any routing discipline, is what
// makes the replicas agree.
func TestClusterMembershipThrash(t *testing.T) {
	res, err := Run(thrashConfig)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Crashes != 4 || res.Rejoins != 4 {
		t.Fatalf("executed %d crashes / %d rejoins, want 4 / 4\nlog:\n%v", res.Crashes, res.Rejoins, res.Log)
	}
	if res.FinalErr != 0 {
		t.Fatalf("replicas diverged under thrash: FinalErr = %v (must be bit-identical)", res.FinalErr)
	}
	rated := 0
	for _, v := range res.Reputations {
		if v > 0 {
			rated++
		}
	}
	if rated == 0 {
		t.Fatal("no reputation ever formed under thrash")
	}
}

// TestClusterMembershipThrashReplays: the thrash timeline — faults, dead
// windows, LWW conflicts and all — is a pure function of its seed.
func TestClusterMembershipThrashReplays(t *testing.T) {
	a, err := Run(thrashConfig)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(thrashConfig)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Log, b.Log) {
		t.Fatalf("event logs differ:\n%v\n%v", a.Log, b.Log)
	}
	if !reflect.DeepEqual(a.Reputations, b.Reputations) {
		t.Fatal("final reputations differ between identical thrash runs")
	}
	if a.FinalErr != b.FinalErr {
		t.Fatalf("FinalErr %v vs %v", a.FinalErr, b.FinalErr)
	}
}

// TestClusterDeadWindowCatchesUp drives the target directly through a
// multi-round dead window. While replica 1 is dead its peers address no
// entries batch to it (a sink registered under its address sees only digest
// probes) — what it is owed stays in their ledgers — and after its rejoin the
// cluster's watermarks are level within two exchange rounds.
func TestClusterDeadWindowCatchesUp(t *testing.T) {
	cfg := (&Config{
		Target: TargetCluster, N: 20, Epsilon: 1e-6,
		EpochEvery: 5, Replicas: 3,
	}).withDefaults()
	g, err := graph.PreferentialAttachment(graph.PAConfig{N: cfg.N, M: cfg.M, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := newClusterTarget(cfg, g, 17, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	defer tgt.Close()
	for r := 0; r < 8; r++ { // membership warms up, feedback flows
		tgt.Step()
	}
	if err := tgt.Crash(1); err != nil {
		t.Fatal(err)
	}
	// A silent sink takes over the crashed replica's address: sends to it
	// succeed but nothing ever answers, so its peers still declare it dead.
	sink, err := tgt.hub.Endpoint(tgt.names[1])
	if err != nil {
		t.Fatal(err)
	}
	sunk := func() (batches int) {
		for {
			select {
			case msg := <-sink.Inbox():
				if msg.Kind == transport.KindEntries {
					batches++
				}
			default:
				return batches
			}
		}
	}
	for r := 0; r < clusterDeadTicks; r++ { // suspect, then dead
		tgt.Step()
	}
	sunk() // whatever was pushed while the replica was merely suspect
	owed := tgt.svcs[0].ReplicationMark(tgt.svcs[0].Origin())
	for r := 0; r < 6; r++ { // the dead window proper, feedback still flowing
		tgt.Step()
	}
	if owed = tgt.svcs[0].ReplicationMark(tgt.svcs[0].Origin()) - owed; owed == 0 {
		t.Fatal("test degenerated: replica 0 accepted nothing during the dead window")
	}
	if got := sunk(); got != 0 {
		t.Fatalf("%d entries batches were addressed to a dead replica", got)
	}
	sink.Close()

	if err := tgt.Rejoin(1); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		tgt.antiEntropy()
	}
	ref := tgt.nodes[0].Stats().Marks
	for r := 1; r < len(tgt.nodes); r++ {
		if m := tgt.nodes[r].Stats().Marks; !reflect.DeepEqual(ref, m) {
			t.Fatalf("marks not level two rounds after the rejoin: replica 0 %v, replica %d %v", ref, r, m)
		}
	}
	if got := tgt.ReferenceErr(nil); got != 0 {
		t.Fatalf("replicas diverged after the catch-up: ReferenceErr = %v", got)
	}
}
