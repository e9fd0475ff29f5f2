package cluster

import (
	"context"
	"path/filepath"
	"testing"

	"diffgossip/internal/service"
	"diffgossip/internal/transport"
)

// logicalClock is the deterministic membership clock for manual driving:
// tests advance it explicitly, in abstract "ticks" (1 unit = 1ns as far as
// the thresholds are concerned).
type logicalClock struct{ t int64 }

func (c *logicalClock) now() int64 { return c.t }

// seedNode builds one manually driven node on the hub with the shared
// logical clock and tick-scale thresholds.
func seedNode(t *testing.T, hub *transport.Hub, name string, seeds []string, clk *logicalClock, svc *service.Service, inc uint64, hintPath string) (*Node, *transport.ChannelTransport) {
	t.Helper()
	ep, err := hub.Endpoint(name)
	if err != nil {
		t.Fatal(err)
	}
	nd, err := New(Config{
		Service:      svc,
		Transport:    ep,
		Peers:        seeds,
		Now:          clk.now,
		Incarnation:  inc,
		SuspectAfter: 10,
		DeadAfter:    30,
		HintPath:     hintPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	return nd, ep
}

// memberState digs one member's state out of a node's stats ("" = unknown).
func memberState(nd *Node, id string) string {
	for _, m := range nd.Stats().Members {
		if m.ID == id {
			return m.State
		}
	}
	return ""
}

// TestSingleSeedTransitiveDiscovery: four nodes, three of which know only
// node-0, discover the full mesh from gossiped views — the no-static-topology
// contract.
func TestSingleSeedTransitiveDiscovery(t *testing.T) {
	g := testGraph(t, 16)
	hub := transport.NewHub()
	clk := &logicalClock{}
	names := []string{"node-0", "node-1", "node-2", "node-3"}
	nodes := make([]*Node, len(names))
	for i, nm := range names {
		var seeds []string
		if i > 0 {
			seeds = []string{"node-0"} // one seed for everyone but the seed itself
		}
		svc := newClusterService(t, g, 1, nm)
		nd, ep := seedNode(t, hub, nm, seeds, clk, svc, 1, "")
		t.Cleanup(func() { ep.Close() })
		nodes[i] = nd
	}
	for round := 0; round < 4; round++ {
		clk.t++
		for _, nd := range nodes {
			nd.Exchange()
		}
		for pass := 0; pass < 2; pass++ {
			for _, nd := range nodes {
				nd.Drain()
			}
		}
	}
	for i, nd := range nodes {
		st := nd.Stats()
		if len(st.Members) != len(names)-1 {
			t.Fatalf("node %d knows %d members, want %d: %+v", i, len(st.Members), len(names)-1, st.Members)
		}
		for _, m := range st.Members {
			if m.State != "alive" {
				t.Fatalf("node %d sees %s as %s after full exchange", i, m.ID, m.State)
			}
			if m.Heartbeat == 0 {
				t.Fatalf("node %d never saw a heartbeat from %s", i, m.ID)
			}
		}
	}
}

// TestSuspectDeadReviveLifecycle pins the failure-detector transitions on
// the logical clock: silence crosses SuspectAfter then DeadAfter, and any
// direct message — here a digest from the restarted peer with a higher
// incarnation — revives the member instantly.
func TestSuspectDeadReviveLifecycle(t *testing.T) {
	g := testGraph(t, 16)
	hub := transport.NewHub()
	clk := &logicalClock{}
	svcA := newClusterService(t, g, 1, "node-a")
	svcB := newClusterService(t, g, 1, "node-b")
	ndA, epA := seedNode(t, hub, "node-a", []string{"node-b"}, clk, svcA, 1, "")
	defer epA.Close()
	ndB, epB := seedNode(t, hub, "node-b", []string{"node-a"}, clk, svcB, 1, "")

	ndA.Exchange()
	ndB.Exchange()
	ndA.Drain()
	ndB.Drain()
	if got := memberState(ndA, "node-b"); got != "alive" {
		t.Fatalf("after exchange, node-b is %q, want alive", got)
	}

	// node-b crashes; silence accumulates on the logical clock.
	epB.Close()
	ndB.Close()
	clk.t = 11 // ≥ SuspectAfter
	if got := memberState(ndA, "node-b"); got != "suspect" {
		t.Fatalf("at t=11, node-b is %q, want suspect", got)
	}
	clk.t = 31 // ≥ DeadAfter
	if got := memberState(ndA, "node-b"); got != "dead" {
		t.Fatalf("at t=31, node-b is %q, want dead", got)
	}
	degraded, reason := ndA.Degraded()
	if !degraded || reason == "" {
		t.Fatalf("sole peer dead but not degraded (%v, %q)", degraded, reason)
	}

	// node-b restarts with a higher incarnation and digests its seed: one
	// message re-admits it.
	ndB2, epB2 := seedNode(t, hub, "node-b", []string{"node-a"}, clk, svcB, 2, "")
	defer epB2.Close()
	defer ndB2.Close()
	ndB2.Exchange()
	ndA.Drain()
	if got := memberState(ndA, "node-b"); got != "alive" {
		t.Fatalf("after restart digest, node-b is %q, want alive", got)
	}
	if degraded, _ := ndA.Degraded(); degraded {
		t.Fatal("still degraded after peer revival")
	}
}

// TestHintedHandoffReplay: entries owed to a dead peer buffer as hints and
// replay — in full, in order — on the peer's first sign of life.
func TestHintedHandoffReplay(t *testing.T) {
	g := testGraph(t, 16)
	hub := transport.NewHub()
	clk := &logicalClock{}
	svcA := newClusterService(t, g, 1, "node-a")
	svcB := newClusterService(t, g, 1, "node-b")
	ndA, epA := seedNode(t, hub, "node-a", []string{"node-b"}, clk, svcA, 1, "")
	defer epA.Close()
	ndB, epB := seedNode(t, hub, "node-b", []string{"node-a"}, clk, svcB, 1, "")

	// One full exchange so node-a has node-b's watermarks cached (the push
	// cache is what hints are framed against).
	ndA.Exchange()
	ndB.Exchange()
	ndA.Drain()
	ndB.Drain()

	// node-b dies; node-a keeps accepting writes through the outage.
	epB.Close()
	ndB.Close()
	for i := 0; i < 5; i++ {
		if _, err := svcA.SubmitCtx(context.Background(), 1, 2+i, 0.5, int64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	clk.t = 31 // node-b is dead by now
	ndA.Exchange()
	st := ndA.Stats()
	if st.HintedEntries != 5 {
		t.Fatalf("hinted entries = %d, want 5; stats %+v", st.HintedEntries, st)
	}

	// node-b restarts (same durable ledger — the service lived) and
	// announces itself; node-a must replay the hints without waiting for a
	// digest round-trip about the missing entries.
	ndB2, epB2 := seedNode(t, hub, "node-b", []string{"node-a"}, clk, svcB, 2, "")
	defer epB2.Close()
	defer ndB2.Close()
	ndB2.Exchange()
	ndA.Drain() // receive b's digest → revive → replay hints
	ndB2.Drain()
	if got := svcB.ReplicationMark("node-a"); got != 5 {
		t.Fatalf("node-b's watermark for node-a = %d, want 5; a stats %+v", got, ndA.Stats())
	}
	st = ndA.Stats()
	if st.HintedEntries != 0 || st.HintsReplayed != 5 {
		t.Fatalf("after replay: queued=%d replayed=%d, want 0/5", st.HintedEntries, st.HintsReplayed)
	}
}

// TestHintQueueBounded: the per-peer buffer drops batches past
// MaxHintEntries and tallies them; the pull recovers the loss later, so the
// only contract here is the bound and the accounting.
func TestHintQueueBounded(t *testing.T) {
	g := testGraph(t, 16)
	hub := transport.NewHub()
	clk := &logicalClock{}
	svcA := newClusterService(t, g, 1, "node-a")
	svcB := newClusterService(t, g, 1, "node-b")
	epA, err := hub.Endpoint("node-a")
	if err != nil {
		t.Fatal(err)
	}
	defer epA.Close()
	ndA, err := New(Config{
		Service: svcA, Transport: epA, Peers: []string{"node-b"},
		Now: clk.now, SuspectAfter: 10, DeadAfter: 30,
		MaxBatch: 2, MaxHintEntries: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ndB, epB := seedNode(t, hub, "node-b", []string{"node-a"}, clk, svcB, 1, "")
	ndA.Exchange()
	ndB.Exchange()
	ndA.Drain()
	ndB.Drain()
	epB.Close()
	ndB.Close()
	for i := 0; i < 8; i++ {
		if _, err := svcA.SubmitCtx(context.Background(), 1, 2+i, 0.5, int64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	clk.t = 31
	// Each exchange hints one batch of ≤2 entries; the queue caps at 4.
	for i := 0; i < 5; i++ {
		ndA.Exchange()
	}
	st := ndA.Stats()
	if st.HintedEntries != 4 {
		t.Fatalf("hinted entries = %d, want the 4-entry bound; stats %+v", st.HintedEntries, st)
	}
	if st.HintsDropped == 0 {
		t.Fatal("overflow batches were not tallied as dropped")
	}
}

// TestHintLogSurvivesRestart: with Config.HintPath set, hints buffered for a
// dead peer are reloaded by a restarted node and still replay.
func TestHintLogSurvivesRestart(t *testing.T) {
	g := testGraph(t, 16)
	hub := transport.NewHub()
	clk := &logicalClock{}
	hintPath := filepath.Join(t.TempDir(), "hints.jsonl")
	svcA := newClusterService(t, g, 1, "node-a")
	svcB := newClusterService(t, g, 1, "node-b")
	ndA, epA := seedNode(t, hub, "node-a", []string{"node-b"}, clk, svcA, 1, hintPath)
	ndB, epB := seedNode(t, hub, "node-b", []string{"node-a"}, clk, svcB, 1, "")

	ndA.Exchange()
	ndB.Exchange()
	ndA.Drain()
	ndB.Drain()
	epB.Close()
	ndB.Close()
	for i := 0; i < 3; i++ {
		if _, err := svcA.SubmitCtx(context.Background(), 1, 2+i, 0.5, int64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	clk.t = 31
	ndA.Exchange()
	if st := ndA.Stats(); st.HintedEntries != 3 {
		t.Fatalf("hinted entries = %d, want 3", st.HintedEntries)
	}

	// node-a restarts: same service and address, a fresh node reloading the
	// hint log.
	if err := ndA.Close(); err != nil {
		t.Fatal(err)
	}
	epA.Close()
	ndA2, epA2 := seedNode(t, hub, "node-a", []string{"node-b"}, clk, svcA, 2, hintPath)
	defer epA2.Close()
	defer ndA2.Close()
	if st := ndA2.Stats(); st.HintedEntries != 3 {
		t.Fatalf("reloaded hinted entries = %d, want 3", st.HintedEntries)
	}

	// node-b comes back too; the reloaded hints replay.
	ndB2, epB2 := seedNode(t, hub, "node-b", []string{"node-a"}, clk, svcB, 2, "")
	defer epB2.Close()
	defer ndB2.Close()
	ndB2.Exchange()
	ndA2.Drain()
	ndB2.Drain()
	if got := svcB.ReplicationMark("node-a"); got != 3 {
		t.Fatalf("node-b's watermark for node-a = %d, want 3", got)
	}
}

// TestNewValidatesMembershipConfig covers the new constructor errors.
func TestNewValidatesMembershipConfig(t *testing.T) {
	g := testGraph(t, 16)
	hub := transport.NewHub()
	ep, err := hub.Endpoint("node-x")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	svc := newClusterService(t, g, 1, "node-x")
	if _, err := New(Config{Service: svc, Transport: ep, SuspectAfter: 10, DeadAfter: 5}); err == nil {
		t.Error("DeadAfter ≤ SuspectAfter accepted")
	}
	mismatched := newClusterService(t, g, 1, "someone-else")
	if _, err := New(Config{Service: mismatched, Transport: ep}); err == nil {
		t.Error("service origin ≠ transport address accepted")
	}
	if _, err := New(Config{Service: svc, Transport: ep, Peers: []string{"node-x"}}); err == nil {
		t.Error("self in peer list accepted")
	}
}

// TestDeadPeerProbeCadence: dead members stop receiving routine digests but
// still get the periodic probe.
func TestDeadPeerProbeCadence(t *testing.T) {
	g := testGraph(t, 16)
	hub := transport.NewHub()
	clk := &logicalClock{}
	svcA := newClusterService(t, g, 1, "node-a")
	ndA, epA := seedNode(t, hub, "node-a", []string{"node-b"}, clk, svcA, 1, "")
	defer epA.Close()
	// node-b never existed on the hub: every digest to it fails, and after
	// DeadAfter it is dead.
	clk.t = 31
	before := ndA.Stats().DigestsSent
	for i := 0; i < 8; i++ {
		ndA.Exchange()
	}
	probes := ndA.Stats().DigestsSent - before
	if probes == 0 {
		t.Fatal("dead peer never probed")
	}
	if probes >= 8 {
		t.Fatalf("dead peer received %d digests in 8 exchanges — routine sends not suppressed", probes)
	}
}
