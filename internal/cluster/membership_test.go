package cluster

import (
	"context"
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
func seedNode(t *testing.T, hub *transport.Hub, name string, seeds []string, clk *logicalClock, svc *service.Service, inc uint64) (*Node, *transport.ChannelTransport) {
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
		nd, ep := seedNode(t, hub, nm, seeds, clk, svc, 1)
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
	ndA, epA := seedNode(t, hub, "node-a", []string{"node-b"}, clk, svcA, 1)
	defer epA.Close()
	ndB, epB := seedNode(t, hub, "node-b", []string{"node-a"}, clk, svcB, 1)

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
	ndB2, epB2 := seedNode(t, hub, "node-b", []string{"node-a"}, clk, svcB, 2)
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

// TestReturningPeerDrainsBacklog: what a dead peer is owed lives only in the
// survivor's ledger. node-b stays down past DeadAfter while node-a accepts
// several batches' worth of writes and sends it none of them; then BOTH
// agents are rebuilt over the surviving services — no agent state of any kind
// carries over — and node-b's first digest is answered with its whole backlog
// in consecutive batches. node-b digests a second time before it has applied
// that answer; the stale digest must not pull the backlog again.
func TestReturningPeerDrainsBacklog(t *testing.T) {
	const backlog, batch = 700, 256 // ⌈700/256⌉ = 3 batches
	g := testGraph(t, 16)
	hub := transport.NewHub()
	clk := &logicalClock{}
	svcA := newClusterService(t, g, 1, "node-a")
	svcB := newClusterService(t, g, 1, "node-b")
	ndA, epA := seedNode(t, hub, "node-a", []string{"node-b"}, clk, svcA, 1)
	ndB, epB := seedNode(t, hub, "node-b", []string{"node-a"}, clk, svcB, 1)

	// One full exchange so node-a has node-b's watermarks cached and would
	// push to it if it were alive.
	ndA.Exchange()
	ndB.Exchange()
	ndA.Drain()
	ndB.Drain()

	// node-b dies; node-a keeps accepting writes through the outage.
	epB.Close()
	ndB.Close()
	for k := 0; k < backlog; k++ {
		if _, err := svcA.SubmitCtx(context.Background(), k%16, (k+1)%16, 0.5, int64(100+k)); err != nil {
			t.Fatal(err)
		}
	}
	clk.t = 31 // node-b is dead by now
	ndA.Exchange()
	if got := memberState(ndA, "node-b"); got != "dead" {
		t.Fatalf("node-b is %q at t=31, want dead", got)
	}
	if st := ndA.Stats(); st.BatchesSent != 0 {
		t.Fatalf("node-a addressed %d batches to a dead peer; stats %+v", st.BatchesSent, st)
	}

	// Both processes restart over their durable ledgers (the services lived).
	ndA.Close()
	epA.Close()
	ndA2, epA2 := seedNode(t, hub, "node-a", []string{"node-b"}, clk, svcA, 2)
	defer epA2.Close()
	defer ndA2.Close()
	ndB2, epB2 := seedNode(t, hub, "node-b", []string{"node-a"}, clk, svcB, 2)
	defer epB2.Close()
	defer ndB2.Close()

	// One digest round-trip: node-b announces itself twice before it drains,
	// node-a streams the answer once, node-b applies it.
	ndB2.Exchange()
	ndB2.Exchange()
	ndA2.Drain()
	ndB2.Drain()
	if got := svcB.ReplicationMark("node-a"); got != backlog {
		t.Fatalf("node-b's watermark for node-a = %d after one round-trip, want %d; a stats %+v", got, backlog, ndA2.Stats())
	}
	want := uint64((backlog + batch - 1) / batch)
	if st := ndA2.Stats(); st.BatchesSent != want {
		t.Fatalf("node-a sent %d batches, want %d; stats %+v", st.BatchesSent, want, st)
	}
	if st := ndB2.Stats(); st.EntriesApplied != backlog || st.EntriesDuplicate != 0 || st.BatchesGapped != 0 {
		t.Fatalf("node-b applied %d entries (%d duplicate) with %d gapped batches, want %d / 0 / 0",
			st.EntriesApplied, st.EntriesDuplicate, st.BatchesGapped, backlog)
	}

	// The streamed answer advanced node-a's push cache: nothing is re-sent.
	ndA2.Exchange()
	if st := ndA2.Stats(); st.BatchesSent != want {
		t.Fatalf("exchange after the answer pushed %d more batches", st.BatchesSent-want)
	}
}

// TestDigestAnswerBudget: one digest answer streams at most
// digestAnswerBatches batches per origin; the rest follows on the next digest.
func TestDigestAnswerBudget(t *testing.T) {
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
	})
	if err != nil {
		t.Fatal(err)
	}
	ndA.maxBatch = 2
	ndB, epB := seedNode(t, hub, "node-b", []string{"node-a"}, clk, svcB, 1)
	defer epB.Close()
	for k := 0; k < 40; k++ {
		if _, err := svcA.SubmitCtx(context.Background(), k%16, (k+1)%16, 0.5, int64(100+k)); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []uint64{2 * digestAnswerBatches, 40} {
		ndB.Exchange()
		ndA.Drain()
		ndB.Drain()
		if got := svcB.ReplicationMark("node-a"); got != want {
			t.Fatalf("node-b's watermark for node-a = %d, want %d; a stats %+v", got, want, ndA.Stats())
		}
	}
	if st := ndA.Stats(); st.BatchesSent != 20 {
		t.Fatalf("node-a sent %d batches for 40 entries at 2 per batch, want 20", st.BatchesSent)
	}
}

// TestLostAnswerIsRepulled: a digest answer the network drops is re-pulled
// by the first digest node-a handles once the in-flight window has passed —
// at node-a's second exchange tick. Before that node-b's digests are taken to
// predate the answer, so nothing is re-sent; after it the re-pulled answer is
// itself in flight, so node-b's reciprocal digest racing it pulls nothing
// twice.
func TestLostAnswerIsRepulled(t *testing.T) {
	const backlog, repulledAt = 300, 2 // 2 batches; node-a's exchange tick
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
	lossy := transport.NewFault(epA, 1)
	lossy.SetFilter(func(m transport.Message) bool { return m.Kind == transport.KindEntries })
	lossy.SetDropProb(1)
	ndA, err := New(Config{
		Service: svcA, Transport: lossy, Peers: []string{"node-b"},
		Now: clk.now, SuspectAfter: 10, DeadAfter: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	ndB, epB := seedNode(t, hub, "node-b", []string{"node-a"}, clk, svcB, 1)
	defer epB.Close()
	for k := 0; k < backlog; k++ {
		if _, err := svcA.SubmitCtx(context.Background(), k%16, (k+1)%16, 0.5, int64(100+k)); err != nil {
			t.Fatal(err)
		}
	}

	ndB.Exchange()
	ndA.Drain() // the answer goes out and is lost on the wire
	if dropped, _, _ := lossy.Stats(); dropped != 2 {
		t.Fatalf("dropped %d batches, want the whole 2-batch answer", dropped)
	}
	lossy.SetDropProb(0)
	for tick := 1; tick <= repulledAt+1; tick++ {
		ndA.Exchange()
		ndB.Exchange()
		for pass := 0; pass < 2; pass++ {
			ndA.Drain()
			ndB.Drain()
		}
		mark, sent := svcB.ReplicationMark("node-a"), ndA.Stats().BatchesSent
		switch {
		case tick < repulledAt && (mark != 0 || sent != 2):
			t.Fatalf("tick %d: node-b's mark %d, node-a sent %d batches — want 0 and 2 (the answer may still be in flight)", tick, mark, sent)
		case tick >= repulledAt && (mark != backlog || sent != 4):
			t.Fatalf("tick %d: node-b's mark %d, node-a sent %d batches — want %d and 4 (re-pulled once at tick %d)", tick, mark, sent, backlog, repulledAt)
		}
	}
	if st := ndB.Stats(); st.EntriesApplied != backlog || st.EntriesDuplicate != 0 || st.BatchesGapped != 0 {
		t.Fatalf("node-b applied %d entries (%d duplicate, %d gapped batches), want %d / 0 / 0",
			st.EntriesApplied, st.EntriesDuplicate, st.BatchesGapped, backlog)
	}
}

// TestLostPushRecoveredUnderTraffic: node-a pushes a fresh entry every tick,
// so batches to node-b are always in flight; one push is lost anyway. Its
// loss predates the window the later pushes open, so node-b's digest still
// re-pulls it within inflightTicks ticks while the traffic goes on.
func TestLostPushRecoveredUnderTraffic(t *testing.T) {
	const lostAt = 3
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
	lossy := transport.NewFault(epA, 1)
	lossy.SetFilter(func(m transport.Message) bool { return m.Kind == transport.KindEntries })
	ndA, err := New(Config{
		Service: svcA, Transport: lossy, Peers: []string{"node-b"},
		Now: clk.now, SuspectAfter: 10, DeadAfter: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	ndB, epB := seedNode(t, hub, "node-b", []string{"node-a"}, clk, svcB, 1)
	defer epB.Close()
	for tick := 1; tick <= lostAt+inflightTicks+2; tick++ {
		if _, err := svcA.SubmitCtx(context.Background(), tick%16, (tick+1)%16, 0.5, int64(tick)); err != nil {
			t.Fatal(err)
		}
		if tick == lostAt {
			lossy.SetDropProb(1)
		}
		ndA.Exchange()
		lossy.SetDropProb(0)
		ndB.Exchange()
		for pass := 0; pass < 2; pass++ {
			ndA.Drain()
			ndB.Drain()
		}
		if got := svcB.ReplicationMark("node-a"); tick >= lostAt+inflightTicks && got != uint64(tick) {
			t.Fatalf("tick %d: node-b's mark %d, want %d — the lost push was never re-pulled", tick, got, tick)
		}
	}
	if dropped, _, _ := lossy.Stats(); dropped != 1 {
		t.Fatalf("dropped %d batches, want exactly the one push", dropped)
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
	ndA, epA := seedNode(t, hub, "node-a", []string{"node-b"}, clk, svcA, 1)
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
