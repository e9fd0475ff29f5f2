package cluster

import (
	"reflect"
	"testing"

	"diffgossip/internal/rng"
	"diffgossip/internal/transport"
)

// TestClusterSnapshotBootstrap is the acceptance scenario for snapshot-shipped
// bootstrap: an established node has ingested and folded heavy supersession
// traffic (and trimmed its retained history down to the live subset), and a
// fresh node joins. The join must go through one state transfer — not an
// entry-by-entry replay of the full history — and end bit-identical.
func TestClusterSnapshotBootstrap(t *testing.T) {
	const n = 48
	g := testGraph(t, n)
	hub := transport.NewHub()
	epA, err := hub.Endpoint("node-a")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { epA.Close() })
	svcA := newClusterService(t, g, 3, "node-a")
	a, err := New(Config{Service: svcA, Transport: epA, Peers: []string{"node-b"}, BootstrapLag: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Established traffic with heavy supersession, folded over several
	// epochs, then the history trimmed to its live subset (a lone node's
	// floors are its own marks): the transfer ships live state, not history.
	vals := rng.New(3)
	for k := 0; k < 600; k++ {
		if _, err := svcA.Submit(k%16, (k+1)%16, vals.Float64()); err != nil {
			t.Fatal(err)
		}
		if k%200 == 199 {
			if _, _, err := svcA.RunEpoch(); err != nil {
				t.Fatal(err)
			}
		}
	}
	svcA.Submit(20, 21, 0.5) // unfolded tail travels with the transfer
	trimmed := svcA.TrimReplicationHistory(map[string]uint64{"node-a": svcA.ReplicationMark(svcA.Origin())})
	if trimmed == 0 {
		t.Fatal("test degenerated: nothing was superseded, transfer would not be O(state)")
	}

	// A fresh replica joins with an empty ledger.
	epB, err := hub.Endpoint("node-b")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { epB.Close() })
	svcB := newClusterService(t, g, 3, "node-b")
	b, err := New(Config{Service: svcB, Transport: epB, Peers: []string{"node-a"}, BootstrapLag: 1})
	if err != nil {
		t.Fatal(err)
	}

	// One round trip: A's digest reaches B, B asks for state, A serves it,
	// B installs it.
	a.Exchange()
	b.Drain() // digest in → state request out
	a.Drain() // request in → transfer out
	b.Drain() // transfer in → installed

	stB := b.Stats()
	if stB.BootstrapRequestsSent != 1 || stB.BootstrapsInstalled != 1 || stB.BootstrapErrors != 0 {
		t.Fatalf("B bootstrap stats: %+v", stB)
	}
	if st := a.Stats(); st.BootstrapRequestsServed != 1 {
		t.Fatalf("A served %d state requests, want 1", st.BootstrapRequestsServed)
	}
	// The transfer bypassed entry-by-entry replay entirely.
	if stB.EntriesApplied != 0 || stB.BatchesReceived != 0 {
		t.Fatalf("bootstrap fell back to entry replay: %+v", stB)
	}
	if !reflect.DeepEqual(a.Stats().Marks, stB.Marks) {
		t.Fatalf("marks after bootstrap: A %v, B %v", a.Stats().Marks, stB.Marks)
	}
	// Only the unfolded tail awaits an epoch on B.
	if got := svcB.Pending(); got != 1 {
		t.Fatalf("B has %d pending entries after bootstrap, want only the tail", got)
	}

	// After both fold the tail, reputations are bit-identical.
	if _, ran, err := svcA.RunEpoch(); err != nil || !ran {
		t.Fatalf("A tail epoch: ran=%v err=%v", ran, err)
	}
	if _, ran, err := svcB.RunEpoch(); err != nil || !ran {
		t.Fatalf("B tail epoch: ran=%v err=%v", ran, err)
	}
	va, vb := svcA.View(), svcB.View()
	for j := 0; j < n; j++ {
		want, _ := va.Reputation(j)
		got, _ := vb.Reputation(j)
		if got != want {
			t.Fatalf("subject %d: bootstrap replica serves %v, sender %v", j, got, want)
		}
	}

	// The pair keeps replicating normally: new feedback on B reaches A.
	if _, err := svcB.Submit(30, 31, 0.9); err != nil {
		t.Fatal(err)
	}
	converge(t, []*Node{a, b})
	// B's local entry carries its rebased post-install seq; A must have
	// applied exactly up to it.
	if got, want := svcA.ReplicationMarks()["node-b"], svcB.ReplicationMark(svcB.Origin()); want == 0 || got != want {
		t.Fatalf("A's node-b mark after post-bootstrap replication = %d, want %d", got, want)
	}
}

// TestClusterHistoryTrim drives the TrimEvery cadence: once every member's
// watermarks have passed the superseded entries, the trim drops them — and
// replication stays correct afterwards.
func TestClusterHistoryTrim(t *testing.T) {
	const n = 32
	g := testGraph(t, n)
	hub := transport.NewHub()
	names := []string{"node-0", "node-1"}
	eps := make([]*transport.ChannelTransport, 2)
	nodes := make([]*Node, 2)
	for i, nm := range names {
		ep, err := hub.Endpoint(nm)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		eps[i] = ep
	}
	svc0 := newClusterService(t, g, 2, names[0])
	svc1 := newClusterService(t, g, 2, names[1])
	var err error
	nodes[0], err = New(Config{Service: svc0, Transport: eps[0], Peers: []string{names[1]}, TrimEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	nodes[1], err = New(Config{Service: svc1, Transport: eps[1], Peers: []string{names[0]}, TrimEvery: 1})
	if err != nil {
		t.Fatal(err)
	}

	// No digest seen from the peer yet: trimming must refuse to guess.
	for k := 0; k < 50; k++ {
		if _, err := svc0.Submit(k%4, (k+1)%4, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	nodes[0].Exchange()
	if st := nodes[0].Stats(); st.HistTrims != 0 {
		t.Fatalf("trimmed before any peer digest: %+v", st)
	}

	// Converge, then exchange once more: now both watermarks cover the
	// superseded entries and the trim fires.
	converge(t, nodes)
	nodes[0].Exchange()
	st := nodes[0].Stats()
	if st.HistTrims == 0 || st.HistTrimmedEntries == 0 {
		t.Fatalf("trim never fired after full acknowledgement: %+v", st)
	}
	// Replication still works after the trim: fresh feedback flows, folds,
	// and serves identically.
	if _, err := svc1.Submit(9, 10, 0.7); err != nil {
		t.Fatal(err)
	}
	converge(t, nodes)
	if _, ran, err := svc0.RunEpoch(); err != nil || !ran {
		t.Fatalf("svc0 epoch: ran=%v err=%v", ran, err)
	}
	if _, ran, err := svc1.RunEpoch(); err != nil || !ran {
		t.Fatalf("svc1 epoch: ran=%v err=%v", ran, err)
	}
	v0, v1 := svc0.View(), svc1.View()
	for j := 0; j < n; j++ {
		r0, _ := v0.Reputation(j)
		r1, _ := v1.Reputation(j)
		if r0 != r1 {
			t.Fatalf("subject %d diverged after trim: %v vs %v", j, r0, r1)
		}
	}
}
