package cluster

import (
	"reflect"
	"testing"

	"diffgossip/internal/core"
	"diffgossip/internal/graph"
	"diffgossip/internal/rng"
	"diffgossip/internal/service"
	"diffgossip/internal/transport"
)

// newDurableClusterService is newClusterService over its own data directory,
// so CompactWAL can trim the node's WAL and with it its replication history.
func newDurableClusterService(t *testing.T, g *graph.Graph, shards int, origin string) *service.Service {
	t.Helper()
	svc, err := service.New(service.Config{
		Graph:  g,
		Params: core.Params{Epsilon: 1e-6, Seed: 11},
		Dir:    t.TempDir(),
		Shards: shards,
		Origin: origin,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

// TestClusterSnapshotBootstrap is the acceptance scenario for snapshot-shipped
// bootstrap: an established node has ingested and folded heavy supersession
// traffic (and compacted its WAL, and with it its retained history, down to
// the live subset), and a fresh node joins. The join must go through one
// state transfer — not an entry-by-entry replay of the full history — that
// ships exactly the compacted entries, and end bit-identical.
func TestClusterSnapshotBootstrap(t *testing.T) {
	const n = 48
	g := testGraph(t, n)
	hub := transport.NewHub()
	epA, err := hub.Endpoint("node-a")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { epA.Close() })
	svcA := newDurableClusterService(t, g, 3, "node-a")
	a, err := New(Config{Service: svcA, Transport: epA, Peers: []string{"node-b"}, BootstrapLag: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Established traffic with heavy supersession, folded over several
	// epochs, then compacted to its live subset: the transfer ships live
	// state, not history. 600 write-once ratings keep the dead entries
	// below the live ones, so the epochs leave the compaction to CompactWAL.
	vals := rng.New(3)
	for k := 0; k < 600; k++ {
		if _, err := svcA.Submit(16+k%32, 16+k/32, 0.5); err != nil {
			t.Fatal(err)
		}
	}
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
	compacted, err := svcA.CompactWAL()
	if err != nil {
		t.Fatal(err)
	}
	if compacted.EntriesAfter >= compacted.EntriesBefore {
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
	// The transfer carried A's compacted WAL, entry for entry.
	if got := svcB.LedgerSeq(); got != uint64(compacted.EntriesAfter) {
		t.Fatalf("B holds %d entries after bootstrap, want A's %d compacted ones", got, compacted.EntriesAfter)
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

// TestClusterCompactionTrimsHistory pins the one retention rule in a live
// cluster: CompactWAL trims a node's replication history with its WAL,
// whether or not every member it lists has ever answered (node-0 also lists
// a seed that never does), and replication stays correct afterwards — a
// node that joins later pulls only the compacted streams, entry by entry,
// and still serves bit-identical reads.
func TestClusterCompactionTrimsHistory(t *testing.T) {
	const n = 32
	g := testGraph(t, n)
	hub := transport.NewHub()
	names := []string{"node-0", "node-1", "node-2"}
	peers := [][]string{{"node-1", "node-silent"}, {"node-0"}, {"node-0", "node-1"}}
	svcs := make([]*service.Service, 3)
	nodes := make([]*Node, 3)
	for i, nm := range names {
		ep, err := hub.Endpoint(nm)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		svcs[i] = newDurableClusterService(t, g, 2, nm)
		if nodes[i], err = New(Config{Service: svcs[i], Transport: ep, Peers: peers[i]}); err != nil {
			t.Fatal(err)
		}
	}
	epoch := func(svcs ...*service.Service) {
		t.Helper()
		for _, svc := range svcs {
			if _, ran, err := svc.RunEpoch(); err != nil || !ran {
				t.Fatalf("%s epoch: ran=%v err=%v", svc.Origin(), ran, err)
			}
		}
	}

	// 50 ratings over 4 cells, replicated to node-1 and folded on both. As
	// many write-once ratings keep the dead entries below the live ones, so
	// the epochs leave the compaction to CompactWAL.
	const ballast = 50
	for k := 0; k < ballast; k++ {
		if _, err := svcs[0].Submit(4+k%28, 4+k/28, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 50; k++ {
		if _, err := svcs[0].Submit(k%4, (k+1)%4, float64(k)/50); err != nil {
			t.Fatal(err)
		}
	}
	converge(t, nodes[:2])
	epoch(svcs[0], svcs[1])
	for _, svc := range svcs[:2] {
		st, err := svc.CompactWAL()
		if err != nil {
			t.Fatal(err)
		}
		if st.EntriesBefore != ballast+50 || st.EntriesAfter != ballast+4 {
			t.Fatalf("%s compacted %d entries to %d, want %d to %d", svc.Origin(), st.EntriesBefore, st.EntriesAfter, ballast+50, ballast+4)
		}
		if got := len(svc.ReplicationEntriesSince("node-0", 0, 0)); got != st.EntriesAfter {
			t.Fatalf("%s retains %d node-0 history entries, want the WAL's %d", svc.Origin(), got, st.EntriesAfter)
		}
		if got := svc.ReplicationMark("node-0"); got != ballast+50 {
			t.Fatalf("%s node-0 mark %d after compaction, want %d", svc.Origin(), got, ballast+50)
		}
	}

	// Fresh feedback flows both ways past the compaction, node-2 joins and
	// pulls the compacted streams, and all three serve identically.
	if _, err := svcs[1].Submit(9, 10, 0.7); err != nil {
		t.Fatal(err)
	}
	converge(t, nodes)
	if st := nodes[2].Stats(); st.EntriesApplied != ballast+5 || st.BootstrapsInstalled != 0 {
		t.Fatalf("node-2 applied %d entries (%d bootstraps), want the %d compacted + 1 new by entry replay", st.EntriesApplied, st.BootstrapsInstalled, ballast+4)
	}
	epoch(svcs...)
	v0 := svcs[0].View()
	for _, svc := range svcs[1:] {
		v := svc.View()
		for j := 0; j < n; j++ {
			r0, _ := v0.Reputation(j)
			r, _ := v.Reputation(j)
			if r0 != r {
				t.Fatalf("subject %d: %s serves %v, node-0 %v", j, svc.Origin(), r, r0)
			}
		}
	}
}
