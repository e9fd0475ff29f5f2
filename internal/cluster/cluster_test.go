package cluster

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"diffgossip/internal/core"
	"diffgossip/internal/graph"
	"diffgossip/internal/rng"
	"diffgossip/internal/service"
	"diffgossip/internal/transport"
)

// newClusterService builds one replica's replicating service: every replica
// shares the overlay and the base seed, so converged replicas serve
// bit-identical reputations regardless of their epoch counts. origin must be
// the replica's transport address (cluster.New enforces the match).
func newClusterService(t *testing.T, g *graph.Graph, shards int, origin string) *service.Service {
	t.Helper()
	svc, err := service.New(service.Config{
		Graph:  g,
		Params: core.Params{Epsilon: 1e-6, Seed: 11},
		Shards: shards,
		Origin: origin,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

func testGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := graph.PreferentialAttachment(graph.PAConfig{N: n, M: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// hubCluster builds k manually driven nodes over one in-memory hub.
func hubCluster(t *testing.T, g *graph.Graph, k, shards int) ([]*service.Service, []*Node) {
	t.Helper()
	hub := transport.NewHub()
	names := make([]string, k)
	for i := range names {
		names[i] = fmt.Sprintf("node-%d", i)
	}
	svcs := make([]*service.Service, k)
	nodes := make([]*Node, k)
	for i := 0; i < k; i++ {
		ep, err := hub.Endpoint(names[i])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		var peers []string
		for j, nm := range names {
			if j != i {
				peers = append(peers, nm)
			}
		}
		svcs[i] = newClusterService(t, g, shards, names[i])
		nodes[i], err = New(Config{Service: svcs[i], Transport: ep, Peers: peers})
		if err != nil {
			t.Fatal(err)
		}
	}
	return svcs, nodes
}

// converge runs synchronous anti-entropy rounds until every node holds the
// same watermarks (or the iteration bound trips).
func converge(t *testing.T, nodes []*Node) {
	t.Helper()
	for i := 0; i < 100; i++ {
		for _, nd := range nodes {
			nd.Exchange()
		}
		// Two passes: the first turns digests into entry batches, the
		// second applies batches that crossed mid-round.
		for pass := 0; pass < 2; pass++ {
			for _, nd := range nodes {
				nd.Drain()
			}
		}
		ref := nodes[0].Stats().Marks
		same := true
		for _, nd := range nodes[1:] {
			if !reflect.DeepEqual(ref, nd.Stats().Marks) {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	for _, nd := range nodes {
		t.Logf("%s marks: %v", nd.Self(), nd.Stats().Marks)
	}
	t.Fatal("cluster did not converge within the iteration bound")
}

// TestThreeNodeConvergence is the acceptance scenario: feedback submitted to
// any one node is readable from all nodes after anti-entropy + one epoch,
// with reputations bit-identical across nodes — and bit-identical to a
// standalone service that ingested everything directly.
func TestThreeNodeConvergence(t *testing.T) {
	const n = 48
	g := testGraph(t, n)
	svcs, nodes := hubCluster(t, g, 3, 3)

	// Every rater submits through its home node (rater mod 3); values come
	// from a seeded stream so the run is reproducible.
	solo := newClusterService(t, g, 3, "")
	vals := rng.New(99)
	for rater := 0; rater < n; rater++ {
		for k := 0; k < 3; k++ {
			subject := vals.Intn(n)
			if subject == rater {
				continue
			}
			v := vals.Float64()
			if _, err := svcs[rater%3].Submit(rater, subject, v); err != nil {
				t.Fatal(err)
			}
			if _, err := solo.Submit(rater, subject, v); err != nil {
				t.Fatal(err)
			}
		}
	}

	converge(t, nodes)
	for i, svc := range svcs {
		if _, ran, err := svc.RunEpoch(); err != nil || !ran {
			t.Fatalf("node %d epoch: ran=%v err=%v", i, ran, err)
		}
	}
	if _, ran, err := solo.RunEpoch(); err != nil || !ran {
		t.Fatalf("solo epoch: ran=%v err=%v", ran, err)
	}

	views := make([]*service.View, len(svcs))
	for i, svc := range svcs {
		views[i] = svc.View()
	}
	soloView := solo.View()
	rated := 0
	for j := 0; j < n; j++ {
		want, err := soloView.Reputation(j)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range views {
			got, err := v.Reputation(j)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("subject %d: node %d serves %v, standalone serves %v", j, i, got, want)
			}
			if v.Raters(j) != soloView.Raters(j) {
				t.Fatalf("subject %d: node %d rater count %d != %d", j, i, v.Raters(j), soloView.Raters(j))
			}
		}
		if soloView.Raters(j) > 0 {
			rated++
		}
	}
	if rated == 0 {
		t.Fatal("test degenerated: no subject was rated")
	}

	// Replication accounting: every node applied entries from both peers
	// and nothing was gapped on the reliable hub.
	for i, nd := range nodes {
		st := nd.Stats()
		if st.EntriesApplied == 0 {
			t.Fatalf("node %d applied no replicated entries: %+v", i, st)
		}
		if st.BatchesGapped != 0 {
			t.Fatalf("node %d saw gapped batches on a reliable transport: %+v", i, st)
		}
	}
}

// TestDuplicateAndGapHandling drives the apply path directly: re-delivered
// batches are idempotent, and a batch whose frame is ahead of the watermark
// is discarded whole.
func TestDuplicateAndGapHandling(t *testing.T) {
	g := testGraph(t, 16)
	hub := transport.NewHub()
	ep, err := hub.Endpoint("node-0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	fake, err := hub.Endpoint("fake-peer")
	if err != nil {
		t.Fatal(err)
	}
	defer fake.Close()

	svc := newClusterService(t, g, 1, "node-0")
	node, err := New(Config{Service: svc, Transport: ep, Peers: []string{"fake-peer"}})
	if err != nil {
		t.Fatal(err)
	}

	batch := transport.Message{
		Kind:   transport.KindEntries,
		Origin: "fake-peer",
		After:  0,
		Entries: []transport.FeedbackEntry{
			{OriginSeq: 1, Rater: 1, Subject: 2, Value: 0.5},
			{OriginSeq: 2, Rater: 3, Subject: 4, Value: 0.6},
		},
	}
	for i := 0; i < 2; i++ { // deliver the same batch twice
		if err := fake.Send("node-0", batch); err != nil {
			t.Fatal(err)
		}
	}
	// A gapped batch: claims to extend the stream past seq 10.
	gap := transport.Message{
		Kind: transport.KindEntries, Origin: "fake-peer", After: 10,
		Entries: []transport.FeedbackEntry{{OriginSeq: 11, Rater: 5, Subject: 6, Value: 0.7}},
	}
	if err := fake.Send("node-0", gap); err != nil {
		t.Fatal(err)
	}
	if got := node.Drain(); got != 3 {
		t.Fatalf("drained %d messages, want 3", got)
	}
	st := node.Stats()
	if st.EntriesApplied != 2 || st.EntriesDuplicate != 2 || st.BatchesGapped != 1 {
		t.Fatalf("stats = %+v, want 2 applied / 2 duplicate / 1 gapped", st)
	}
	if got := st.Marks["fake-peer"]; got != 2 {
		t.Fatalf("watermark = %d, want 2 (gapped batch must not advance it)", got)
	}
	if svc.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", svc.Pending())
	}
}

// TestDigestAnswersOnlyMissing: a peer that is already caught up receives no
// entry batches.
func TestDigestAnswersOnlyMissing(t *testing.T) {
	g := testGraph(t, 16)
	_, nodes := hubCluster(t, g, 2, 1)
	svc0 := nodes[0]
	if _, err := svc0Svc(t, nodes[0]).Submit(1, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	converge(t, nodes)
	sent := svc0.Stats().BatchesSent
	// Another full exchange with nothing new: no batches move.
	for _, nd := range nodes {
		nd.Exchange()
	}
	for pass := 0; pass < 2; pass++ {
		for _, nd := range nodes {
			nd.Drain()
		}
	}
	if got := svc0.Stats().BatchesSent; got != sent {
		t.Fatalf("idle exchange sent %d new batches", got-sent)
	}
}

// svc0Svc digs the service back out of a node for test ergonomics.
func svc0Svc(t *testing.T, n *Node) *service.Service {
	t.Helper()
	return n.svc
}

// TestOneWayJoinStillReplicatesBothWays: only B lists A as a peer, yet
// feedback submitted to B must still reach A — B's digest shows A it is
// behind, and A reciprocates with its own digest, turning the one-way join
// into two-way replication.
func TestOneWayJoinStillReplicatesBothWays(t *testing.T) {
	g := testGraph(t, 16)
	hub := transport.NewHub()
	epA, err := hub.Endpoint("node-a")
	if err != nil {
		t.Fatal(err)
	}
	defer epA.Close()
	epB, err := hub.Endpoint("node-b")
	if err != nil {
		t.Fatal(err)
	}
	defer epB.Close()
	svcA, svcB := newClusterService(t, g, 1, "node-a"), newClusterService(t, g, 1, "node-b")
	nodeA, err := New(Config{Service: svcA, Transport: epA}) // A joins nobody
	if err != nil {
		t.Fatal(err)
	}
	nodeB, err := New(Config{Service: svcB, Transport: epB, Peers: []string{"node-a"}})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := svcB.Submit(1, 2, 0.7); err != nil {
		t.Fatal(err)
	}
	// B digests A (the only configured edge); A sees B is ahead,
	// reciprocates, B answers with the entry, A applies it.
	nodeB.Exchange()
	for i := 0; i < 4; i++ {
		nodeA.Drain()
		nodeB.Drain()
	}
	if got := svcA.ReplicationMark("node-b"); got != 1 {
		t.Fatalf("A's watermark for B = %d, want 1 (reciprocal digest broken); A stats %+v", got, nodeA.Stats())
	}
	if svcA.Pending() != 1 {
		t.Fatalf("A pending = %d, want the replicated entry", svcA.Pending())
	}
}

// TestTCPClusterReplication runs a two-node cluster over real sockets in the
// asynchronous Start mode and waits for a submission on one node to become
// readable on the other.
func TestTCPClusterReplication(t *testing.T) {
	g := testGraph(t, 16)
	tr1, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tr1.Close()
	tr2, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()

	svc1 := newClusterService(t, g, 1, tr1.Addr())
	svc2 := newClusterService(t, g, 1, tr2.Addr())
	n1, err := New(Config{Service: svc1, Transport: tr1, Peers: []string{tr2.Addr()}, Interval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	n2, err := New(Config{Service: svc2, Transport: tr2, Peers: []string{tr1.Addr()}, Interval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	n1.Start()
	n2.Start()
	defer n1.Close()
	defer n2.Close()

	if _, err := svc1.Submit(3, 7, 0.9); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for svc2.ReplicationMarks()[tr1.Addr()] < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("entry never replicated; node2 stats: %+v", n2.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, ran, err := svc2.RunEpoch(); err != nil || !ran {
		t.Fatalf("epoch on replica: ran=%v err=%v", ran, err)
	}
	got, _, err := svc2.Reputation(7)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.9 {
		t.Fatalf("replicated reputation = %v, want 0.9", got)
	}
	st := n2.Stats()
	if len(st.Peers) == 0 || st.Peers[0].LastSeenUnixNano == 0 {
		t.Fatalf("peer health never updated: %+v", st.Peers)
	}
}

// TestClusterRaceHammer runs a 3-node hub cluster fully asynchronously —
// ticker-driven exchanges, concurrent submitters, concurrent epochs — as a
// -race workout for the replication paths.
func TestClusterRaceHammer(t *testing.T) {
	const n = 32
	g := testGraph(t, n)
	hub := transport.NewHub()
	svcs := make([]*service.Service, 3)
	nodes := make([]*Node, 3)
	names := []string{"h0", "h1", "h2"}
	for i := range svcs {
		ep, err := hub.Endpoint(names[i])
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		var peers []string
		for j, nm := range names {
			if j != i {
				peers = append(peers, nm)
			}
		}
		svcs[i] = newClusterService(t, g, 4, names[i])
		nodes[i], err = New(Config{Service: svcs[i], Transport: ep, Peers: peers, Interval: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i].Start()
		defer nodes[i].Close()
	}

	done := make(chan struct{})
	for w := 0; w < 3; w++ {
		go func(w int) {
			vals := rng.New(uint64(w + 1))
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				rater := (vals.Intn(n/3))*3 + w // disjoint rater sets per node
				if rater >= n {
					continue
				}
				subject := vals.Intn(n)
				if subject == rater {
					continue
				}
				svcs[w].Submit(rater, subject, vals.Float64())
				if i%16 == 0 {
					svcs[w].RunEpoch()
				}
			}
		}(w)
	}
	// Keep hammering until every node has applied a replicated entry.
	deadline := time.Now().Add(30 * time.Second)
	for i, nd := range nodes {
		for nd.Stats().EntriesApplied == 0 {
			if time.Now().After(deadline) {
				close(done)
				t.Fatalf("node %d never applied a replicated entry: %+v", i, nd.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}
	close(done)
}
