package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"diffgossip/internal/cluster"
	"diffgossip/internal/core"
	"diffgossip/internal/graph"
	"diffgossip/internal/service"
	"diffgossip/internal/transport"
)

// newClusterMember builds one federated dgserve: service (replicating, fixed
// epoch seed), TCP replication transport, cluster node, HTTP server.
func newClusterMember(t *testing.T, g *graph.Graph, peers []string) (*httptest.Server, *service.Service, *cluster.Node, *transport.TCPTransport) {
	t.Helper()
	// Transport first: its bound address is the service's LWW origin.
	tr, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Config{
		Graph:  g,
		Params: core.Params{Epsilon: 1e-6, Seed: 3},
		Shards: 2,
		Origin: tr.Addr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	node, err := cluster.New(cluster.Config{
		Service: svc, Transport: tr, Peers: peers, Interval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	node.Start()
	svc.SetReplicator(node)
	ts := httptest.NewServer(newClusterServer(svc, node, 0, nil))
	t.Cleanup(func() {
		ts.Close()
		node.Close()
		tr.Close()
		svc.Close()
	})
	return ts, svc, node, tr
}

// TestHTTPClusterEndToEnd federates two dgserve instances over real TCP and
// proves the full path: feedback POSTed to node A is served — with the exact
// same value — by node B, and B's /v1/stats reports the replication state.
func TestHTTPClusterEndToEnd(t *testing.T) {
	g, err := graph.PreferentialAttachment(graph.PAConfig{N: 32, M: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// A has no peers of its own; B digests A, and pull-based anti-entropy
	// needs nothing more for B to catch up on A's stream.
	tsA, svcA, _, tra := newClusterMember(t, g, nil)
	tsB, svcB, nodeB, _ := newClusterMember(t, g, []string{tra.Addr()})

	resp, body := postJSON(t, tsA.URL+"/v1/feedback", `{"rater":3,"subject":7,"value":0.9}`)
	if resp.StatusCode != 202 {
		t.Fatalf("feedback status %d: %s", resp.StatusCode, body)
	}

	deadline := time.Now().Add(5 * time.Second)
	for svcB.ReplicationMarks()[tra.Addr()] < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("entry never replicated to B; stats: %+v", nodeB.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Fold on both and read the subject from B.
	if _, _, err := svcA.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svcB.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Reputation float64 `json:"reputation"`
		Raters     int     `json:"raters"`
	}
	if r := getJSON(t, tsB.URL+"/v1/reputation/7", &rep); r.StatusCode != 200 {
		t.Fatalf("reputation status %d", r.StatusCode)
	}
	if math.Abs(rep.Reputation-0.9) > 1e-4 || rep.Raters != 1 {
		t.Fatalf("node B serves %+v, want ~0.9 from 1 rater", rep)
	}
	// And bit-identical to what A itself serves (shared seed + fixed epoch
	// seed: converged replicas answer with the same bits).
	var repA struct {
		Reputation float64 `json:"reputation"`
	}
	if r := getJSON(t, tsA.URL+"/v1/reputation/7", &repA); r.StatusCode != 200 {
		t.Fatalf("reputation status on A %d", r.StatusCode)
	}
	if repA.Reputation != rep.Reputation {
		t.Fatalf("A serves %v, B serves %v — replicas must be bit-identical", repA.Reputation, rep.Reputation)
	}

	// The stats surface carries the cluster section with peer health.
	var st struct {
		Shards  int `json:"shards"`
		Cluster *struct {
			Self           string            `json:"self"`
			Marks          map[string]uint64 `json:"marks"`
			EntriesApplied uint64            `json:"entries_applied"`
			Peers          []struct {
				Addr     string `json:"addr"`
				LastSeen int64  `json:"last_seen_unix_nano"`
			} `json:"peers"`
		} `json:"cluster"`
	}
	if r := getJSON(t, tsB.URL+"/v1/stats", &st); r.StatusCode != 200 {
		t.Fatalf("stats status %d", r.StatusCode)
	}
	if st.Cluster == nil {
		t.Fatal("stats response lacks the cluster section")
	}
	if st.Cluster.EntriesApplied != 1 {
		t.Fatalf("cluster stats: %+v, want 1 entry applied", st.Cluster)
	}
	if st.Cluster.Marks[tra.Addr()] != 1 {
		t.Fatalf("cluster marks: %+v, want %s at 1", st.Cluster.Marks, tra.Addr())
	}
	if len(st.Cluster.Peers) == 0 || st.Cluster.Peers[0].LastSeen == 0 {
		t.Fatalf("peer health missing: %+v", st.Cluster.Peers)
	}

	// A standalone server's stats must NOT grow a cluster section.
	var raw map[string]json.RawMessage
	tsSolo, _ := newTestServer(t, 16, 0)
	if r := getJSON(t, tsSolo.URL+"/v1/stats", &raw); r.StatusCode != 200 {
		t.Fatalf("solo stats status %d", r.StatusCode)
	}
	if _, ok := raw["cluster"]; ok {
		t.Fatal("standalone stats unexpectedly carries a cluster section")
	}
}

// TestClusterModeRequiresData: an in-memory ledger restarts from seq 1 and
// peers would discard everything after as duplicates; run() must refuse.
func TestClusterModeRequiresData(t *testing.T) {
	err := run(runConfig{
		listen: "127.0.0.1:0", n: 12, m: 2, epsilon: 1e-4,
		clusterListen: "127.0.0.1:0",
	})
	if err == nil || !strings.Contains(err.Error(), "-data") {
		t.Fatalf("cluster mode without -data: err = %v, want a -data requirement", err)
	}
}

// TestJoinFlagParsing covers the -join list splitting (blanks trimmed, empty
// items dropped) and its wiring through runConfig into the cluster node.
func TestJoinFlagParsing(t *testing.T) {
	c, err := parseFlags([]string{
		"-n", "12", "-epsilon", "1e-4", "-cluster-listen", "127.0.0.1:0",
		"-join", " 10.0.0.1:9080, 10.0.0.2:9080,",
		"-anti-entropy", "1h", // no background churn in the test
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"10.0.0.1:9080", "10.0.0.2:9080"}; !reflect.DeepEqual(c.peers, want) {
		t.Fatalf("-join parsed to %q, want %q", c.peers, want)
	}
	tr, err := transport.ListenTCP(c.clusterListen)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := c.newService(tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if svc.ReplicationMarks() == nil {
		t.Fatal("cluster-mode service was not built with a replicating ledger")
	}
	node, stop, err := c.newCluster(svc, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	st := node.Stats()
	if len(st.Peers) != 2 {
		t.Fatalf("peers = %+v, want the two -join addresses", st.Peers)
	}
	if fmt.Sprint(st.Peers[0].Addr, st.Peers[1].Addr) != "10.0.0.1:908010.0.0.2:9080" {
		t.Fatalf("peer addresses = %+v", st.Peers)
	}
}
