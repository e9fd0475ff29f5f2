package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"diffgossip/internal/cluster"
	"diffgossip/internal/core"
	"diffgossip/internal/graph"
	"diffgossip/internal/httpapi"
	"diffgossip/internal/service"
	"diffgossip/internal/transport"
)

// readyBody decodes one /readyz response.
type readyBody struct {
	Ready   bool     `json:"ready"`
	Reasons []string `json:"reasons"`
}

// TestReadyzStandalone: a healthy standalone server is ready, and /healthz
// stays a pure liveness probe alongside it.
func TestReadyzStandalone(t *testing.T) {
	ts, _ := newTestServer(t, 16, 0)
	var rb readyBody
	if r := getJSON(t, ts.URL+"/readyz", &rb); r.StatusCode != 200 || !rb.Ready {
		t.Fatalf("/readyz = %d %+v, want 200 ready", r.StatusCode, rb)
	}
	var hb map[string]any
	if r := getJSON(t, ts.URL+"/healthz", &hb); r.StatusCode != 200 || hb["ok"] != true {
		t.Fatalf("/healthz = %d %+v, want 200 ok", r.StatusCode, hb)
	}
}

// TestReadyzDegradedMembership: a cluster member whose only peer is dead
// fails readiness — and still answers /healthz 200, because a partitioned
// process is alive, just not routable.
func TestReadyzDegradedMembership(t *testing.T) {
	g, err := graph.PreferentialAttachment(graph.PAConfig{N: 16, M: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	svc, err := service.New(service.Config{
		Graph:  g,
		Params: core.Params{Epsilon: 1e-6, Seed: 3},
		// A replicating service, as in real cluster mode.
		Origin: tr.Addr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	// The sole seed points at a port nobody listens on; with millisecond
	// thresholds it is dead almost immediately.
	node, err := cluster.New(cluster.Config{
		Service: svc, Transport: tr, Peers: []string{"127.0.0.1:1"},
		SuspectAfter: time.Millisecond, DeadAfter: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	ts := httptest.NewServer(newClusterServer(svc, node, 0, nil))
	defer ts.Close()
	time.Sleep(5 * time.Millisecond) // let the thresholds pass

	var rb readyBody
	if r := getJSON(t, ts.URL+"/readyz", &rb); r.StatusCode != http.StatusServiceUnavailable || rb.Ready {
		t.Fatalf("/readyz = %d %+v, want 503 not-ready", r.StatusCode, rb)
	}
	if len(rb.Reasons) == 0 {
		t.Fatal("degraded /readyz carries no reasons")
	}
	var hb map[string]any
	if r := getJSON(t, ts.URL+"/healthz", &hb); r.StatusCode != 200 {
		t.Fatalf("/healthz = %d while degraded, want 200 (liveness is not readiness)", r.StatusCode)
	}
}

// TestReadyzStalledScheduler: pending feedback past the stall grace with a
// scheduled epoch interval fails readiness.
func TestReadyzStalledScheduler(t *testing.T) {
	g, err := graph.PreferentialAttachment(graph.PAConfig{N: 16, M: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// EpochInterval stays 0 (no real scheduler runs) but the server is told
	// one exists with a tiny interval: pending feedback then looks stalled
	// as soon as the grace passes.
	svc, err := service.New(service.Config{Graph: g, Params: core.Params{Epsilon: 1e-6, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httpapi.New(httpapi.Config{
		Service: svc, EpochEvery: time.Millisecond,
		Started: time.Now().Add(-time.Second), // the grace has long passed
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var rb readyBody
	if r := getJSON(t, ts.URL+"/readyz", &rb); r.StatusCode != 200 {
		t.Fatalf("/readyz with empty backlog = %d %+v, want 200", r.StatusCode, rb)
	}
	if _, err := svc.Submit(1, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	if r := getJSON(t, ts.URL+"/readyz", &rb); r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with stalled backlog = %d %+v, want 503", r.StatusCode, rb)
	}
	// An epoch clears the backlog and readiness recovers.
	if _, _, err := svc.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	if r := getJSON(t, ts.URL+"/readyz", &rb); r.StatusCode != 200 || !rb.Ready {
		t.Fatalf("/readyz after fold = %d %+v, want 200 ready", r.StatusCode, rb)
	}
}

// bootClusterDgserve starts a full cluster-mode dgserve via run() over dir and
// returns its HTTP address once it serves, plus the channel run's result
// arrives on.
func bootClusterDgserve(t *testing.T, dir string, peers []string) (addr string, done chan error) {
	t.Helper()
	ready := make(chan string, 1)
	done = make(chan error, 1)
	go func() {
		done <- run(runConfig{
			listen: "127.0.0.1:0", n: 16, m: 2, graphSeed: 42, seed: 1,
			epsilon: 1e-6, epoch: 0, shards: 1,
			dataDir: dir, clusterListen: "127.0.0.1:0", peers: peers,
			antiEntropy: 10 * time.Millisecond,
			ready:       func(addr string) { ready <- addr },
		})
	}()
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("run exited before serving: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	return addr, done
}

// sigtermSelf sends this process SIGTERM — every run() in flight receives it
// — and requires each to return nil.
func sigtermSelf(t *testing.T, dones ...chan error) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for _, done := range dones {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run returned %v after SIGTERM, want nil", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("run did not shut down after SIGTERM")
		}
	}
}

// clusterStats is the slice of /v1/stats the boot tests read.
type clusterStats struct {
	Cluster struct {
		Self  string            `json:"self"`
		Marks map[string]uint64 `json:"marks"`
	} `json:"cluster"`
}

// TestGracefulShutdownOnSIGTERM boots a full cluster-mode dgserve via run(),
// exercises the write path, sends the process SIGTERM, and requires a clean
// exit — with the WAL durable on disk afterwards and nothing else written
// beside it on replication's behalf.
func TestGracefulShutdownOnSIGTERM(t *testing.T) {
	dir := t.TempDir()
	addr, done := bootClusterDgserve(t, dir, nil)

	resp, body := postJSON(t, "http://"+addr+"/v1/feedback", `{"rater":3,"subject":7,"value":0.9}`)
	if resp.StatusCode != 202 {
		t.Fatalf("feedback status %d: %s", resp.StatusCode, body)
	}
	var rb readyBody
	if r := getJSON(t, "http://"+addr+"/readyz", &rb); r.StatusCode != 200 {
		t.Fatalf("/readyz = %d %+v", r.StatusCode, rb)
	}

	sigtermSelf(t, done)

	// The accepted entry must have survived: the WAL was synced on the way
	// out, and a fresh service over the same directory replays it.
	svc, err := runConfig{
		n: 16, m: 2, graphSeed: 42, seed: 1, epsilon: 1e-6,
		shards: 1, dataDir: dir,
	}.newService("node-x") // an origin selects the replicating config
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if got := svc.ReplicationMark(svc.Origin()); got != 1 {
		t.Fatalf("replayed local watermark = %d, want the accepted entry", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "hints.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("a hints.jsonl was created (stat err %v); owed entries live in the WAL only", err)
	}
}

// TestStaleHintFileIgnored: a data directory written by a build that still
// kept <data>/hints.jsonl boots normally. The file is neither opened (the old
// boot would have cut its torn last line off) nor removed nor rewritten: it
// is byte-identical after boot, replication to a second node, and a clean
// shutdown — the entries it once buffered are in the WAL.
func TestStaleHintFileIgnored(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	stale := []byte(`{"peer":"127.0.0.1:9081","origin":"127.0.0.1:9080","after":0,"entries":[{"origin_seq":1,"rater":3,"subject":7,"value":0.9}]}` +
		"\n" + `{"peer":"127.0.0.1:9081","orig`)
	stalePath := filepath.Join(dirA, "hints.jsonl")
	if err := os.WriteFile(stalePath, stale, 0o644); err != nil {
		t.Fatal(err)
	}

	addrA, doneA := bootClusterDgserve(t, dirA, nil)
	var stA clusterStats
	if r := getJSON(t, "http://"+addrA+"/v1/stats", &stA); r.StatusCode != 200 || stA.Cluster.Self == "" {
		t.Fatalf("/v1/stats on A = %d %+v, want a cluster section", r.StatusCode, stA)
	}
	addrB, doneB := bootClusterDgserve(t, dirB, []string{stA.Cluster.Self})

	resp, body := postJSON(t, "http://"+addrA+"/v1/feedback", `{"rater":3,"subject":7,"value":0.9}`)
	if resp.StatusCode != 202 {
		t.Fatalf("feedback status %d: %s", resp.StatusCode, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var stB clusterStats
		getJSON(t, "http://"+addrB+"/v1/stats", &stB)
		if stB.Cluster.Marks[stA.Cluster.Self] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("entry never replicated to B; B stats %+v", stB)
		}
		time.Sleep(5 * time.Millisecond)
	}

	sigtermSelf(t, doneA, doneB)

	got, err := os.ReadFile(stalePath)
	if err != nil {
		t.Fatalf("stale hints.jsonl gone after a run: %v", err)
	}
	if !bytes.Equal(got, stale) {
		t.Fatalf("stale hints.jsonl was rewritten:\n got %q\nwant %q", got, stale)
	}
}

// TestHealthzBody pins the liveness payload fields used by probes.
func TestHealthzBody(t *testing.T) {
	ts, svc := newTestServer(t, 16, 0)
	res, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var hb struct {
		OK     bool `json:"ok"`
		N      int  `json:"n"`
		Shards int  `json:"shards"`
	}
	if err := json.NewDecoder(res.Body).Decode(&hb); err != nil {
		t.Fatal(err)
	}
	if !hb.OK || hb.N != svc.N() || hb.Shards != svc.Shards() {
		t.Fatalf("healthz body %+v, want n=%d shards=%d", hb, svc.N(), svc.Shards())
	}
}
