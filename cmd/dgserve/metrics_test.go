package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"diffgossip/internal/cluster"
	"diffgossip/internal/core"
	"diffgossip/internal/graph"
	"diffgossip/internal/httpapi"
	"diffgossip/internal/obs"
	"diffgossip/internal/service"
	"diffgossip/internal/transport"
)

// scrapeMetrics GETs /metrics and parses the exposition, failing the test on
// transport, status or format problems.
func scrapeMetrics(t *testing.T, client *http.Client, base string) []obs.Family {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	fams, err := obs.ParseExposition(body)
	if err != nil {
		t.Fatalf("/metrics does not parse: %v\n%s", err, body)
	}
	return fams
}

// metricValue finds one sample by exact name and label string.
func metricValue(t *testing.T, fams []obs.Family, name, labels string) float64 {
	t.Helper()
	for _, f := range fams {
		for _, s := range f.Samples {
			if s.Name == name && s.Labels == labels {
				return s.Value
			}
		}
	}
	t.Fatalf("metric %s{%s} not exposed", name, labels)
	return 0
}

func hasFamily(fams []obs.Family, name string) bool {
	for _, f := range fams {
		if f.Name == name {
			return true
		}
	}
	return false
}

// newInstrumentedMember is newClusterMember plus full instrumentation into a
// fresh registry: service (and its ledger), transport and cluster node, with
// the HTTP layer wired through newClusterServer.
func newInstrumentedMember(t *testing.T, g *graph.Graph, peers []string) (*httptest.Server, *service.Service, *cluster.Node, *transport.TCPTransport) {
	t.Helper()
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
	reg := obs.NewRegistry()
	svc.Instrument(reg)
	tr.Instrument(reg)
	node.Instrument(reg)
	node.Start()
	svc.SetReplicator(node)
	ts := httptest.NewServer(newClusterServer(svc, node, 0, reg))
	t.Cleanup(func() {
		ts.Close()
		node.Close()
		tr.Close()
		svc.Close()
	})
	return ts, svc, node, tr
}

// TestMetricsCoverAllLayers boots a two-node cluster, drives the write path
// through HTTP and replication, and requires the scrape to expose metrics
// from every layer of the stack — HTTP middleware, service epochs, store
// WAL, cluster anti-entropy and TCP transport — as well-formed exposition.
func TestMetricsCoverAllLayers(t *testing.T) {
	g, err := graph.PreferentialAttachment(graph.PAConfig{N: 32, M: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tsA, svcA, _, tra := newInstrumentedMember(t, g, nil)
	_, svcB, nodeB, _ := newInstrumentedMember(t, g, []string{tra.Addr()})

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
	if _, _, err := svcA.RunEpoch(); err != nil {
		t.Fatal(err)
	}

	fams := scrapeMetrics(t, tsA.Client(), tsA.URL)
	for _, name := range []string{
		// HTTP layer (dgserve middleware).
		"dgserve_http_requests_total",
		"dgserve_http_request_duration_seconds",
		"dgserve_http_in_flight_requests",
		"dgserve_ready",
		"dgserve_unready_reason",
		// Service layer.
		"diffgossip_service_epochs_total",
		"diffgossip_service_folded_shards_total",
		"diffgossip_service_campaign_steps_total",
		"diffgossip_service_epoch_duration_seconds",
		"diffgossip_service_pending_entries",
		// Store layer.
		"diffgossip_store_ledger_entries_total",
		"diffgossip_store_wal_appends_total",
		// Cluster layer.
		"diffgossip_cluster_exchanges_total",
		"diffgossip_cluster_entries_applied_total",
		"diffgossip_cluster_members",
		// Transport layer.
		"diffgossip_transport_sends_total",
		"diffgossip_transport_dials_total",
	} {
		if !hasFamily(fams, name) {
			t.Errorf("layer metric %s missing from scrape", name)
		}
	}
	if len(fams) < 25 {
		t.Fatalf("scrape exposes %d families, want >= 25", len(fams))
	}

	// The write path left its marks: one feedback POST counted with a 2xx
	// code, one epoch folded, one ledger entry recorded.
	if got := metricValue(t, fams, "dgserve_http_requests_total", `code="2xx",route="/v1/feedback"`); got != 1 {
		t.Errorf("feedback request count = %v, want 1", got)
	}
	if got := metricValue(t, fams, "diffgossip_service_epochs_total", ""); got != 1 {
		t.Errorf("epochs counter = %v, want 1", got)
	}
	if got := metricValue(t, fams, "diffgossip_store_ledger_entries_total", ""); got != 1 {
		t.Errorf("ledger entries counter = %v, want 1", got)
	}
}

// TestClusterStatsAndMetricsAgree requires /v1/stats and /metrics on the same
// node to tell one story: the replication counters and epoch pipeline state
// exposed to Prometheus must equal the JSON stats — both read the same
// underlying counters, so once the cluster is quiescent on the entry path
// they agree exactly.
func TestClusterStatsAndMetricsAgree(t *testing.T) {
	g, err := graph.PreferentialAttachment(graph.PAConfig{N: 32, M: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	_, svcA, _, tra := newInstrumentedMember(t, g, nil)
	tsB, svcB, _, _ := newInstrumentedMember(t, g, []string{tra.Addr()})

	for i := 0; i < 3; i++ {
		if _, err := svcA.Submit(i, 7, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for svcB.ReplicationMarks()[tra.Addr()] < 3 {
		if time.Now().After(deadline) {
			t.Fatal("entries never replicated to B")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, _, err := svcB.RunEpoch(); err != nil {
		t.Fatal(err)
	}

	var st statsResponse
	if resp := getJSON(t, tsB.URL+"/v1/stats", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	if st.Cluster == nil {
		t.Fatal("stats carry no cluster section")
	}
	fams := scrapeMetrics(t, tsB.Client(), tsB.URL)

	// Entry-path counters are quiescent (everything replicated and folded),
	// so JSON and exposition must agree exactly.
	for _, c := range []struct {
		metric string
		want   float64
	}{
		{"diffgossip_cluster_entries_applied_total", float64(st.Cluster.EntriesApplied)},
		{"diffgossip_cluster_entries_duplicate_total", float64(st.Cluster.EntriesDuplicate)},
		{"diffgossip_service_epochs_total", float64(st.Epochs)},
		{"diffgossip_service_folded_shards_total", float64(st.FoldedShards)},
		{"diffgossip_service_folded_subjects_total", float64(st.FoldedSubjects)},
		{"diffgossip_service_pending_entries", float64(st.Pending)},
	} {
		if got := metricValue(t, fams, c.metric, ""); got != c.want {
			t.Errorf("%s = %v, /v1/stats says %v", c.metric, got, c.want)
		}
	}
	if st.Cluster.EntriesApplied != 3 {
		t.Fatalf("entries applied = %d, want 3", st.Cluster.EntriesApplied)
	}
}

// TestReadyzAndMetricsAgree drives the readiness probe through
// ready → stalled → recovered and requires the dgserve_ready /
// dgserve_unready_reason gauges to match the probe verdict at every step —
// both are computed by the same readyReasons pass.
func TestReadyzAndMetricsAgree(t *testing.T) {
	g, err := graph.PreferentialAttachment(graph.PAConfig{N: 16, M: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Config{Graph: g, Params: core.Params{Epsilon: 1e-6, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	reg := obs.NewRegistry()
	svc.Instrument(reg)
	// As in TestReadyzStalledScheduler: the server believes a millisecond
	// scheduler exists and the grace has long passed, so one pending entry
	// flips it to stalled.
	srv := httpapi.New(httpapi.Config{
		Service: svc, EpochEvery: time.Millisecond, Registry: reg,
		Started: time.Now().Add(-time.Second),
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	check := func(wantStatus int, wantReady float64, wantStalled float64) {
		t.Helper()
		if r := getJSON(t, ts.URL+"/readyz", nil); r.StatusCode != wantStatus {
			t.Fatalf("/readyz status %d, want %d", r.StatusCode, wantStatus)
		}
		fams := scrapeMetrics(t, client, ts.URL)
		if got := metricValue(t, fams, "dgserve_ready", ""); got != wantReady {
			t.Fatalf("dgserve_ready = %v, want %v", got, wantReady)
		}
		if got := metricValue(t, fams, "dgserve_unready_reason", `reason="scheduler_stalled"`); got != wantStalled {
			t.Fatalf("scheduler_stalled gauge = %v, want %v", got, wantStalled)
		}
		// The other reason gauges exist and stay clear in this scenario.
		for _, reason := range []string{"epoch_pipeline_failed", "membership_degraded"} {
			if got := metricValue(t, fams, "dgserve_unready_reason", `reason="`+reason+`"`); got != 0 {
				t.Fatalf("%s gauge = %v, want 0", reason, got)
			}
		}
	}

	check(http.StatusOK, 1, 0)
	if _, err := svc.Submit(1, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	check(http.StatusServiceUnavailable, 0, 1)
	if _, _, err := svc.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	check(http.StatusOK, 1, 0)
}

// TestTraceEndpoint folds a few epochs and requires GET /v1/trace to return
// them oldest-first with coherent per-shard timelines.
func TestTraceEndpoint(t *testing.T) {
	ts, svc := newTestServer(t, 40, 0)
	for e := 0; e < 3; e++ {
		for i := 0; i < 4; i++ {
			if _, err := svc.Submit(i, 10*i+e, 0.5); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := svc.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	var tr traceResponse
	if resp := getJSON(t, ts.URL+"/v1/trace", &tr); resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	if tr.Depth != service.DefaultTraceDepth {
		t.Fatalf("trace depth %d, want %d", tr.Depth, service.DefaultTraceDepth)
	}
	if len(tr.Epochs) != 3 {
		t.Fatalf("trace rows = %d, want 3", len(tr.Epochs))
	}
	for i, row := range tr.Epochs {
		if row.Epoch != uint64(i+1) {
			t.Fatalf("row %d epoch = %d, want %d (oldest first)", i, row.Epoch, i+1)
		}
		if row.Entries != 4 || row.DirtyShards < 1 || len(row.Shards) != row.DirtyShards {
			t.Fatalf("row %d accounting wrong: %+v", i, row)
		}
		if row.DurationNs <= 0 || row.StartUnixNano <= 0 {
			t.Fatalf("row %d has no timing: %+v", i, row)
		}
		for _, sh := range row.Shards {
			if sh.DurationNs <= 0 || sh.Computed <= 0 || !sh.Converged {
				t.Fatalf("row %d shard trace wrong: %+v", i, sh)
			}
			if sh.StartOffsetNs < 0 || sh.StartOffsetNs > row.DurationNs {
				t.Fatalf("row %d shard start offset %d outside epoch window %d", i, sh.StartOffsetNs, row.DurationNs)
			}
		}
	}
}
