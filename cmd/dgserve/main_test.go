package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"diffgossip/internal/core"
	"diffgossip/internal/graph"
	"diffgossip/internal/httpapi"
	"diffgossip/internal/obs"
	"diffgossip/internal/rng"
	"diffgossip/internal/service"
)

func newTestServer(t *testing.T, n int, interval time.Duration) (*httptest.Server, *service.Service) {
	t.Helper()
	g, err := graph.PreferentialAttachment(graph.PAConfig{N: n, M: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Config{
		Graph:         g,
		Params:        core.Params{Epsilon: 1e-6, Seed: 11},
		EpochInterval: interval,
		Shards:        4,
		FoldWorkers:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every test server is instrumented into its own registry (names
	// register once per registry), so /metrics is live under every test —
	// including the -race hammer.
	reg := obs.NewRegistry()
	svc.Instrument(reg)
	ts := httptest.NewServer(newClusterServer(svc, nil, interval, reg))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts, svc
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp
}

func TestFeedbackEpochQueryFlow(t *testing.T) {
	ts, _ := newTestServer(t, 40, 0)

	// Two ratings of subject 7 (mean 0.6), plus rater 3's direct trust in
	// node 5 — the high rater — which its GCLR view will upweight.
	resp, body := postJSON(t, ts.URL+"/v1/feedback", `{"rater":5,"subject":7,"value":0.9}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("feedback status %d: %s", resp.StatusCode, body)
	}
	var fb feedbackResponse
	if err := json.Unmarshal(body, &fb); err != nil {
		t.Fatal(err)
	}
	if fb.Seq != 1 || fb.Pending != 1 || fb.Epoch != 0 {
		t.Fatalf("feedback response %+v", fb)
	}
	postJSON(t, ts.URL+"/v1/feedback", `{"rater":6,"subject":7,"value":0.3}`)
	postJSON(t, ts.URL+"/v1/feedback", `{"rater":3,"subject":5,"value":0.9}`)

	// Not yet visible: reads serve the epoch-0 snapshot.
	var rep reputationResponse
	getJSON(t, ts.URL+"/v1/reputation/7", &rep)
	if rep.Reputation != 0 || rep.Epoch != 0 {
		t.Fatalf("pre-epoch read %+v", rep)
	}

	// Force an epoch, then the rater-mean appears.
	resp, body = postJSON(t, ts.URL+"/v1/epoch", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("epoch status %d: %s", resp.StatusCode, body)
	}
	var ep epochResponse
	if err := json.Unmarshal(body, &ep); err != nil {
		t.Fatal(err)
	}
	if !ep.Ran || ep.Epoch != 1 || ep.Seq != 3 || ep.Pending != 0 || !ep.Converged {
		t.Fatalf("epoch response %+v", ep)
	}
	getJSON(t, ts.URL+"/v1/reputation/7", &rep)
	if math.Abs(rep.Reputation-0.6) > 1e-2 || rep.Raters != 2 || rep.Epoch != 1 {
		t.Fatalf("post-epoch read %+v", rep)
	}

	// Personalised view: rater 3 trusts node 5, which rated 0.9, so its
	// confidence-weighted GCLR view sits above the plain rater mean.
	var personal reputationResponse
	getJSON(t, ts.URL+"/v1/reputation/7?as=3", &personal)
	if !personal.Personal || personal.As == nil || *personal.As != 3 {
		t.Fatalf("personal read %+v", personal)
	}
	if personal.Reputation <= rep.Reputation {
		t.Fatalf("GCLR view %v not above global %v", personal.Reputation, rep.Reputation)
	}

	// Idempotent epoch: nothing pending, ran=false, same epoch.
	_, body = postJSON(t, ts.URL+"/v1/epoch", "")
	if err := json.Unmarshal(body, &ep); err != nil {
		t.Fatal(err)
	}
	if ep.Ran || ep.Epoch != 1 {
		t.Fatalf("no-op epoch response %+v", ep)
	}
}

func TestBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, 10, 0)
	for name, check := range map[string]func() *http.Response{
		"non-json feedback": func() *http.Response {
			r, _ := postJSON(t, ts.URL+"/v1/feedback", "not json")
			return r
		},
		"unknown field": func() *http.Response {
			r, _ := postJSON(t, ts.URL+"/v1/feedback", `{"rater":1,"subject":2,"value":0.5,"bogus":1}`)
			return r
		},
		"out-of-range rater": func() *http.Response {
			r, _ := postJSON(t, ts.URL+"/v1/feedback", `{"rater":99,"subject":2,"value":0.5}`)
			return r
		},
		"value above 1": func() *http.Response {
			r, _ := postJSON(t, ts.URL+"/v1/feedback", `{"rater":1,"subject":2,"value":1.5}`)
			return r
		},
		"non-numeric subject": func() *http.Response {
			return getJSON(t, ts.URL+"/v1/reputation/abc", nil)
		},
		"bad as param": func() *http.Response {
			return getJSON(t, ts.URL+"/v1/reputation/2?as=xyz", nil)
		},
	} {
		if resp := check(); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if resp := getJSON(t, ts.URL+"/v1/reputation/99", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("out-of-range subject: status %d, want 404", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t, 10, 0)
	var h map[string]any
	if resp := getJSON(t, ts.URL+"/healthz", &h); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if h["ok"] != true {
		t.Fatalf("healthz body %v", h)
	}
}

// TestConcurrentHTTPTraffic hammers POST /v1/feedback, POST
// /v1/feedback/batch and GET /v1/reputation over real HTTP while the
// background scheduler runs epochs — the HTTP-layer face of the service's
// concurrency contract (run under -race in CI). The server runs with a small
// backpressure window, so writers exercise the real 429-retry loop; readers
// poll with If-None-Match and require every ETag — fresh or 304 — to name a
// fold point actually served. Every read must see a complete snapshot: a
// consistent (epoch, seq) pair with the reputation value in range.
func TestConcurrentHTTPTraffic(t *testing.T) {
	const n = 30
	const interval = 2 * time.Millisecond
	g, err := graph.PreferentialAttachment(graph.PAConfig{N: n, M: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Config{
		Graph:         g,
		Params:        core.Params{Epsilon: 1e-6, Seed: 11},
		EpochInterval: interval,
		Shards:        4,
		FoldWorkers:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	svc.Instrument(reg)
	// MaxPending far below the write volume: the scheduler drains the window
	// every couple of milliseconds, but bursts between folds shed real 429s
	// that the writers must absorb and retry.
	ts := httptest.NewServer(httpapi.New(httpapi.Config{
		Service: svc, EpochEvery: interval, Registry: reg, MaxPending: 48,
	}))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	client := ts.Client()

	// postAccepted retries through backpressure (429) and gate rejections
	// (503) until the write is accepted — the client half of the overload
	// contract. Anything else is a real failure.
	postAccepted := func(url, body string) error {
		for {
			resp, err := client.Post(url, "application/json", strings.NewReader(body))
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusAccepted:
				return nil
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				// Retry-After says "next fold" (seconds); at test scale the
				// 2ms scheduler drains far sooner.
				time.Sleep(time.Millisecond)
			default:
				return fmt.Errorf("write status %d", resp.StatusCode)
			}
		}
	}

	// A metrics poller scrapes /metrics at ~1 kHz for the whole hammer; every
	// scrape must parse — well-formed exposition, monotone histogram buckets
	// — proving instrumentation never tears under concurrent load.
	pollerDone := make(chan struct{})
	stopPoller := make(chan struct{})
	go func() {
		defer close(pollerDone)
		scrapes := 0
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopPoller:
				if scrapes == 0 {
					t.Error("metrics poller never scraped")
				}
				return
			case <-tick.C:
				resp, err := client.Get(ts.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := obs.ParseExposition(body); err != nil {
					t.Errorf("scrape %d does not parse: %v", scrapes, err)
					return
				}
				scrapes++
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.New(uint64(100 + w))
			for i := 0; i < 150; i++ {
				body := fmt.Sprintf(`{"rater":%d,"subject":%d,"value":%.4f}`,
					src.Intn(n), src.Intn(n), src.Float64())
				if err := postAccepted(ts.URL+"/v1/feedback", body); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Batch writers share the sequence space and the backpressure window with
	// the single writers: 2 × 30 batches × 5 ratings, JSON-lines encoding.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.New(uint64(300 + w))
			for i := 0; i < 30; i++ {
				var body bytes.Buffer
				for k := 0; k < 5; k++ {
					fmt.Fprintf(&body, "{\"rater\":%d,\"subject\":%d,\"value\":%.4f}\n",
						src.Intn(n), src.Intn(n), src.Float64())
				}
				if err := postAccepted(ts.URL+"/v1/feedback/batch", body.String()); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			src := rng.New(uint64(200 + r))
			etags := make(map[int]string)
			for i := 0; i < 150; i++ {
				subject := src.Intn(n)
				req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/reputation/%d", ts.URL, subject), nil)
				if err != nil {
					t.Error(err)
					return
				}
				if tag, ok := etags[subject]; ok {
					req.Header.Set("If-None-Match", tag)
				}
				resp, err := client.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode == http.StatusNotModified {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					// A 304 may only confirm the fold point this reader was
					// actually served earlier — never some invented tag.
					if got := resp.Header.Get("ETag"); got != etags[subject] {
						t.Errorf("304 ETag %q does not match the validator %q", got, etags[subject])
						return
					}
					continue
				}
				var rep reputationResponse
				err = json.NewDecoder(resp.Body).Decode(&rep)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if rep.Reputation < 0 || rep.Reputation > 1 {
					t.Errorf("reputation %v out of [0,1]", rep.Reputation)
					return
				}
				if rep.Seq > 0 && rep.Epoch == 0 {
					t.Errorf("torn snapshot over HTTP: seq %d at epoch 0", rep.Seq)
					return
				}
				// The ETag must name exactly the fold point in the body: a
				// conditional revalidation hits only real publications.
				want := fmt.Sprintf(`"%d-%d-%d"`, rep.Shard, rep.Epoch, rep.Seq)
				if got := resp.Header.Get("ETag"); got != want {
					t.Errorf("ETag %q for fold point %s", got, want)
					return
				}
				etags[subject] = want
			}
		}(r)
	}
	wg.Wait()
	close(stopPoller)
	<-pollerDone

	// Everything folds — retried writes included, exactly once each; the
	// final state matches the exact reference.
	if _, _, err := svc.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	v := svc.View()
	if v.Seq() != 900 {
		t.Fatalf("final seq %d, want 900 (600 single + 300 batched)", v.Seq())
	}
	for j := 0; j < n; j++ {
		got, err := v.Reputation(j)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-core.GlobalRef(v, j)) > 1e-2 {
			t.Fatalf("subject %d deviates from GlobalReference", j)
		}
	}

	// The stats endpoint reflects the pipeline: every shard folded at least
	// once, nothing pending, and the fold counters advanced.
	var st service.Stats
	if resp := getJSON(t, ts.URL+"/v1/stats", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	if st.N != n || st.Shards != 4 || st.Pending != 0 || st.DirtyShards != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.FoldedShards == 0 || st.FoldedSubjects == 0 || st.Epochs == 0 {
		t.Fatalf("fold counters never advanced: %+v", st)
	}
	for _, ps := range st.PerShard {
		if ps.Epoch == 0 || ps.ElapsedNs <= 0 {
			t.Fatalf("shard %d never reported a fold: %+v", ps.Shard, ps)
		}
	}
}
