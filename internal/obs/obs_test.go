package obs

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	var g Gauge
	g.Set(10)
	g.Inc()
	g.Dec()
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 2, 4)
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-106) > 1e-9 {
		t.Fatalf("sum = %v, want 106", h.Sum())
	}
	// le=1 holds {0.5, 1}, le=2 holds {1.5}, le=4 holds {3}, +Inf holds {100}.
	var buf bytes.Buffer
	h.write(&buf, "x", "")
	out := buf.String()
	for _, want := range []string{
		`x_bucket{le="1"} 2`, `x_bucket{le="2"} 3`, `x_bucket{le="4"} 4`,
		`x_bucket{le="+Inf"} 5`, `x_sum 106`, `x_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition lacks %q:\n%s", want, out)
		}
	}
	var nilHist *Histogram
	nilHist.Observe(1) // must not panic
	if nilHist.Sum() != 0 || nilHist.Count() != 0 {
		t.Fatal("nil histogram must read as empty")
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for name, bounds := range map[string][]float64{
		"empty":          {},
		"non-increasing": {1, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s bounds: no panic", name)
				}
			}()
			NewHistogram(bounds...)
		}()
	}
}

func TestRegistryExposition(t *testing.T) {
	reg := NewRegistry()
	var c Counter
	c.Add(3)
	reg.Counter("diffgossip_test_ops_total", `kind="write"`, "Test operations.", &c)
	var c2 Counter
	c2.Add(1)
	reg.Counter("diffgossip_test_ops_total", `kind="read"`, "Test operations.", &c2)
	var g Gauge
	g.Set(-2)
	reg.Gauge("diffgossip_test_depth", "", "Test depth.", &g)
	reg.GaugeFunc("diffgossip_test_temp", "", "Test temperature.", func() float64 { return 1.5 })
	reg.GaugeMapFunc("diffgossip_test_state", "peer", "Per-peer state.", func() map[string]float64 {
		return map[string]float64{"b": 2, "a": 1}
	})
	h := NewHistogram(0.1, 1)
	h.Observe(0.05)
	h.Observe(5)
	reg.Histogram("diffgossip_test_latency_seconds", "", "Test latency.", h)

	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"# HELP diffgossip_test_ops_total Test operations.",
		"# TYPE diffgossip_test_ops_total counter",
		`diffgossip_test_ops_total{kind="read"} 1`,
		`diffgossip_test_ops_total{kind="write"} 3`,
		"diffgossip_test_depth -2",
		"diffgossip_test_temp 1.5",
		`diffgossip_test_state{peer="a"} 1`,
		`diffgossip_test_state{peer="b"} 2`,
		"# TYPE diffgossip_test_latency_seconds histogram",
		`diffgossip_test_latency_seconds_bucket{le="+Inf"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition lacks %q:\n%s", want, body)
		}
	}
	// The exposition must round-trip through the repo's own parser.
	fams, err := ParseExposition(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("own exposition does not parse: %v\n%s", err, body)
	}
	if len(fams) != 5 {
		t.Fatalf("parsed %d families, want 5", len(fams))
	}
}

func TestRegistryPanicsOnMisuse(t *testing.T) {
	for name, misuse := range map[string]func(r *Registry){
		"bad name": func(r *Registry) {
			r.GaugeFunc("Bad-Name", "", "x.", func() float64 { return 0 })
		},
		"empty help": func(r *Registry) {
			r.GaugeFunc("diffgossip_ok", "", "", func() float64 { return 0 })
		},
		"bad labels": func(r *Registry) {
			r.GaugeFunc("diffgossip_ok", `not labels`, "x.", func() float64 { return 0 })
		},
		"duplicate": func(r *Registry) {
			r.GaugeFunc("diffgossip_ok", "", "x.", func() float64 { return 0 })
			r.GaugeFunc("diffgossip_ok", "", "x.", func() float64 { return 0 })
		},
		"kind mismatch": func(r *Registry) {
			r.GaugeFunc("diffgossip_ok", "", "x.", func() float64 { return 0 })
			r.CounterFunc("diffgossip_ok", `a="b"`, "x.", func() uint64 { return 0 })
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			misuse(NewRegistry())
		}()
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	var c Counter
	r.Counter("diffgossip_x_total", "", "x.", &c) // must not panic
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry wrote %q, err %v", buf.String(), err)
	}
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("nil handler status %d", rec.Code)
	}
}

// TestConcurrentObserveAndScrape races observations against scrapes (run
// under -race in CI) and checks every scrape parses with monotone buckets —
// the no-torn-reads half of the obs contract.
func TestConcurrentObserveAndScrape(t *testing.T) {
	reg := NewRegistry()
	h := NewHistogram(DefBuckets()...)
	reg.Histogram("diffgossip_test_lat_seconds", "", "Latency.", h)
	var c Counter
	reg.Counter("diffgossip_test_n_total", "", "Ops.", &c)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := 1e-4
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(v)
				c.Inc()
				v *= 1.1
				if v > 20 {
					v = 1e-4
				}
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		var buf bytes.Buffer
		if err := reg.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseExposition(buf.Bytes()); err != nil {
			t.Fatalf("scrape %d torn: %v\n%s", i, err, buf.String())
		}
	}
	close(stop)
	wg.Wait()
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	for name, in := range map[string]string{
		"sample without HELP/TYPE": "foo 1\n",
		"TYPE without HELP":        "# TYPE foo counter\nfoo 1\n",
		"bad type":                 "# HELP foo x\n# TYPE foo widget\n",
		"bad value":                "# HELP foo x\n# TYPE foo gauge\nfoo abc\n",
		"bad name":                 "# HELP foo x\n# TYPE foo gauge\nFOO 1\n",
		"foreign sample":           "# HELP foo x\n# TYPE foo gauge\nbar 1\n",
		"duplicate family":         "# HELP foo x\n# TYPE foo gauge\nfoo 1\n# HELP foo x\n# TYPE foo gauge\n",
		"histogram no +Inf":        "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_count 1\nh_sum 1\n",
		"histogram not monotone":   "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_count 3\nh_sum 1\n",
		"histogram count mismatch": "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_count 4\nh_sum 1\n",
	} {
		if _, err := ParseExposition([]byte(in)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

func TestParseExpositionLabels(t *testing.T) {
	in := "# HELP foo x\n# TYPE foo gauge\nfoo{route=\"GET /v1/reputation/{subject}\",code=\"2xx\"} 4\n"
	fams, err := ParseExposition([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	s := fams[0].Samples[0]
	if s.Label("route") != "GET /v1/reputation/{subject}" || s.Label("code") != "2xx" {
		t.Fatalf("labels parsed as %q", s.Labels)
	}
	if s.Value != 4 {
		t.Fatalf("value = %v", s.Value)
	}
}

func TestSetupLogging(t *testing.T) {
	var buf bytes.Buffer
	if err := setupLogging(&buf, "info", "json"); err != nil {
		t.Fatal(err)
	}
	log := Logger("cluster")
	log.Debug("hidden")
	log.Info("peer up", "peer", "127.0.0.1:9080")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Fatalf("debug leaked through info level: %s", out)
	}
	if !strings.Contains(out, `"component":"cluster"`) || !strings.Contains(out, `"peer":"127.0.0.1:9080"`) {
		t.Fatalf("log record lacks component scope: %s", out)
	}
	if err := setupLogging(&buf, "loud", "text"); err == nil {
		t.Fatal("bad level accepted")
	}
	if err := setupLogging(&buf, "info", "xml"); err == nil {
		t.Fatal("bad format accepted")
	}
}

func TestHTTPMetricsMiddleware(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetrics(reg, "dgserve_http")
	okHandler := m.Wrap("GET /ok", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	})
	failHandler := m.Wrap("GET /fail", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(500)
	})
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		okHandler(rec, httptest.NewRequest("GET", "/ok", nil))
	}
	rec := httptest.NewRecorder()
	failHandler(rec, httptest.NewRequest("GET", "/fail", nil))

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`dgserve_http_requests_total{code="2xx",route="GET /ok"} 3`,
		`dgserve_http_requests_total{code="5xx",route="GET /fail"} 1`,
		`dgserve_http_requests_total{code="4xx",route="GET /ok"} 0`,
		"dgserve_http_in_flight_requests 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("middleware exposition lacks %q:\n%s", want, out)
		}
	}
	if _, err := ParseExposition(buf.Bytes()); err != nil {
		t.Fatalf("middleware exposition does not parse: %v", err)
	}
}
