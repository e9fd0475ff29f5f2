package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"diffgossip/internal/obs"
	"diffgossip/internal/rng"
)

// loadgenReport is the JSON document -loadgen prints: HTTP-level ingest and
// query throughput against a live dgserve, per-request latency percentiles,
// plus the final epoch's metadata. (Paired, per-layer measurements live in
// benchmark/; this is a one-shot probe of the full HTTP stack.) Latencies
// are client-side — request start to body drained — and the percentiles are
// interpolated from fixed-bucket histograms, so they are estimates with
// bucket-resolution error, not exact order statistics.
//
// Shed and rejected traffic is accounted separately from Errors: a 429 or
// 503 is the server keeping its overload contract, and a 400/413 answered to
// an adversarial probe is the server keeping its limits contract. Errors
// counts only transport failures and statuses the workload did not expect —
// so Errors==0 under adversarial load means the front door behaved.
type loadgenReport struct {
	N            int           `json:"n"`
	Writers      int           `json:"writers"`
	Readers      int           `json:"readers"`
	Batch        int           `json:"batch,omitempty"`
	Rate         float64       `json:"rate,omitempty"`
	Adversarial  bool          `json:"adversarial,omitempty"`
	Duration     time.Duration `json:"duration_ns"`
	IngestOps    int64         `json:"ingest_ops"`
	IngestPerSec float64       `json:"ingest_per_sec"`
	IngestP50Ns  int64         `json:"ingest_p50_ns"`
	IngestP95Ns  int64         `json:"ingest_p95_ns"`
	IngestP99Ns  int64         `json:"ingest_p99_ns"`
	// AcceptedRatings counts ratings, not requests: a batch write that is
	// answered 202 contributes its whole batch here and one op above.
	AcceptedRatings int64   `json:"accepted_ratings"`
	QueryOps        int64   `json:"query_ops"`
	QueryPerSec     float64 `json:"query_per_sec"`
	QueryP50Ns      int64   `json:"query_p50_ns"`
	QueryP95Ns      int64   `json:"query_p95_ns"`
	QueryP99Ns      int64   `json:"query_p99_ns"`
	// NotModified counts conditional reads answered 304 (a query success:
	// the reader's cached value is still the published fold point).
	NotModified int64 `json:"not_modified"`
	// Shed429/Shed503 are writes refused by backpressure and the in-flight
	// gate; Rejected400/Rejected413 are adversarial probes the server
	// correctly turned away. None of these are Errors.
	Shed429     int64 `json:"shed_429"`
	Shed503     int64 `json:"shed_503"`
	Rejected400 int64 `json:"rejected_400"`
	Rejected413 int64 `json:"rejected_413"`
	// SlowLoris is how many trickle-body connections the adversarial mix
	// held open against the server.
	SlowLoris  int64         `json:"slow_loris_conns,omitempty"`
	Errors     int64         `json:"errors"`
	FinalEpoch epochResponse `json:"final_epoch"`
}

// latencyBuckets spans 50µs to ~3.3s in 1.5× steps — finer than DefBuckets
// at the sub-millisecond end, where loopback HTTP requests actually land.
func latencyBuckets() []float64 { return obs.ExponentialBuckets(50e-6, 1.5, 28) }

// quantileNs reads a latency quantile from a histogram in nanoseconds.
func quantileNs(h *obs.Histogram, q float64) int64 { return int64(h.Quantile(q) * 1e9) }

// loadgenCounters is the shared tally the writer, reader and probe
// goroutines fill in; see loadgenReport for what each bucket means.
type loadgenCounters struct {
	ingest, ratings, query   atomic.Int64
	notModified              atomic.Int64
	shed429, shed503         atomic.Int64
	rejected400, rejected413 atomic.Int64
	slowLoris, errs          atomic.Int64
}

// countStatus files a non-2xx write status into the right bucket and reports
// whether the writer should back off before retrying.
func (t *loadgenCounters) countStatus(status int) (backoff bool) {
	switch status {
	case http.StatusTooManyRequests:
		t.shed429.Add(1)
		return true
	case http.StatusServiceUnavailable:
		t.shed503.Add(1)
		return true
	default:
		t.errs.Add(1)
		return false
	}
}

// shedBackoff is how long a loadgen writer sleeps after a 429/503 before
// retrying. Real clients should honor Retry-After (an epoch interval); the
// loadgen clamps far below that so a shedding server still sees sustained
// retry pressure within a few-second run.
const shedBackoff = 5 * time.Millisecond

// runLoadgen drives concurrent feedback writers and reputation readers
// against a dgserve instance for the configured duration, then forces a
// final epoch and reports throughput. -batch switches writers to batched
// ingest, -rate paces them open-loop, and -adversarial mixes in malformed
// and oversized probes, slow-loris connections and hot-subject skew — the
// report's Rejected/Shed buckets then show the server keeping its overload
// contract while Errors stays at transport-level truth.
func runLoadgen(c runConfig, out io.Writer) error {
	base := c.target
	if base == "" {
		svc, err := c.newService("")
		if err != nil {
			return err
		}
		defer svc.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := &http.Server{
			Handler:      c.newHTTPServer(svc, nil),
			ReadTimeout:  c.readTimeout,
			WriteTimeout: c.writeTimeout,
			IdleTimeout:  c.idleTimeout,
		}
		go srv.Serve(ln)
		defer srv.Close()
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(out, "loadgen: in-process dgserve at %s (N=%d, epoch %v)\n", base, c.n, c.epoch)
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        c.writers + c.readers,
		MaxIdleConnsPerHost: c.writers + c.readers,
	}}

	var tally loadgenCounters
	ingestHist := obs.NewHistogram(latencyBuckets()...)
	queryHist := obs.NewHistogram(latencyBuckets()...)
	start := time.Now()
	deadline := start.Add(c.duration)
	var wg sync.WaitGroup

	// Open-loop pacing: spread the target arrival rate across the writers,
	// each holding its own ticker so a slow response delays only its share.
	var paceEvery time.Duration
	if c.rate > 0 && c.writers > 0 {
		paceEvery = time.Duration(float64(c.writers) / c.rate * float64(time.Second))
		if paceEvery <= 0 {
			paceEvery = time.Nanosecond
		}
	}
	batch := c.batchSize
	if batch < 1 {
		batch = 1
	}
	// Adversarial hot-subject skew: 80% of ratings land on n/20 subjects, so
	// shard dirtiness — and therefore epoch work — concentrates instead of
	// spreading evenly.
	hotN := c.n / 20
	if hotN < 1 {
		hotN = 1
	}

	for w := 0; w < c.writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.New(uint64(0x10000 + w))
			var pace *time.Ticker
			if paceEvery > 0 {
				pace = time.NewTicker(paceEvery)
				defer pace.Stop()
			}
			var body bytes.Buffer
			for time.Now().Before(deadline) {
				if pace != nil {
					select {
					case <-pace.C:
					case <-time.After(time.Until(deadline)):
						return
					}
				}
				if c.adversarial && src.Bool(1.0/16) {
					loadgenProbe(client, base, src, &tally)
					continue
				}
				subject := func() int {
					if c.adversarial && src.Bool(0.8) {
						return src.Intn(hotN)
					}
					return src.Intn(c.n)
				}
				body.Reset()
				url := base + "/v1/feedback"
				if batch > 1 {
					url = base + "/v1/feedback/batch"
					body.WriteByte('[')
					for i := 0; i < batch; i++ {
						if i > 0 {
							body.WriteByte(',')
						}
						fmt.Fprintf(&body, `{"rater":%d,"subject":%d,"value":%.6f}`,
							src.Intn(c.n), subject(), src.Float64())
					}
					body.WriteByte(']')
				} else {
					fmt.Fprintf(&body, `{"rater":%d,"subject":%d,"value":%.6f}`,
						src.Intn(c.n), subject(), src.Float64())
				}
				reqStart := time.Now()
				resp, err := client.Post(url, "application/json", &body)
				if err != nil {
					tally.errs.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					if tally.countStatus(resp.StatusCode) {
						time.Sleep(shedBackoff)
					}
					continue
				}
				ingestHist.Observe(time.Since(reqStart).Seconds())
				tally.ingest.Add(1)
				tally.ratings.Add(int64(batch))
			}
		}(w)
	}
	for r := 0; r < c.readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			src := rng.New(uint64(0x20000 + r))
			etags := make(map[int]string) // per-subject fold-point ETags, per reader
			for time.Now().Before(deadline) {
				subject := src.Intn(c.n)
				personal := src.Bool(0.25) // every fourth read asks for the GCLR view
				url := fmt.Sprintf("%s/v1/reputation/%d", base, subject)
				if personal {
					url = fmt.Sprintf("%s?as=%d", url, src.Intn(c.n))
				}
				req, err := http.NewRequest(http.MethodGet, url, nil)
				if err != nil {
					tally.errs.Add(1)
					continue
				}
				if !personal {
					if tag, ok := etags[subject]; ok {
						req.Header.Set("If-None-Match", tag)
					}
				}
				reqStart := time.Now()
				resp, err := client.Do(req)
				if err != nil {
					tally.errs.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				switch resp.StatusCode {
				case http.StatusOK:
					if tag := resp.Header.Get("ETag"); tag != "" && !personal {
						etags[subject] = tag
					}
				case http.StatusNotModified:
					tally.notModified.Add(1)
				default:
					resp.Body.Close()
					if tally.countStatus(resp.StatusCode) {
						time.Sleep(shedBackoff)
					}
					continue
				}
				resp.Body.Close()
				queryHist.Observe(time.Since(reqStart).Seconds())
				tally.query.Add(1)
			}
		}(r)
	}
	if c.adversarial {
		host := strings.TrimPrefix(base, "http://")
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				slowLoris(host, deadline, &tally)
			}()
		}
	}
	wg.Wait()
	// Rates divide by the measured window, not the configured -duration:
	// spawn overhead and requests in flight at the deadline are real time.
	elapsed := time.Since(start)

	// Fold everything that is still pending and grab the final epoch state.
	// Under backpressure more than one fold may be needed to drain.
	var final epochResponse
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(base+"/v1/epoch", "application/json", nil)
		if err != nil {
			return fmt.Errorf("final epoch: %w", err)
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			return fmt.Errorf("final epoch: status %d: %s", resp.StatusCode, b)
		}
		if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
			resp.Body.Close()
			return fmt.Errorf("final epoch: %w", err)
		}
		resp.Body.Close()
		if final.Pending == 0 || attempt >= 8 {
			break
		}
	}

	secs := elapsed.Seconds()
	report := loadgenReport{
		N:               c.n,
		Writers:         c.writers,
		Readers:         c.readers,
		Batch:           c.batchSize,
		Rate:            c.rate,
		Adversarial:     c.adversarial,
		Duration:        elapsed,
		IngestOps:       tally.ingest.Load(),
		IngestPerSec:    float64(tally.ingest.Load()) / secs,
		IngestP50Ns:     quantileNs(ingestHist, 0.50),
		IngestP95Ns:     quantileNs(ingestHist, 0.95),
		IngestP99Ns:     quantileNs(ingestHist, 0.99),
		AcceptedRatings: tally.ratings.Load(),
		QueryOps:        tally.query.Load(),
		QueryPerSec:     float64(tally.query.Load()) / secs,
		QueryP50Ns:      quantileNs(queryHist, 0.50),
		QueryP95Ns:      quantileNs(queryHist, 0.95),
		QueryP99Ns:      quantileNs(queryHist, 0.99),
		NotModified:     tally.notModified.Load(),
		Shed429:         tally.shed429.Load(),
		Shed503:         tally.shed503.Load(),
		Rejected400:     tally.rejected400.Load(),
		Rejected413:     tally.rejected413.Load(),
		SlowLoris:       tally.slowLoris.Load(),
		Errors:          tally.errs.Load(),
		FinalEpoch:      final,
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// loadgenProbe sends one adversarial body — malformed JSON or an oversized
// payload — and checks the server turns it away with the documented status.
// The expected 400/413 goes to its Rejected bucket; anything else (including
// a 2xx, which would mean the limit is not enforced) is an error.
func loadgenProbe(client *http.Client, base string, src *rng.Source, tally *loadgenCounters) {
	var body bytes.Buffer
	want := http.StatusBadRequest
	bucket := &tally.rejected400
	if src.Bool(0.5) {
		// Oversized: leading whitespace pads the single-feedback body past
		// its byte limit before the decoder ever reaches the JSON value.
		body.Write(bytes.Repeat([]byte{' '}, 8192))
		body.WriteString(`{"rater":0,"subject":0,"value":0.5}`)
		want = http.StatusRequestEntityTooLarge
		bucket = &tally.rejected413
	} else {
		body.WriteString(`{"rater":1,"subject":`) // truncated mid-object
	}
	resp, err := client.Post(base+"/v1/feedback", "application/json", &body)
	if err != nil {
		tally.errs.Add(1)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case want:
		bucket.Add(1)
	case http.StatusTooManyRequests:
		tally.shed429.Add(1) // backpressure outranks body inspection
	case http.StatusServiceUnavailable:
		tally.shed503.Add(1)
	default:
		tally.errs.Add(1)
	}
}

// slowLoris holds one connection open with a trickling request body until
// the deadline: headers complete immediately (so the request occupies an
// in-flight slot), then the promised body arrives one byte at a time. A
// server with read deadlines kills the connection; one without them learns
// why it should have had some.
func slowLoris(host string, deadline time.Time, tally *loadgenCounters) {
	conn, err := net.DialTimeout("tcp", host, time.Second)
	if err != nil {
		return
	}
	defer conn.Close()
	tally.slowLoris.Add(1)
	fmt.Fprintf(conn, "POST /v1/feedback HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: 4000\r\n\r\n", host)
	for time.Now().Before(deadline) {
		if _, err := conn.Write([]byte{' '}); err != nil {
			return // server hung up — deadlines working as intended
		}
		time.Sleep(50 * time.Millisecond)
	}
}
