package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"diffgossip"
	"diffgossip/internal/httpapi"
	"diffgossip/internal/rng"
	"diffgossip/internal/store"
)

type ingestSizes struct {
	n, raters, shards int
	singles, batches  int // POSTs of each kind in one slice
	batchLen          int
	slices, positions int // slices per segment; distinct request sets they cycle through
	restartSample     int // subjects compared across the restart
}

var (
	ingestFull  = ingestSizes{1000, 48, 20, 2500, 12, 1024, 20, 5, 50}
	ingestSmoke = ingestSizes{200, 12, 4, 200, 6, 32, 2, 2, 20}
)

// ladderSlack is how far a rung of the write-path ladder may read below the
// rung it contains before the traced run reports the ladder as unresolved:
// service.SubmitCtx is Ledger.Append plus a few nanoseconds, and two timings
// of the same code differ by more than that.
const ladderSlack = 0.05

// ingestWorkload is the write path over loopback. Fixture: every subject
// rated by its pool, folded and persisted, and the requests pre-rendered. A
// slice = singles single POST /v1/feedback then batches 1,024-rating POST
// /v1/feedback/batch; each phase is split evenly over the client connections,
// sent closed-loop and timed on its own. Slice k of every segment repeats the
// two items of position k % positions: the same requests, byte for byte,
// which the service stamps and appends anew every time. The production flush policy
// applies: per-entry flush for singles, one fsync per batch. The batches are
// this large so that the device's fsync (0.2–0.45 ms here, moving by the
// minute) stays near a tenth of the batch POST it ends; at 256 ratings it
// was a third, and the metric followed the disk. After every segment an
// untimed POST /v1/epoch folds what the segment left pending and
// runtime.GC() runs, so every segment starts from an empty pending window
// and a collected heap. The primary operation is the batch POST; work is
// accepted ratings.
type ingestWorkload struct {
	sz ingestSizes
	g  *diffgossip.Graph
	p  diffgossip.Params
	fd *frontDoor

	ratings  []rating // every position's singles first, then the batches' entries
	singles  [][]byte // pre-rendered requests, position after position
	batches  [][]byte
	bodies   [][]byte // the batch requests' bodies alone (same memory), for the ladder
	epochReq []byte

	accepted   uint64 // ratings acknowledged with 202 since seq0 was read
	seq0       uint64
	wal0       int64 // WAL size and fsync count when segment 1 began
	fsync0     float64
	acc0       uint64
	walEnd     int64
	fsyncEnd   float64
	foldS      []float64
	singleRate []float64 // traced segments
	batchRate  []float64
	compact    store.CompactStats
	compactMs  float64
}

func (w *ingestWorkload) setup(rc *runCtx) error {
	w.sz = ingestFull
	if rc.smoke {
		w.sz = ingestSmoke
	}
	sz := w.sz
	var err error
	if w.g, err = diffgossip.NewPANetwork(sz.n, 2, subSeed(rc.seed, "ingest-graph", 0)); err != nil {
		return err
	}
	w.p = diffgossip.Params{Epsilon: 1e-4, Workers: -1, Seed: subSeed(rc.seed, "ingest-engine", 0)}
	if w.fd, err = openFrontDoor(rc.dataRoot, w.g, w.p, sz.shards, clientCount()); err != nil {
		return err
	}
	pools := genPools(rc.seed, sz.n, sz.raters)
	seedRatings := genSeedRatings(rc.seed, pools)
	ctx := context.Background()
	for lo := 0; lo < len(seedRatings); lo += 4096 {
		hi := min(lo+4096, len(seedRatings))
		if _, _, err := w.fd.svc.SubmitBatch(ctx, feedbackOf(seedRatings[lo:hi])); err != nil {
			return err
		}
	}
	view, ran, err := w.fd.svc.RunEpoch()
	if err != nil {
		return err
	}
	if !ran || !view.Converged() {
		return fmt.Errorf("fixture epoch ran=%v converged=%v", ran, view.Converged())
	}
	w.seq0 = w.fd.svc.LedgerSeq()

	src := rng.New(subSeed(rc.seed, "ingest-ratings", 0))
	nSingles, nBatches := sz.positions*sz.singles, sz.positions*sz.batches
	w.ratings = make([]rating, nSingles+nBatches*sz.batchLen)
	for i := range w.ratings {
		j := src.Intn(sz.n)
		w.ratings[i] = rating{pools[j][src.Intn(sz.raters)], j, src.Float64()}
	}
	w.singles = make([][]byte, nSingles)
	for i := range w.singles {
		w.singles[i] = postRequest("/v1/feedback", appendRatingJSON(nil, w.ratings[i]))
	}
	w.batches = make([][]byte, nBatches)
	w.bodies = make([][]byte, nBatches)
	for b := range w.batches {
		lo := nSingles + b*sz.batchLen
		body := batchJSON(w.ratings[lo : lo+sz.batchLen])
		w.batches[b] = postRequest("/v1/feedback/batch", body)
		w.bodies[b] = w.batches[b][len(w.batches[b])-len(body):]
	}
	w.epochReq = postRequest("/v1/epoch", nil)
	return nil
}

func (w *ingestWorkload) segment(rc *runCtx, idx int) ([]slice, error) {
	var slices []slice
	sz := w.sz
	clients := w.fd.clients
	nc := len(clients)
	traced := rc.tr.active()
	if idx == 1 {
		var err error
		if w.wal0, w.fsync0, err = w.walState(); err != nil {
			return nil, err
		}
		w.acc0 = w.accepted
	}
	for _, c := range clients {
		c.arm(2 * time.Minute)
	}
	refused := make([]int, nc)
	got := make([]int, nc)
	lat := make([][]float64, nc)

	// A slice is its position's singles followed by its batches; each phase
	// is split evenly over the connections and ends when the last connection
	// has read its last reply.
	for k := 0; k < sz.slices; k++ {
		pos := k % sz.positions
		singles := w.singles[pos*sz.singles : (pos+1)*sz.singles]
		batches := w.batches[pos*sz.batches : (pos+1)*sz.batches]
		var singlesSpan, batchSpan int32
		if traced {
			singlesSpan, batchSpan = rc.tr.id(), rc.tr.id()
		}
		for i := range lat {
			lat[i] = lat[i][:0]
		}
		start := time.Now()
		err := eachClient(clients, func(i int, c *client) error {
			var local []span
			for r := i; r < len(singles); r += nc {
				var t0 time.Time
				if traced {
					t0 = time.Now()
				}
				status, _, err := c.do(singles[r])
				if err != nil {
					return err
				}
				if traced {
					local = append(local, rc.tr.local("ingest.single", idx, singlesSpan, t0, time.Now()))
				}
				if status != http.StatusAccepted {
					refused[i]++
					continue
				}
				got[i]++
			}
			if traced {
				rc.tr.merge(local)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		mid := time.Now()
		err = eachClient(clients, func(i int, c *client) error {
			var local []span
			for r := i; r < len(batches); r += nc {
				t0 := time.Now()
				status, body, err := c.do(batches[r])
				if err != nil {
					return err
				}
				t1 := time.Now()
				lat[i] = append(lat[i], t1.Sub(t0).Seconds()*1e3)
				if traced {
					local = append(local, rc.tr.local("ingest.batch", idx, batchSpan, t0, t1))
				}
				var ack batchAck
				if status != http.StatusAccepted || json.Unmarshal(body, &ack) != nil {
					refused[i]++
					continue
				}
				got[i] += ack.Accepted
			}
			if traced {
				rc.tr.merge(local)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		end := time.Now()
		var ops []float64
		for i := range lat {
			ops = append(ops, lat[i]...)
		}
		// The two phases are slices of their own, so the quietest repeat of
		// each is kept separately: items 0…positions-1 are the singles
		// phases, the rest the batch phases.
		slices = append(slices,
			slice{item: pos, units: float64(len(singles)), elapsed: mid.Sub(start)},
			slice{item: sz.positions + pos, units: float64(len(batches) * sz.batchLen), elapsed: end.Sub(mid), opMs: median(ops)})
		if traced {
			s1 := rc.tr.local("ingest.singles_phase", idx, rc.segSpan, start, mid)
			s1.ID = singlesSpan
			s2 := rc.tr.local("ingest.batch_phase", idx, rc.segSpan, mid, end)
			s2.ID = batchSpan
			rc.tr.merge([]span{s1, s2})
			w.singleRate = append(w.singleRate, float64(len(singles))/mid.Sub(start).Seconds())
			w.batchRate = append(w.batchRate, float64(len(batches)*sz.batchLen)/end.Sub(mid).Seconds())
		}
	}

	accepted := 0
	for i := range clients {
		accepted += got[i]
		if refused[i] > 0 {
			rc.fail("segment %d: %d requests were not answered 202", idx, refused[i])
		}
	}
	rc.attempted += sz.slices * (sz.singles + sz.batches)
	if want := sz.slices * (sz.singles + sz.batches*sz.batchLen); accepted != want {
		rc.fail("segment %d: %d ratings acknowledged, %d sent", idx, accepted, want)
	}
	w.accepted += uint64(accepted)
	if d := w.fd.svc.LedgerSeq() - w.seq0; d != w.accepted {
		rc.fail("segment %d: %d ratings acknowledged but LedgerSeq advanced by %d", idx, w.accepted, d)
	}
	if idx >= 1 {
		var err error
		if w.walEnd, w.fsyncEnd, err = w.walState(); err != nil {
			return nil, err
		}
	}

	// Untimed: fold the backlog, collect the heap.
	t0 := time.Now()
	if err := w.fold(rc); err != nil {
		return nil, err
	}
	if idx >= 1 {
		w.foldS = append(w.foldS, time.Since(t0).Seconds())
	}
	if idx == 0 {
		if err := w.restartProbe(rc); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	return slices, nil
}

// fold forces an epoch through the front door and requires it to have run,
// converged and emptied the pending window.
func (w *ingestWorkload) fold(rc *runCtx) error {
	c := w.fd.clients[0]
	c.arm(2 * time.Minute)
	status, body, err := c.do(w.epochReq)
	if err != nil {
		return err
	}
	rc.attempted++
	var ack epochAck
	if status != http.StatusOK || json.Unmarshal(body, &ack) != nil || !ack.Ran || !ack.Converged {
		rc.fail("POST /v1/epoch: status %d body %.120s", status, body)
	}
	if p := w.fd.svc.Pending(); p != 0 {
		rc.fail("after the fold %d entries are still pending", p)
	}
	return nil
}

func (w *ingestWorkload) walState() (size int64, fsyncs float64, err error) {
	st, err := os.Stat(w.fd.walPath())
	if err != nil {
		return 0, 0, err
	}
	fsyncs, err = w.fd.counter("diffgossip_store_wal_fsyncs_total")
	return st.Size(), fsyncs, err
}

// restartProbe runs once, after the warm-up segment and its fold: close the
// service, reopen it from the same directory, and require the same
// LedgerSeq and bit-equal reputations — every acknowledged write survived.
// The measured segments then run against the reopened service. A traced
// run also times one WAL compaction here, while the log is one segment long.
func (w *ingestWorkload) restartProbe(rc *runCtx) error {
	svc := w.fd.svc
	src := rng.New(subSeed(rc.seed, "restart-sample", 0))
	sample := src.Sample(w.sz.n, w.sz.restartSample)
	before := make([]float64, len(sample))
	for k, j := range sample {
		v, _, err := svc.Reputation(j)
		if err != nil {
			return err
		}
		before[k] = v
	}
	seq := svc.LedgerSeq()
	if rc.tr != nil {
		t0 := time.Now()
		st, err := svc.CompactWAL()
		if err != nil {
			return err
		}
		w.compact, w.compactMs = st, time.Since(t0).Seconds()*1e3
	}
	if err := svc.Close(); err != nil {
		return err
	}
	w.fd.svc = nil
	if err := w.fd.openService(w.g, w.p, w.sz.shards); err != nil {
		return err
	}
	svc = w.fd.svc
	rc.attempted++
	if got := svc.LedgerSeq(); got != seq {
		rc.fail("restart: LedgerSeq %d, was %d", got, seq)
	}
	if p := svc.Pending(); p != 0 {
		rc.fail("restart: %d folded entries came back as pending", p)
	}
	for k, j := range sample {
		v, _, err := svc.Reputation(j)
		if err != nil {
			return err
		}
		if math.Float64bits(v) != math.Float64bits(before[k]) {
			rc.fail("restart: subject %d served %v, was %v", j, v, before[k])
		}
	}
	w.seq0, w.accepted = seq, 0
	return nil
}

// check: the per-segment checks already hold every POST to 202, the
// acknowledged count to the LedgerSeq delta and the pending window to 0
// after each fold; what is left is that nothing was shed.
func (w *ingestWorkload) check(rc *runCtx) error {
	refused, err := w.fd.refused()
	if err != nil {
		return err
	}
	if refused != 0 {
		rc.fail("front door refused %v requests", refused)
	}
	return nil
}

func (w *ingestWorkload) counts() map[string]float64 {
	acc := float64(w.accepted - w.acc0)
	if acc == 0 {
		return nil
	}
	return map[string]float64{
		"store.wal.bytes_per_rating":   float64(w.walEnd-w.wal0) / acc,
		"store.wal.fsyncs_per_krating": (w.fsyncEnd - w.fsync0) * 1000 / acc,
	}
}

// layers replays the segment's own ratings and bodies into each layer of
// the write path, one rung taller each time, so a rung's cost is a
// subtraction: store (memory, then WAL) → service → handler without a
// socket → the loopback spans of the run itself.
func (w *ingestWorkload) layers(rc *runCtx, m map[string]float64) error {
	sz := w.sz
	singles := w.ratings[:len(w.singles)]
	// freshBatches converts the batches anew for each rung that appends
	// them.
	freshBatches := func() [][]store.Feedback {
		entries := make([][]store.Feedback, len(w.batches))
		for b := range entries {
			lo := len(w.singles) + b*sz.batchLen
			entries[b] = feedbackOf(w.ratings[lo : lo+sz.batchLen])
		}
		return entries
	}
	// perSingle times fn over the single ratings, one position's share at a
	// time, and returns the quietest share's mean in ns.
	perSingle := func(fn func(r rating) error) (float64, error) {
		best := math.Inf(1)
		for lo := 0; lo < len(singles); lo += sz.singles {
			t0 := time.Now()
			for _, r := range singles[lo : lo+sz.singles] {
				if err := fn(r); err != nil {
					return 0, err
				}
			}
			best = math.Min(best, float64(time.Since(t0).Nanoseconds())/float64(sz.singles))
		}
		return best, nil
	}
	// perBatch times fn per batch and returns the median in µs.
	perBatch := func(fn func(b int) error) (float64, error) {
		var us []float64
		for b := range w.batches {
			t0 := time.Now()
			if err := fn(b); err != nil {
				return 0, err
			}
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		return median(us), nil
	}
	var err error

	if m["httpapi.decode_batch.us"], err = perBatch(func(b int) error {
		_, err := httpapi.DecodeBatch(bytes.NewReader(w.bodies[b]), httpapi.DefaultMaxBatch)
		return err
	}); err != nil {
		return err
	}

	ladderDir, err := os.MkdirTemp(rc.dataRoot, "ladder-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(ladderDir)
	wal, _, err := store.OpenLedger(filepath.Join(ladderDir, "ledger.jsonl"), sz.n)
	if err != nil {
		return err
	}
	defer wal.Close()
	for _, rung := range []struct {
		l             *store.Ledger
		single, batch string
	}{
		{store.NewLedger(sz.n), "store.append_mem.ns", "store.append_batch_mem.us"},
		{wal, "store.append_wal.ns", "store.append_batch_wal.us"},
	} {
		l := rung.l
		if err := l.SetShards(sz.shards); err != nil {
			return err
		}
		if m[rung.single], err = perSingle(func(r rating) error {
			_, err := l.Append(r.Rater, r.Subject, r.Value, time.Now().UnixNano())
			return err
		}); err != nil {
			return err
		}
		entries := freshBatches()
		if m[rung.batch], err = perBatch(func(b int) error {
			_, _, err := l.AppendBatch(entries[b])
			return err
		}); err != nil {
			return err
		}
	}

	// A second WAL-backed stack for the service and handler rungs, so the
	// run's own service keeps exactly the state the segments gave it.
	fd2, err := openFrontDoor(rc.dataRoot, w.g, w.p, sz.shards, 0)
	if err != nil {
		return err
	}
	defer fd2.close()
	ctx := context.Background()
	if m["service.submit_wal.ns"], err = perSingle(func(r rating) error {
		_, err := fd2.svc.SubmitCtx(ctx, r.Rater, r.Subject, r.Value, 0)
		return err
	}); err != nil {
		return err
	}
	entries := freshBatches()
	if m["service.submit_batch.us"], err = perBatch(func(b int) error {
		_, _, err := fd2.svc.SubmitBatch(ctx, entries[b])
		return err
	}); err != nil {
		return err
	}

	reqs := make([]*http.Request, len(singles))
	for i, r := range singles {
		reqs[i] = httptest.NewRequest("POST", "/v1/feedback", bytes.NewReader(appendRatingJSON(nil, r)))
	}
	var wrong int
	if m["httpapi.handler_single.us"], wrong = serveAll(fd2.srv, reqs, http.StatusAccepted); wrong != 0 {
		rc.fail("handler rung: single POST answered %d", wrong)
	}
	if m["httpapi.handler_batch.us"], err = perBatch(func(b int) error {
		rec := httptest.NewRecorder()
		fd2.srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/feedback/batch", bytes.NewReader(w.bodies[b])))
		if rec.Code != http.StatusAccepted {
			return fmt.Errorf("handler rung: batch POST answered %d", rec.Code)
		}
		return nil
	}); err != nil {
		return err
	}

	single := rc.tr.durationsMs("ingest.single")
	batch := rc.tr.durationsMs("ingest.batch")
	m["httpapi.loopback_single.us"] = median(single) * 1e3
	m["httpapi.loopback_batch.us"] = median(batch) * 1e3
	m["httpapi.batch.p99_ms"] = quantile(batch, 0.99)
	m["httpapi.single_per_s"] = quantile(w.singleRate, 1)
	m["httpapi.batch_ratings_per_s"] = quantile(w.batchRate, 1)
	m["service.backlog_fold.s"] = median(w.foldS)
	m["store.compact.ms"] = w.compactMs
	if w.compact.BytesBefore > 0 {
		m["store.compact.bytes_ratio"] = float64(w.compact.BytesAfter) / float64(w.compact.BytesBefore)
	}
	if m["httpapi.refused_total"], err = w.fd.refused(); err != nil {
		return err
	}
	// The ladder is cumulative: each rung contains the one below it, so a
	// rung that reads more than ladderSlack below its predecessor means the
	// run could not resolve the step between them.
	for _, l := range []struct {
		what  string
		rungs []float64
	}{
		{"batch ladder (store wal <= service <= handler <= loopback, us)", []float64{
			m["store.append_batch_wal.us"], m["service.submit_batch.us"], m["httpapi.handler_batch.us"], m["httpapi.loopback_batch.us"]}},
		{"single ladder (store wal <= service <= handler <= loopback, ns)", []float64{
			m["store.append_wal.ns"], m["service.submit_wal.ns"], m["httpapi.handler_single.us"] * 1e3, m["httpapi.loopback_single.us"] * 1e3}},
	} {
		for i := 1; i < len(l.rungs); i++ {
			if l.rungs[i] < l.rungs[i-1]*(1-ladderSlack) {
				rc.unresolve("http-ingest %s is not monotone: %.1f", l.what, l.rungs)
				break
			}
		}
	}
	fmt.Fprintf(rc.out, "ladder batch us: decode %.1f | store mem %.1f wal %.1f <= service %.1f <= handler %.1f <= loopback %.1f\n",
		m["httpapi.decode_batch.us"], m["store.append_batch_mem.us"], m["store.append_batch_wal.us"],
		m["service.submit_batch.us"], m["httpapi.handler_batch.us"], m["httpapi.loopback_batch.us"])
	fmt.Fprintf(rc.out, "ladder single ns: store mem %.0f wal %.0f <= service %.0f <= handler %.0f <= loopback %.0f\n",
		m["store.append_mem.ns"], m["store.append_wal.ns"], m["service.submit_wal.ns"],
		m["httpapi.handler_single.us"]*1e3, m["httpapi.loopback_single.us"]*1e3)
	return nil
}

func (w *ingestWorkload) close() {
	if w.fd != nil {
		w.fd.close()
	}
}
