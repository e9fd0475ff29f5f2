package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"diffgossip"
	"diffgossip/internal/rng"
)

type mixedSizes struct {
	n, raters, shards         int
	cycles, batches, batchLen int // writer cycles per segment, batch POSTs per cycle
	positions                 int // distinct cycles (re-rated cells, read burst) a segment repeats
	reads                     int // reads in each cycle's burst
	checkSample               int
}

var (
	mixedFull  = mixedSizes{2000, 48, 20, 12, 8, 64, 4, 3000, 200}
	mixedSmoke = mixedSizes{200, 12, 4, 4, 2, 16, 2, 60, 40}
)

// personalEvery makes one read in five personalised (?as=), the rest global.
const personalEvery = 5

// mixedWorkload is a read/write traffic mix on one front door over an
// in-memory service. A cycle has two parts, each a slice of its own. The
// write part: batches 64-rating batch POSTs on the writer connection
// (existing raters re-rate), POST /v1/epoch (a small warm epoch over every
// shard) and a GET of the last subject written whose seq must cover the last
// batch — that send-to-read time is the visible lag, the primary operation.
// The read part: a fixed burst of reads of the freshly published views, 80 %
// global and 20 % personalised, split over all connections. Work is HTTP
// requests of all kinds. Cycle c of every segment repeats the two items of
// position c % positions: the same cells re-rated with fresh values, the
// same burst of reads.
//
// Two things the issue asked for were measured and dropped. Reads follow
// the fold instead of running beside it: with both on two shared cores the
// Go scheduler decides how they interleave, and identical runs differed by a
// factor of four in reads per second (7.3 k–31.5 k). And the service is not
// persisted: each epoch then rewrites and fsyncs 20 shard files, which was
// half of the lag and moved with the disk by 20 % between sets of identical
// runs; the WAL path has http-ingest, and what a persisted epoch adds is the
// store.shard_snapshot.save.ms rung of the traced run.
type mixedWorkload struct {
	sz    mixedSizes
	g     *diffgossip.Graph
	fd    *frontDoor
	pools [][]int

	reads    [][]byte // every position's pre-rendered burst of GETs, personalised at every personalEvery-th slot
	epochReq []byte

	readRate []float64 // traced segments
	lagMs    []float64
}

func (w *mixedWorkload) setup(rc *runCtx) error {
	w.sz = mixedFull
	if rc.smoke {
		w.sz = mixedSmoke
	}
	sz := w.sz
	var err error
	if w.g, err = diffgossip.NewPANetwork(sz.n, 2, subSeed(rc.seed, "mixed-graph", 0)); err != nil {
		return err
	}
	p := diffgossip.Params{Epsilon: 1e-4, Workers: -1, Seed: subSeed(rc.seed, "mixed-engine", 0)}
	if w.fd, err = openFrontDoor("", w.g, p, sz.shards, clientCount()); err != nil {
		return err
	}
	w.pools = genPools(rc.seed, sz.n, sz.raters)
	seedRatings := genSeedRatings(rc.seed, w.pools)
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
	src := rng.New(subSeed(rc.seed, "mixed-reads", 0))
	w.reads = make([][]byte, sz.positions*sz.reads)
	for i := range w.reads {
		j := src.Intn(sz.n)
		path := "/v1/reputation/" + strconv.Itoa(j)
		if i%personalEvery == personalEvery-1 {
			path += "?as=" + strconv.Itoa(w.pools[j][src.Intn(sz.raters)])
		}
		w.reads[i] = getRequest(path)
	}
	w.epochReq = postRequest("/v1/epoch", nil)
	return nil
}

func (w *mixedWorkload) segment(rc *runCtx, idx int) ([]slice, error) {
	var slices []slice
	sz := w.sz
	clients := w.fd.clients
	traced := rc.tr.active()

	// This segment's writer input, rendered before the clock starts.
	type cycle struct {
		posts [][]byte
		probe []byte
	}
	cycles := make([]cycle, sz.cycles)
	for c := range cycles {
		updates := genUpdates(rc.seed, "mixed-cycle", c%sz.positions, idx*sz.cycles+c, w.pools, sz.shards, sz.batches*sz.batchLen)
		for b := 0; b < sz.batches; b++ {
			body := batchJSON(updates[b*sz.batchLen : (b+1)*sz.batchLen])
			cycles[c].posts = append(cycles[c].posts, postRequest("/v1/feedback/batch", body))
		}
		last := updates[len(updates)-1].Subject
		cycles[c].probe = getRequest("/v1/reputation/" + strconv.Itoa(last))
	}
	for _, c := range clients {
		c.arm(2 * time.Minute)
	}

	bad := make([]int, len(clients))
	for k, cy := range cycles {
		writer := clients[0]
		var local []span
		var lastSeq uint64
		var sent time.Time
		cycleStart := time.Now()
		var cycleID int32
		if traced {
			cycleID = rc.tr.id()
		}
		for _, post := range cy.posts {
			sent = time.Now()
			status, body, err := writer.do(post)
			if err != nil {
				return nil, err
			}
			if traced {
				local = append(local, rc.tr.local("mixed.batch64", idx, cycleID, sent, time.Now()))
			}
			var ack batchAck
			if status != http.StatusAccepted || json.Unmarshal(body, &ack) != nil || ack.Accepted != sz.batchLen {
				bad[0]++
			}
			lastSeq = ack.LastSeq
		}
		t1 := time.Now()
		status, body, err := writer.do(w.epochReq)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		var eack epochAck
		if status != http.StatusOK || json.Unmarshal(body, &eack) != nil || !eack.Ran || !eack.Converged {
			bad[0]++
		}
		status, body, err = writer.do(cy.probe)
		if err != nil {
			return nil, err
		}
		t3 := time.Now()
		var rack reputationAck
		if status != http.StatusOK || json.Unmarshal(body, &rack) != nil || rack.Seq < lastSeq {
			bad[0]++
		}

		pos := k % sz.positions
		burst := w.reads[pos*sz.reads : (pos+1)*sz.reads]
		err = eachClient(clients, func(i int, c *client) error {
			var mine []span
			for r := i; r < len(burst); r += len(clients) {
				var t0 time.Time
				if traced {
					t0 = time.Now()
				}
				status, _, err := c.do(burst[r])
				if err != nil {
					return err
				}
				if traced {
					name := "mixed.read"
					if r%personalEvery == personalEvery-1 {
						name = "mixed.read_personal"
					}
					mine = append(mine, rc.tr.local(name, idx, cycleID, t0, time.Now()))
				}
				if status != http.StatusOK {
					bad[i]++
				}
			}
			if traced {
				rc.tr.merge(mine)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		t4 := time.Now()
		requests := len(cy.posts) + 2 + len(burst)
		rc.attempted += requests
		// The write-fold-probe part and the read burst are slices of their
		// own, so the quietest repeat of each is kept separately: items
		// 0…positions-1 are the write parts, the rest the bursts.
		slices = append(slices,
			slice{item: pos, units: float64(len(cy.posts) + 2), elapsed: t3.Sub(cycleStart), opMs: t3.Sub(sent).Seconds() * 1e3},
			slice{item: sz.positions + pos, units: float64(len(burst)), elapsed: t4.Sub(t3)})
		if traced {
			cs := rc.tr.local("mixed.cycle", idx, rc.segSpan, cycleStart, t4)
			cs.ID = cycleID
			rc.tr.merge(append(local, cs,
				rc.tr.local("mixed.epoch_post", idx, cycleID, t1, t2),
				rc.tr.local("mixed.lag_probe", idx, cycleID, t2, t3)))
			w.lagMs = append(w.lagMs, t3.Sub(sent).Seconds()*1e3)
			w.readRate = append(w.readRate, float64(len(burst))/t4.Sub(t3).Seconds())
		}
	}
	for i := range clients {
		if bad[i] > 0 {
			rc.fail("segment %d: connection %d got %d wrong answers (status, ack, or a lag probe below its seq)", idx, i, bad[i])
		}
	}
	return slices, nil
}

// check reads sampled reputations through the front door and holds them to
// the exact fixed point of the service's own folded state.
func (w *mixedWorkload) check(rc *runCtx) error {
	src := rng.New(subSeed(rc.seed, "mixed-check", 0))
	view := w.fd.svc.View()
	c := w.fd.clients[0]
	c.arm(time.Minute)
	for _, j := range src.Sample(w.sz.n, w.sz.checkSample) {
		status, body, err := c.do(getRequest("/v1/reputation/" + strconv.Itoa(j)))
		if err != nil {
			return err
		}
		rc.attempted++
		var ack reputationAck
		if status != http.StatusOK || json.Unmarshal(body, &ack) != nil {
			rc.fail("GET reputation %d: status %d", j, status)
			continue
		}
		rc.within(ack.Reputation, diffgossip.GlobalReference(view, j), epsTol, "HTTP-served reputation of subject %d", j)
	}
	refused, err := w.fd.refused()
	if err != nil {
		return err
	}
	if refused != 0 {
		rc.fail("front door refused %v requests", refused)
	}
	return nil
}

func (w *mixedWorkload) counts() map[string]float64 { return nil }

// layers: the read path rung by rung on the final view — in process, through
// the handler without a socket, and the loopback spans of the run itself —
// plus the cost of serialising the view's shard snapshots, which every
// persisted epoch pays.
func (w *mixedWorkload) layers(rc *runCtx, m map[string]float64) error {
	sz := w.sz
	svc := w.fd.svc
	view := svc.View()
	t0 := time.Now()
	for s := 0; s < view.Shards(); s++ {
		if err := view.Shard(s).Save(io.Discard); err != nil {
			return err
		}
	}
	m["store.shard_snapshot.save.ms"] = time.Since(t0).Seconds() * 1e3

	src := rng.New(subSeed(rc.seed, "mixed-ladder", 0))
	const reps = 20000
	subjects := make([]int, reps)
	raters := make([]int, reps)
	for i := range subjects {
		subjects[i] = src.Intn(sz.n)
		raters[i] = w.pools[subjects[i]][src.Intn(sz.raters)]
	}
	t0 = time.Now()
	for _, j := range subjects {
		seg, err := svc.SubjectRead(j)
		if err != nil {
			return err
		}
		if _, err := seg.Reputation(j); err != nil {
			return err
		}
	}
	m["service.subject_read.ns"] = float64(time.Since(t0).Nanoseconds()) / reps
	const personalReps = reps / 10
	t0 = time.Now()
	for i := 0; i < personalReps; i++ {
		if _, _, err := svc.PersonalReputation(raters[i], subjects[i]); err != nil {
			return err
		}
	}
	m["service.personal.us"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / personalReps

	handler := func(n int, url func(i int) string) float64 {
		reqs := make([]*http.Request, n)
		for i := range reqs {
			reqs[i] = httptest.NewRequest("GET", url(i), nil)
		}
		us, wrong := serveAll(w.fd.srv, reqs, http.StatusOK)
		if wrong != 0 {
			rc.fail("handler rung: GET answered %d", wrong)
		}
		return us
	}
	m["httpapi.handler_read.us"] = handler(reps, func(i int) string {
		return "/v1/reputation/" + strconv.Itoa(subjects[i])
	})
	m["httpapi.handler_personal.us"] = handler(personalReps, func(i int) string {
		return "/v1/reputation/" + strconv.Itoa(subjects[i]) + "?as=" + strconv.Itoa(raters[i])
	})

	read := rc.tr.durationsMs("mixed.read")
	personal := rc.tr.durationsMs("mixed.read_personal")
	m["read_p50_ms"] = median(read)
	m["read_personal_p50_ms"] = median(personal)
	m["httpapi.read.p99_ms"] = quantile(read, 0.99)
	m["httpapi.personal.p99_ms"] = quantile(personal, 0.99)
	m["httpapi.reads_per_s"] = quantile(w.readRate, 1)
	m["httpapi.epoch_post.p50_ms"] = median(rc.tr.durationsMs("mixed.epoch_post"))
	m["httpapi.batch64.p50_ms"] = median(rc.tr.durationsMs("mixed.batch64"))
	m["visible_lag_p50_ms"] = median(w.lagMs)
	var err error
	m["httpapi.refused_total"], err = w.fd.refused()
	return err
}

func (w *mixedWorkload) close() {
	if w.fd != nil {
		w.fd.close()
	}
}
