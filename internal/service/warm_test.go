package service

import (
	"bufio"
	"bytes"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"diffgossip/internal/core"
	"diffgossip/internal/obs"
	"diffgossip/internal/rng"
	"diffgossip/internal/trust"
)

// TestWarmEpochMatchesReference is the tentpole equivalence criterion at the
// service layer: a second epoch that warm-starts most of its campaigns from
// the first epoch's recorded states serves reputations that agree — within
// the reference tolerance — with a from-scratch core.GlobalAll over the same
// folded matrix, for S ∈ {1, 4, 17} and representative worker counts.
func TestWarmEpochMatchesReference(t *testing.T) {
	const n = 60
	const baseSeed = 23
	g := testGraph(t, n, 9)

	// Mirror both feedback batches into a reference matrix, in submission
	// order (ascending timestamps make last-write-wins equal last-Set-wins).
	ref := trust.NewMatrix(n)
	mirror := func(seed uint64, count int) [][3]float64 {
		src := rng.New(seed)
		out := make([][3]float64, count)
		for k := range out {
			out[k] = [3]float64{float64(src.Intn(n)), float64(src.Intn(n)), src.Float64()}
		}
		return out
	}
	batch1 := mirror(77, 500)
	batch2 := mirror(78, 120)
	for _, b := range append(append([][3]float64{}, batch1...), batch2...) {
		if err := ref.Set(int(b[0]), int(b[1]), b[2]); err != nil {
			t.Fatal(err)
		}
	}
	// The cold comparator runs at epoch 2's derived seed with the service's
	// sparse default; the exact column means anchor both runs.
	p := core.Params{Epsilon: 1e-6, Seed: epochSeed(baseSeed, 2), SparseRaterFrac: 0.25}
	all, err := core.GlobalAll(g, ref, p)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct{ shards, foldWorkers, workers int }{
		{1, 1, 0},
		{4, -1, 3},
		{17, 2, -1},
	} {
		s := newTestService(t, n, Config{
			Graph:       g,
			Params:      core.Params{Epsilon: 1e-6, Seed: baseSeed, Workers: tc.workers},
			Shards:      tc.shards,
			FoldWorkers: tc.foldWorkers,
		})
		submit := func(batch [][3]float64) {
			t.Helper()
			for _, b := range batch {
				if _, err := s.Submit(int(b[0]), int(b[1]), b[2]); err != nil {
					t.Fatal(err)
				}
			}
		}
		submit(batch1)
		if _, _, err := s.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		submit(batch2)
		v, ran, err := s.RunEpoch()
		if err != nil || !ran {
			t.Fatalf("S=%d: epoch 2 (ran=%v, err=%v)", tc.shards, ran, err)
		}
		if s.WarmStarts() == 0 {
			t.Fatalf("S=%d: epoch 2 warm-started no campaigns", tc.shards)
		}
		for j := 0; j < n; j++ {
			got, err := v.Reputation(j)
			if err != nil {
				t.Fatal(err)
			}
			if want := all.Reputation[0][j]; math.Abs(got-want) > epsTol {
				t.Fatalf("S=%d foldWorkers=%d workers=%d subject %d: warm-epoch %v vs cold GlobalAll %v",
					tc.shards, tc.foldWorkers, tc.workers, j, got, want)
			}
		}
	}
}

// TestWarmStartTraceMetricsAgree pins the three observability surfaces to
// one truth: the per-epoch trace rows' warm/cold splits sum to the service
// counters, which are exactly what the Prometheus registry scrapes, and the
// campaign-steps histogram has observed every campaign that ran — one per
// subject re-rated in an epoch, never the untouched rest of a dirty shard.
func TestWarmStartTraceMetricsAgree(t *testing.T) {
	const n = 40
	s := newTestService(t, n, Config{Shards: 5})
	reg := obs.NewRegistry()
	s.Instrument(reg)

	src := rng.New(3)
	rerated := 0 // distinct subjects per epoch, summed over the epochs
	for e := 0; e < 4; e++ {
		seen := make(map[int]bool)
		for k := 0; k < 80; k++ {
			i, j := src.Intn(n), src.Intn(n)
			if _, err := s.Submit(i, j, src.Float64()); err != nil {
				t.Fatal(err)
			}
			seen[j] = true
		}
		if _, _, err := s.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		rerated += len(seen)
	}
	if s.FoldedSubjects() != uint64(rerated) {
		t.Fatalf("ran %d campaigns for %d re-rated subjects", s.FoldedSubjects(), rerated)
	}
	if s.WarmStarts() == 0 || s.ColdStarts() == 0 {
		t.Fatalf("hammer produced warm=%d cold=%d — wanted both kinds", s.WarmStarts(), s.ColdStarts())
	}
	if s.WarmStarts()+s.ColdStarts() != s.FoldedSubjects() {
		t.Fatalf("warm %d + cold %d != folded subjects %d", s.WarmStarts(), s.ColdStarts(), s.FoldedSubjects())
	}

	var traceWarm, traceCold uint64
	for _, row := range s.Trace() {
		for _, sh := range row.Shards {
			traceWarm += uint64(sh.WarmStarts)
			traceCold += uint64(sh.ColdStarts)
		}
	}
	if traceWarm != s.WarmStarts() || traceCold != s.ColdStarts() {
		t.Fatalf("trace sums warm=%d cold=%d, counters %d/%d", traceWarm, traceCold, s.WarmStarts(), s.ColdStarts())
	}

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	scraped := func(name string) float64 {
		t.Helper()
		sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, name+" ") {
				v, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
				if err != nil {
					t.Fatalf("metric %s: %v", name, err)
				}
				return v
			}
		}
		t.Fatalf("metric %s not scraped", name)
		return 0
	}
	if got := scraped("diffgossip_service_warm_starts_total"); got != float64(s.WarmStarts()) {
		t.Fatalf("scraped warm starts %v, counter %d", got, s.WarmStarts())
	}
	if got := scraped("diffgossip_service_cold_starts_total"); got != float64(s.ColdStarts()) {
		t.Fatalf("scraped cold starts %v, counter %d", got, s.ColdStarts())
	}
	if got := scraped("diffgossip_service_campaign_steps_count"); got != float64(s.FoldedSubjects()) {
		t.Fatalf("steps histogram observed %v campaigns, folded %d", got, s.FoldedSubjects())
	}
	// Stats mirrors the same counters.
	st := s.Stats()
	if st.WarmStarts != s.WarmStarts() || st.ColdStarts != s.ColdStarts() {
		t.Fatalf("stats warm/cold %d/%d, counters %d/%d", st.WarmStarts, st.ColdStarts, s.WarmStarts(), s.ColdStarts())
	}
}

// TestWarmStateSurvivesRestart: recorded campaign states persist in the
// shard segments, so a restarted service's first epoch still warm-starts —
// unless the graph changed, in which case the fingerprint mismatch forces a
// (correct) cold epoch.
func TestWarmStateSurvivesRestart(t *testing.T) {
	const n = 40
	dir := t.TempDir()
	cfg := Config{Graph: testGraph(t, n, 7), Params: core.Params{Epsilon: 1e-6, Seed: 11}, Dir: dir, Shards: 4}

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submitBatch(t, s, n, 200, 5)
	if _, _, err := s.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submitBatch(t, s2, n, 50, 6)
	if _, _, err := s2.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	if s2.WarmStarts() == 0 {
		t.Fatal("restart lost the persisted warm states")
	}
	s2.Close()

	// A different overlay invalidates the states: every campaign restarts
	// cold, and the results still match the exact references.
	cfg3 := cfg
	cfg3.Graph = testGraph(t, n, 8)
	s3, err := New(cfg3)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	submitBatch(t, s3, n, 50, 7)
	if _, _, err := s3.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	if s3.WarmStarts() != 0 {
		t.Fatalf("graph changed but %d campaigns warm-started off the stale states", s3.WarmStarts())
	}
	v := s3.View()
	for j := 0; j < n; j++ {
		if seg, _ := s3.SubjectRead(j); seg.Epoch == 0 {
			continue
		}
		got, _ := v.Reputation(j)
		if want := core.GlobalRef(v, j); math.Abs(got-want) > epsTol {
			t.Fatalf("subject %d after graph change: %v, reference %v", j, got, want)
		}
	}
}

// TestWarmStartDisabled: Replicate forces every campaign cold — replicas pin
// bit-equality, which warm trajectories would break.
func TestWarmStartDisabled(t *testing.T) {
	const n = 30
	s := newTestService(t, n, Config{Shards: 3, Replicate: true})
	for e := 0; e < 3; e++ {
		submitBatch(t, s, n, 60, uint64(40+e))
		if _, _, err := s.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if s.WarmStarts() != 0 {
		t.Fatalf("%d campaigns warm-started", s.WarmStarts())
	}
	if s.ColdStarts() != s.FoldedSubjects() {
		t.Fatalf("cold %d != folded %d", s.ColdStarts(), s.FoldedSubjects())
	}
}

// TestWarmEpochSpendsFifthOfColdSteps pins the incremental-epoch claim as a
// count. Twin services differing only in Replicate (a replicating service
// starts every campaign cold) receive an identical base batch and an identical
// second batch re-rating 5% of the subjects from a rater each already has.
// The warm twin folds the base, then the re-ratings: modulo shard placement
// makes that slice dirty every shard, yet only the six re-rated subjects
// compute, warm. The cold twin folds everything in one epoch from boot — the
// same trust state recomputed from scratch, every subject cold. The warm
// epoch must cost at most a fifth of that cold epoch's campaign steps (225
// against 4,700 at this seed). What carries the ratio is not recomputing the
// untouched 95%: per re-rated subject a warm campaign at this shape costs what
// a cold one does (TestIncrementalReplicatedFoldMatchesFromBoot counts the
// cold twin folding incrementally).
func TestWarmEpochSpendsFifthOfColdSteps(t *testing.T) {
	const n, shards, raters = 120, 6, 12
	g := testGraph(t, n, 7)
	twin := func(cold bool) *Service {
		return newTestService(t, n, Config{
			Graph:     g,
			Params:    core.Params{Epsilon: 1e-6, Seed: 11},
			Shards:    shards,
			Replicate: cold,
		})
	}
	warm, cold := twin(false), twin(true)

	src := rng.New(31)
	rate := func(j, i int) {
		t.Helper()
		v := src.Float64()
		for _, s := range []*Service{warm, cold} {
			if _, err := s.Submit((j+1+i)%n, j, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	epoch := func(s *Service) *View {
		t.Helper()
		v := mustEpoch(t, s)
		if !v.Converged() {
			t.Fatal("epoch did not converge")
		}
		return v
	}

	for j := 0; j < n; j++ {
		for i := 0; i < raters; i++ {
			rate(j, i)
		}
	}
	epoch(warm)
	for j := 0; j < n/20; j++ {
		rate(j, 0)
	}
	warmSteps, coldSteps := epoch(warm).TotalSteps(), epoch(cold).TotalSteps()

	if warm.FoldedSubjects() != n+n/20 || cold.FoldedSubjects() != n {
		t.Fatalf("warm twin ran %d campaigns over two epochs, want %d; cold twin %d in one, want %d",
			warm.FoldedSubjects(), n+n/20, cold.FoldedSubjects(), n)
	}
	if warm.FoldedShards() != 2*shards || cold.FoldedShards() != shards {
		t.Fatalf("twins folded %d / %d shards, want %d / %d", warm.FoldedShards(), cold.FoldedShards(), 2*shards, shards)
	}
	if warm.WarmStarts() == 0 {
		t.Fatal("warm twin started no campaign warm")
	}
	if cold.ColdStarts() != cold.FoldedSubjects() {
		t.Fatalf("Replicate twin: cold starts %d != folded subjects %d", cold.ColdStarts(), cold.FoldedSubjects())
	}
	if coldSteps == 0 || 5*warmSteps > coldSteps {
		t.Fatalf("warm epoch spent %d campaign steps, want at most a fifth of cold's %d", warmSteps, coldSteps)
	}
}

// TestWarmColdEpochHammer alternates warm and cold epochs under concurrent
// ingest and reads — the race job runs this with -race to shake out
// publication hazards around the shared warm states and engine reuse.
func TestWarmColdEpochHammer(t *testing.T) {
	const n = 50
	s := newTestService(t, n, Config{Shards: 7, Params: core.Params{Epsilon: 1e-4, Seed: 13, Workers: -1}, FoldWorkers: -1})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			src := rng.New(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Submit(src.Intn(n), src.Intn(n), src.Float64())
				s.Reputation(src.Intn(n))
				s.Stats()
			}
		}(uint64(100 + w))
	}
	src := rng.New(99)
	for e := 0; e < 8; e++ {
		// A synchronous dribble guarantees every epoch has work even if the
		// submitter goroutines lag; the concurrent traffic rides on top.
		for k := 0; k < 20; k++ {
			if _, err := s.Submit(src.Intn(n), src.Intn(n), src.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := s.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if s.FoldedSubjects() == 0 {
		t.Fatal("hammer folded nothing")
	}
	v := s.View()
	for j := 0; j < n; j++ {
		if seg, _ := s.SubjectRead(j); seg.Seq == 0 {
			continue
		}
		got, _ := v.Reputation(j)
		if got < 0 || got > 1 || math.IsNaN(got) {
			t.Fatalf("subject %d served out-of-range reputation %v", j, got)
		}
	}
}
