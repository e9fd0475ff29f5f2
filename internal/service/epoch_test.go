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
)

// TestTraceMetricsAgree pins the three observability surfaces to one truth:
// the per-epoch trace rows' computed subjects and step counts sum to the
// service counters, which are exactly what the Prometheus registry scrapes
// and what Stats reports, and the campaign-steps histogram has observed
// every campaign that ran — one per subject re-rated in an epoch, never the
// untouched rest of a dirty shard.
func TestTraceMetricsAgree(t *testing.T) {
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

	var traceComputed, traceSteps uint64
	for _, row := range s.Trace() {
		for _, sh := range row.Shards {
			traceComputed += uint64(sh.Computed)
			traceSteps += uint64(sh.Steps)
		}
	}
	if traceComputed != s.FoldedSubjects() {
		t.Fatalf("trace sums %d computed subjects, counter %d", traceComputed, s.FoldedSubjects())
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
	if got := scraped("diffgossip_service_folded_subjects_total"); got != float64(s.FoldedSubjects()) {
		t.Fatalf("scraped folded subjects %v, counter %d", got, s.FoldedSubjects())
	}
	if got := scraped("diffgossip_service_campaign_steps_total"); got != float64(traceSteps) {
		t.Fatalf("scraped campaign steps %v, trace sums %d", got, traceSteps)
	}
	if got := scraped("diffgossip_service_campaign_steps_count"); got != float64(s.FoldedSubjects()) {
		t.Fatalf("steps histogram observed %v campaigns, folded %d", got, s.FoldedSubjects())
	}
	// Stats mirrors the same counter.
	if st := s.Stats(); st.FoldedSubjects != s.FoldedSubjects() {
		t.Fatalf("stats folded subjects %d, counter %d", st.FoldedSubjects, s.FoldedSubjects())
	}
}

// TestWarmStartDisabled: no service starts a campaign warm, standalone or
// replicating. WarmStarts stays 0 and ColdStarts is FoldedSubjects — the
// split callers that predate the one seed rule still read.
func TestWarmStartDisabled(t *testing.T) {
	const n = 30
	for _, origin := range []string{"", "node-a"} {
		s := newTestService(t, n, Config{Shards: 3, Origin: origin})
		for e := 0; e < 3; e++ {
			submitBatch(t, s, n, 60, uint64(40+e))
			mustEpoch(t, s)
		}
		if s.WarmStarts() != 0 || s.ColdStarts() != s.FoldedSubjects() || s.FoldedSubjects() == 0 {
			t.Fatalf("origin %q: warm %d / cold %d, want 0 / the %d folded subjects",
				origin, s.WarmStarts(), s.ColdStarts(), s.FoldedSubjects())
		}
	}
}

// TestRestartRefoldIsBitExact: the first fold of a shard after a restart
// computes every rated subject of the shard (the carry trusts only segments
// this process folded), and because campaigns depend only on (Params.Seed,
// subject id) and the trust column, that refold reproduces the untouched
// subjects' published values bit for bit.
func TestRestartRefoldIsBitExact(t *testing.T) {
	const n, shards, raters = 40, 4, 3
	cfg := Config{Graph: testGraph(t, n, 7), Params: core.Params{Epsilon: 1e-6, Seed: 11}, Dir: t.TempDir(), Shards: shards}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rateAll(t, s, n, raters)
	before := mustEpoch(t, s)
	s.Close()

	if s, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Subject 8 (shard 0) changes its first rater's value; nothing else moves.
	if _, err := s.Submit(9, 8, 0.9); err != nil {
		t.Fatal(err)
	}
	after := mustEpoch(t, s)
	if got := s.FoldedSubjects(); got != n/shards {
		t.Fatalf("first fold after restart computed %d subjects, want shard 0's %d", got, n/shards)
	}
	for j := 0; j < n; j++ {
		b, _ := before.Reputation(j)
		a, _ := after.Reputation(j)
		if j == 8 {
			if a == b {
				t.Fatal("the re-rated subject kept its value")
			}
			continue
		}
		if a != b {
			t.Fatalf("subject %d: %v before the restart, %v after the refold", j, b, a)
		}
	}
}

// TestCarrySkipSpendsFifthOfRefoldSteps pins the incremental-epoch claim as a
// count. Twin services receive an identical base batch and an identical
// second batch re-rating 5% of the subjects from a rater each already has.
// The incremental twin folds the base, then the re-ratings: modulo shard
// placement makes that slice dirty every shard, yet only the six re-rated
// subjects compute and every other slot is carried over. The refold twin
// folds everything in one epoch from boot — the same trust state recomputed
// from scratch. The incremental epoch must cost at most a fifth of the
// refold's campaign steps (223 against 4,687 at this seed): what carries the
// ratio is not recomputing the untouched 95%.
func TestCarrySkipSpendsFifthOfRefoldSteps(t *testing.T) {
	const n, shards, raters = 120, 6, 12
	g := testGraph(t, n, 7)
	twin := func() *Service {
		return newTestService(t, n, Config{
			Graph:  g,
			Params: core.Params{Epsilon: 1e-6, Seed: 11},
			Shards: shards,
		})
	}
	inc, refold := twin(), twin()

	src := rng.New(31)
	rate := func(j, i int) {
		t.Helper()
		v := src.Float64()
		for _, s := range []*Service{inc, refold} {
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
	epoch(inc)
	for j := 0; j < n/20; j++ {
		rate(j, 0)
	}
	incSteps, refoldSteps := epoch(inc).TotalSteps(), epoch(refold).TotalSteps()

	if inc.FoldedSubjects() != n+n/20 || refold.FoldedSubjects() != n {
		t.Fatalf("incremental twin ran %d campaigns over two epochs, want %d; refold twin %d in one, want %d",
			inc.FoldedSubjects(), n+n/20, refold.FoldedSubjects(), n)
	}
	if inc.FoldedShards() != 2*shards || refold.FoldedShards() != shards {
		t.Fatalf("twins folded %d / %d shards, want %d / %d", inc.FoldedShards(), refold.FoldedShards(), 2*shards, shards)
	}
	if refoldSteps == 0 || 5*incSteps > refoldSteps {
		t.Fatalf("incremental epoch spent %d campaign steps, want at most a fifth of the refold's %d", incSteps, refoldSteps)
	}
}

// TestEpochHammer runs epochs under concurrent ingest and reads — the race
// job runs this with -race to shake out publication hazards around the
// carried-over slots and engine reuse.
func TestEpochHammer(t *testing.T) {
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
