package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// None of these tests asserts a timing: they pin the estimators, the
// generators' determinism, the output checks at smoke size, the agreement
// between the harness and BENCHMARK.json, and the teardown.

func TestQuantileHelpers(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.125, 1.5}} {
		if got := quantile(v, c.p); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", v, c.p, got, c.want)
		}
	}
	if !reflect.DeepEqual(v, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("quantile reordered its input: %v", v)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := minOf([]float64{3, 1, 2}); got != 1 {
		t.Errorf("minOf = %v", got)
	}
}

// TestQuietPass: the estimator keeps, per item, the quietest repeat, and is
// blind to how disturbed the other repeats were.
func TestQuietPass(t *testing.T) {
	ms := func(d float64) time.Duration { return time.Duration(d * float64(time.Millisecond)) }
	calm := []slice{
		{item: 0, units: 2, elapsed: ms(100), opMs: 100},
		{item: 1, units: 2, elapsed: ms(300), opMs: 300},
		{item: 2, units: 1, elapsed: ms(100)},
	}
	q := newQuiet()
	q.add(calm)
	if got := q.workPerS(); math.Abs(got-10) > 1e-9 {
		t.Errorf("work_per_s = %v, want 10 (5 units in 0.5 s)", got)
	}
	if got := q.opP50Ms(); got != 200 {
		t.Errorf("op_p50_ms = %v, want 200 (median of 100 and 300; item 2 has no operation)", got)
	}
	// Disturbed repeats of the same items change nothing; a quieter repeat
	// of one item replaces only that item's floor.
	q.add([]slice{
		{item: 0, units: 2, elapsed: ms(170), opMs: 170},
		{item: 1, units: 2, elapsed: ms(290), opMs: 310},
		{item: 2, units: 1, elapsed: ms(400)},
	})
	if got := q.workPerS(); math.Abs(got-5/0.49) > 1e-9 {
		t.Errorf("work_per_s = %v, want %v", got, 5/0.49)
	}
	if got := q.opP50Ms(); got != 200 {
		t.Errorf("op_p50_ms = %v, want 200", got)
	}
	if q.n != 6 || len(q.elapsed) != 3 {
		t.Errorf("counted %d slices of %d items, want 6 of 3", q.n, len(q.elapsed))
	}
}

// generated renders everything the generators produce for one seed into one
// byte string.
func generated(seed uint64) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	pools := genPools(seed, 60, 5)
	enc.Encode(pools)
	enc.Encode(genSeedRatings(seed, pools))
	enc.Encode(genUpdates(seed, "epoch-round", 3, 9, pools, 4, 12))
	enc.Encode(genUpdates(seed, "mixed-cycle", 3, 9, pools, 4, 12))
	b.Write(batchJSON(genUpdates(seed, "x", 0, 0, pools, 4, 8)))
	enc.Encode(subSeed(seed, "lib-graph", 0))
	return b.Bytes()
}

func TestGeneratorsAreSeedDeterministic(t *testing.T) {
	a, b, c := generated(7), generated(7), generated(8)
	if !bytes.Equal(a, b) {
		t.Error("the same seed generated different inputs")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds generated identical inputs")
	}
	if subSeed(7, "a", 0) == subSeed(7, "b", 0) || subSeed(7, "a", 0) == subSeed(7, "a", 1) {
		t.Error("subSeed does not separate purposes and indices")
	}
	// Re-ratings must come from existing raters and touch every shard.
	pools := genPools(7, 60, 5)
	touched := map[int]bool{}
	first, again := genUpdates(7, "epoch-round", 0, 0, pools, 4, 12), genUpdates(7, "epoch-round", 0, 1, pools, 4, 12)
	for k, u := range first {
		// A repeat of a position re-rates the same cells with fresh values.
		if v := again[k]; v.Rater != u.Rater || v.Subject != u.Subject || v.Value == u.Value {
			t.Errorf("repeat of position 0: update %d is %+v, first was %+v", k, v, u)
		}
		touched[u.Subject%4] = true
		found := false
		for _, r := range pools[u.Subject] {
			found = found || r == u.Rater
		}
		if !found {
			t.Errorf("update %+v is not from one of the subject's raters %v", u, pools[u.Subject])
		}
	}
	if len(touched) != 4 {
		t.Errorf("a round touched %d of 4 shards", len(touched))
	}
}

// TestRequestBodiesAreSeedDeterministic builds the http-ingest fixture twice
// and compares the pre-rendered requests, the bytes the server will see.
func TestRequestBodiesAreSeedDeterministic(t *testing.T) {
	t.Chdir(t.TempDir())
	render := func(seed uint64) []byte {
		root, _, err := makeDataRoot()
		if err != nil {
			t.Fatal(err)
		}
		defer os.RemoveAll(root)
		w := &ingestWorkload{}
		defer w.close()
		if err := w.setup(&runCtx{seed: seed, smoke: true, dataRoot: root, out: io.Discard}); err != nil {
			t.Fatal(err)
		}
		return bytes.Join(append(append([][]byte{}, w.singles...), w.batches...), nil)
	}
	if a, b := render(3), render(3); !bytes.Equal(a, b) {
		t.Error("the same seed rendered different requests")
	}
	if bytes.Equal(render(3), render(4)) {
		t.Error("different seeds rendered identical requests")
	}
}

func TestSmokeWorkloadsPassTheirChecks(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			var log bytes.Buffer
			res, err := runOne(def, 1, 2, traced, true, &log)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", def.name, traced, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s",
					def.name, traced, res.Correct, res.Failed, res.Attempted, log.String())
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", def.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%v: metric %s missing or unit %q, want %q", def.name, traced, m.name, got.Unit, m.unit)
				}
				if !traced && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", def.name, m.name, got.Value)
				}
			}
		}
	}
	// Success leaves nothing behind but the span dumps.
	if left, _ := filepath.Glob(filepath.Join(buildRoot, "data", "*")); len(left) != 0 {
		t.Errorf("data directories left behind: %v", left)
	}
}

// TestContractMatchesHarness: BENCHMARK.json names exactly the workloads and
// metrics the harness emits, with the same units, directions and bounds,
// within the driver's limits, and no two metrics share a definition.
func TestContractMatchesHarness(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metricJSON struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricJSON `json:"end_to_end"`
		PerLayer   []metricJSON `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(onDisk))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("command %q paths %q", doc.Command, doc.Paths)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the harness defaults to %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads on disk, %d in the harness", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if i < len(workloads) && (w.Name != workloads[i].name || w.Why != workloads[i].why) {
			t.Errorf("workload %d on disk is %q (%q), the harness has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	sameMetrics := func(kind string, disk []metricJSON, have []metricDef) {
		if len(disk) != len(have) {
			t.Errorf("%d %s metrics on disk, %d in the harness", len(disk), kind, len(have))
			return
		}
		for i, m := range disk {
			if h := have[i]; m.Name != h.name || m.Unit != h.unit || m.Better != h.better || m.Bound != h.bound {
				t.Errorf("%s metric %d on disk is %+v, the harness has %s %s %s %v", kind, i, m, h.name, h.unit, h.better, h.bound)
			}
		}
	}
	sameMetrics("end-to-end", doc.EndToEnd, endToEnd)
	sameMetrics("per-layer", doc.PerLayer, perLayer)

	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	defs := map[string]string{}
	unique := func(name string) {
		if !nameRe.MatchString(name) {
			t.Errorf("name %q is outside the contract's alphabet", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		unique(w.name)
		if len(w.why) > 200 || w.why == "" {
			t.Errorf("workload %s: why has %d characters", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		unique(m.name)
		if !unitRe.MatchString(m.unit) {
			t.Errorf("metric %s: unit %q", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %s: better %q", m.name, m.better)
		}
		if other, dup := defs[m.def]; dup || m.def == "" {
			t.Errorf("metric %s has the same definition as %s: %q", m.name, other, m.def)
		}
		defs[m.def] = m.name
	}
	for _, m := range endToEnd {
		if !(m.bound > 0 && m.bound <= 0.25) {
			t.Errorf("metric %s: bound %v", m.name, m.bound)
		}
		hasSetup = hasSetup || (m.name == "setup_s" && m.unit == "s" && m.better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(perLayer) < 1 || len(perLayer) > 128 || len(endToEnd) > 16 || len(onDisk) > 64<<10 {
		t.Errorf("contract sizes: %d per-layer, %d end-to-end, %d bytes", len(perLayer), len(endToEnd), len(onDisk))
	}
}

// brokenWorkload fails in a chosen way after it has written into the run's
// scratch directory.
type brokenWorkload struct{ mode string }

func (w *brokenWorkload) setup(rc *runCtx) error {
	return os.WriteFile(filepath.Join(rc.dataRoot, "wal"), []byte("x"), 0o644)
}
func (w *brokenWorkload) segment(rc *runCtx, idx int) ([]slice, error) {
	switch {
	case w.mode == "panic" && idx == 1:
		panic("boom")
	case w.mode == "error" && idx == 1:
		return nil, errors.New("boom")
	case w.mode == "check":
		rc.fail("wrong output")
	}
	return []slice{{units: 1, elapsed: 1, opMs: 1}}, nil
}
func (w *brokenWorkload) check(rc *runCtx) error                        { return nil }
func (w *brokenWorkload) layers(rc *runCtx, m map[string]float64) error { return nil }
func (w *brokenWorkload) counts() map[string]float64                    { return nil }
func (w *brokenWorkload) close()                                        {}

func TestTeardownOnEveryExit(t *testing.T) {
	t.Chdir(t.TempDir())
	dataDirs := func() []string {
		left, _ := filepath.Glob(filepath.Join(buildRoot, "data", "*"))
		return left
	}
	for _, mode := range []string{"ok", "check", "error", "panic"} {
		def := workloadDef{name: "broken-" + mode, new: func() workload { return &brokenWorkload{mode} }}
		func() {
			defer func() {
				if p := recover(); (p != nil) != (mode == "panic") {
					t.Errorf("%s: recovered %v", mode, p)
				}
			}()
			res, err := runOne(def, 1, 2, false, true, io.Discard)
			if (err != nil) != (mode == "error") {
				t.Errorf("%s: err = %v", mode, err)
			}
			if err == nil && res.Correct != (mode == "ok") {
				t.Errorf("%s: correct = %v", mode, res.Correct)
			}
		}()
		if left := dataDirs(); len(left) != 0 {
			t.Errorf("%s: left behind %v", mode, left)
		}
	}
	// The leftover of a crashed run (no such process) is swept by the next.
	stale := filepath.Join(buildRoot, "data", "run-2147483000")
	if err := os.MkdirAll(filepath.Join(stale, "svc-1"), 0o755); err != nil {
		t.Fatal(err)
	}
	root, _, err := makeDataRoot()
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(root)
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale run directory survived: %v", err)
	}
}
