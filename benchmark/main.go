// Command benchmark is the repository's one performance benchmark: four
// long workloads over the public diffgossip API and the HTTP front door,
// measured as fixed-count segments of repeated items and reported as a quiet
// pass over the items, plus a traced variant that times each layer from
// outside.
// README.md in this directory explains what is measured and why;
// BENCHMARK.json at the repository root is the contract it is run under.
//
//	bash benchmark/run.sh -workload epoch-dirty5 -seed 7
//	bash benchmark/run.sh -workload http-ingest -trace 1
//	bash benchmark/run.sh -compare 2
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// nominalSegmentSeconds is what one segment lasts on the 2-core reference
// box; -seconds divided by it gives the number of measured segments. The
// work per segment is a fixed operation count, never a duration, so it is
// the same on every run and on both sides of a comparison.
const nominalSegmentSeconds = 2.5

// defaultSeconds is BENCHMARK.json's run_seconds: 8 measured segments.
const defaultSeconds = 20

// setupGroupSeconds is how long an untraced run keeps rebuilding its fixture
// before the measured segments, and again after them.
const setupGroupSeconds = 1.5

// tracedSegments is how many traced segments a -trace 1 run measures; it
// interleaves as many untraced ones to price the tracing itself.
const tracedSegments = 4

// overheadLimit is how far bench.trace_overhead may be from 1 before the
// traced run says it could not resolve the tracing cost.
const overheadLimit = 0.05

// buildRoot is where everything the harness writes lives, relative to the
// working directory (the checkout root when started through run.sh).
const buildRoot = ".bench_build"

// workload is one of the four benchmark workloads. A fresh value is built
// for every fixture build; close must release everything setup acquired and
// be safe on a half-built fixture.
type workload interface {
	// setup builds the complete fixture from rc.seed.
	setup(rc *runCtx) error
	// segment runs the workload's fixed operation count once. idx is 0 for
	// the warm-up and counts up from 1; it only selects generator streams.
	segment(rc *runCtx, idx int) ([]slice, error)
	// check verifies the program's outputs after the last segment.
	check(rc *runCtx) error
	// layers runs the outside-in ladder and fills per-layer metrics.
	layers(rc *runCtx, m map[string]float64) error
	// counts returns the exact counts the run produced.
	counts() map[string]float64
	close()
}

// slice is one separately timed piece of a segment, a fraction of a second
// long. Slices with the same item number are repeats of one piece of work:
// the same calls on the same inputs (lib-aggregate), the same requests, or
// the same cells re-rated with fresh values — in every segment, on every
// run — which is what lets the quietest repeat of each stand for the
// undisturbed machine. Every workload has several items and every item is
// repeated at least 16 times in a run.
type slice struct {
	item    int           // which piece of work this slice repeats
	units   float64       // useful work completed (the workload's own unit)
	elapsed time.Duration // wall time of the slice
	opMs    float64       // median latency of the primary operation inside the slice; 0 = none
}

// quiet is the run-level estimator. For every item it keeps the quietest
// repeat: the shortest elapsed time, and the lowest primary-operation
// latency. work_per_s is then the rate of one "quiet pass" over all items,
// Σ units / Σ shortest elapsed, and op_p50_ms the median over the items of
// their lowest latency.
//
// Why the floor and not a median or a quartile: the reference box is a
// shared VM on which identical slices differ by ±20 %, in bursts shorter
// than a second. Interference only ever slows a slice down, and a slice is
// short enough that some repeats of each item run undisturbed, so the floor
// repeats between runs within 1–5 % where the quartiles and the median of
// the same slices move by 12–20 % (measured; see README). The floor is
// taken per item, never across items: repeats of an item do the same
// operations for tens of milliseconds or more, so there is no lucky repeat
// that skips work, and an item that is heavier than the others keeps its
// full weight in the pass.
type quiet struct {
	units   map[int]float64
	elapsed map[int]float64 // seconds
	opMs    map[int]float64
	n       int
}

func newQuiet() *quiet {
	return &quiet{units: map[int]float64{}, elapsed: map[int]float64{}, opMs: map[int]float64{}}
}

func (q *quiet) add(slices []slice) {
	for _, sl := range slices {
		q.n++
		if sec, old := sl.elapsed.Seconds(), q.elapsed[sl.item]; old == 0 || sec < old {
			q.elapsed[sl.item], q.units[sl.item] = sec, sl.units
		}
		if old := q.opMs[sl.item]; sl.opMs > 0 && (old == 0 || sl.opMs < old) {
			q.opMs[sl.item] = sl.opMs
		}
	}
}

func (q *quiet) workPerS() float64 {
	var units, sec float64
	for item, e := range q.elapsed {
		units += q.units[item]
		sec += e
	}
	return units / sec
}

func (q *quiet) opP50Ms() float64 {
	ops := make([]float64, 0, len(q.opMs))
	for _, v := range q.opMs {
		ops = append(ops, v)
	}
	return median(ops)
}

// runCtx carries one run's settings and accumulates its outcome.
type runCtx struct {
	seed     uint64
	smoke    bool
	tr       *tracer // nil on untraced runs
	dataRoot string  // this run's scratch directory
	out      io.Writer

	segSpan    int32 // root span id of the segment running, while tracing
	attempted  int
	failed     int
	maxAbsErr  float64
	problems   []string
	unresolved []string // ladder rungs that contradict the span they decompose
}

// unresolve records that a traced run's layer numbers do not add up — rungs
// that sum above the span they split, a ladder that is not monotone, tracing
// that cost more than overheadLimit. The outputs are still correct, so the
// run does not fail; it prints UNRESOLVED and the numbers must not carry a
// claim.
func (rc *runCtx) unresolve(format string, args ...any) {
	rc.unresolved = append(rc.unresolved, fmt.Sprintf(format, args...))
}

// fail records a failed output check.
func (rc *runCtx) fail(format string, args ...any) {
	if len(rc.problems) < 20 {
		rc.problems = append(rc.problems, fmt.Sprintf(format, args...))
	}
	rc.failed++
}

// within records |got-want| and fails the check beyond tol; what and args
// name the value, formatted only on failure.
func (rc *runCtx) within(got, want, tol float64, what string, args ...any) {
	d := math.Abs(got - want)
	if d > rc.maxAbsErr || math.IsNaN(d) {
		rc.maxAbsErr = d
	}
	if !(d <= tol) {
		rc.fail("%s: got %.6f want %.6f (|err| %.2e > %.0e)", fmt.Sprintf(what, args...), got, want, d, tol)
	}
}

// epsTol is tier-1's own tolerance for "a served reputation equals the
// exact fixed point" (epsTol in internal/service/service_test.go).
const epsTol = 1e-2

type workloadDef struct {
	name, unit string // unit of work_per_s's numerator
	why        string
	new        func() workload
}

var workloads = []workloadDef{
	{"lib-aggregate", "aggregation calls",
		"library only: Alg. 1, Alg. 2 and the dense vector engine do all the work; store, service and httpapi do none",
		func() workload { return &libWorkload{} }},
	{"epoch-dirty5", "ratings made visible",
		"in-memory service, 5% of subjects re-rated per epoch: column freeze and fold dominate, no WAL, no HTTP",
		func() workload { return &epochWorkload{} }},
	{"http-ingest", "accepted ratings",
		"write path over loopback: decode, validate, WAL encode, flush and fsync for singles and 1,024-rating batches; no timed gossip",
		func() workload { return &ingestWorkload{} }},
	{"http-mixed", "HTTP requests",
		"read/write mix on the front door: batch POSTs, a small warm epoch, a lag probe, then global and personalised reads of the fresh views",
		func() workload { return &mixedWorkload{} }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds = flag.Int("seconds", defaultSeconds, "nominal measured duration; sets the segment count")
		trace   = flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
		smoke   = flag.Bool("smoke", false, "tiny sizes and 2 segments, for the hermetic tests")
		compare = flag.Int("compare", 0, "run every workload this many times and compare the runs")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *compare > 0 {
		os.Exit(runCompare(*compare, *seed, *seconds))
	}
	def, ok := findWorkload(*name)
	if !ok {
		fatalf("unknown -workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	segments := int(math.Round(float64(*seconds) / nominalSegmentSeconds))
	if *smoke {
		segments = 2
	}
	if segments < 2 {
		segments = 2
	}
	res, err := runOne(def, *seed, segments, *trace != 0, *smoke, os.Stdout)
	if err != nil {
		fatalf("%s: %v", def.name, err)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runOne runs one workload start to finish. Whatever happens — success,
// failed check, error, panic, SIGINT — the run's scratch directory and
// everything the fixture opened is released before it returns.
func runOne(def workloadDef, seed uint64, segments int, traced, smoke bool, out io.Writer) (res *result, err error) {
	dataRoot, fsName, err := makeDataRoot()
	if err != nil {
		return nil, err
	}
	rc := &runCtx{seed: seed, smoke: smoke, dataRoot: dataRoot, out: out}
	if traced {
		rc.tr = newTracer()
	}
	var w workload
	cleanup := func() {
		if w != nil {
			w.close()
			w = nil
		}
		os.RemoveAll(dataRoot)
	}
	sig := make(chan os.Signal, 1)
	done := make(chan struct{})
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(sig)
		close(done)
	}()
	go func() {
		select {
		case <-sig:
			os.RemoveAll(dataRoot)
			os.Exit(130)
		case <-done:
		}
	}()
	defer func() {
		cleanup()
		if p := recover(); p != nil {
			panic(p)
		}
	}()

	env := readEnv(fsName)
	fmt.Fprintf(out, "workload %s: %s\n", def.name, def.why)
	fmt.Fprintf(out, "env %s\n", env.line(seed, segments, traced, smoke))

	// Set-up: complete fixture builds from the same seed, the fastest of
	// which is reported. One group of builds is made now and one after the
	// measured segments, so the two sample the machine some twenty seconds
	// apart; a group builds until setupGroupSeconds have been spent, at least
	// 3 and at most 20 times, so that a cheap fixture is timed more often. The
	// last build of the first group is the one the run uses. A traced run does
	// not report setup_s and builds once.
	var builds []float64
	atLeast, budget := 3, setupGroupSeconds
	if traced {
		atLeast, budget = 1, 0
	}
	build := func() (workload, error) {
		var fx workload
		for n, spent := 0, 0.0; n < atLeast || (spent < budget && n < 20); n++ {
			if fx != nil {
				fx.close()
			}
			fx = def.new()
			// Every build starts from a collected heap, not from whatever
			// the previous fixture left for the collector.
			runtime.GC()
			t0 := time.Now()
			if err := fx.setup(rc); err != nil {
				fx.close()
				return nil, fmt.Errorf("setup: %w", err)
			}
			d := time.Since(t0).Seconds()
			builds = append(builds, d)
			spent += d
		}
		return fx, nil
	}
	if w, err = build(); err != nil {
		return nil, err
	}

	// Warm-up segment, discarded; then the measured ones. A traced run
	// alternates untraced and traced segments of the same work.
	rc.attempted, rc.failed = 0, 0
	if _, err := runSegment(w, rc, 0); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	total := segments
	if traced {
		total = 2 * tracedSegments
	}
	plain, withTrace := newQuiet(), newQuiet()
	for i := 1; i <= total; i++ {
		if traced {
			rc.tr.on = i%2 == 0
		}
		slices, err := runSegment(w, rc, i)
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", i, err)
		}
		if rc.tr.active() {
			withTrace.add(slices)
		} else {
			plain.add(slices)
		}
		// One segment's own view: the rate over all its slices, and the
		// spread of its slices' primary-operation latencies.
		var units, sec float64
		var ops []float64
		for _, sl := range slices {
			units += sl.units
			sec += sl.elapsed.Seconds()
			if sl.opMs > 0 {
				ops = append(ops, sl.opMs)
			}
		}
		fmt.Fprintf(out, "segment %d traced=%v slices %d timed %.3fs work_per_s %.2f op_p50_ms min %.4f median %.4f max %.4f\n",
			i, rc.tr.active(), len(slices), sec, units/sec, minOf(ops), median(ops), quantile(ops, 1))
	}
	if traced {
		rc.tr.on = false
	}
	fmt.Fprintf(out, "quiet pass over %d items from %d slices: work_per_s (%s/s) %.4f op_p50_ms %.4f\n",
		len(plain.elapsed), plain.n, def.unit, plain.workPerS(), plain.opP50Ms())

	if err := w.check(rc); err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	if !traced {
		again, err := build()
		if err != nil {
			return nil, err
		}
		again.close()
	}
	fmt.Fprintf(out, "setup builds %d fastest %.4fs median %.4fs all %.4f\n", len(builds), minOf(builds), median(builds), builds)

	res = &result{Attempted: rc.attempted, Failed: rc.failed, Metrics: map[string]metricValue{}}
	if !traced {
		values := map[string]float64{
			"setup_s":    minOf(builds),
			"work_per_s": plain.workPerS(),
			"op_p50_ms":  plain.opP50Ms(),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{values[m.name], m.unit}
		}
	} else {
		layer := map[string]float64{}
		if err := w.layers(rc, layer); err != nil {
			return nil, fmt.Errorf("layers: %w", err)
		}
		overhead := withTrace.workPerS() / plain.workPerS()
		layer["bench.trace_overhead"] = overhead
		if math.Abs(overhead-1) > overheadLimit {
			rc.unresolve("bench.trace_overhead %.3f is more than %.0f %% from 1", overhead, overheadLimit*100)
		}
		layer["core.max_abs_err"] = rc.maxAbsErr
		for k, v := range w.counts() {
			layer[k] = v
		}
		for name := range layer {
			if _, ok := perLayerIndex[name]; !ok {
				return nil, fmt.Errorf("layers: %q is not a per-layer metric of BENCHMARK.json", name)
			}
		}
		// A layer this workload never enters reads 0: that is the bypass.
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{layer[m.name], m.unit}
		}
		path := filepath.Join(buildRoot, "trace", fmt.Sprintf("%s-seed%d.jsonl", def.name, seed))
		if err := rc.tr.writeFile(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(out, "spans %d written to %s\n", len(rc.tr.spans), path)
		self := rc.tr.selfMs()
		names := make([]string, 0, len(self))
		for n := range self {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(out, "span %-22s calls %7d total_self_ms %.3f\n", n, len(rc.tr.durationsMs(n)), self[n])
		}
	}
	cj, _ := json.Marshal(w.counts())
	fmt.Fprintf(out, "counts %s\n", cj)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "metric %-44s %s %s\n", n, strconv.FormatFloat(res.Metrics[n].Value, 'g', -1, 64), res.Metrics[n].Unit)
	}
	fmt.Fprintf(out, "max_abs_err %.3e attempted %d failed %d\n", rc.maxAbsErr, rc.attempted, rc.failed)
	for _, p := range rc.problems {
		fmt.Fprintf(out, "FAILED CHECK %s\n", p)
	}
	for _, u := range rc.unresolved {
		fmt.Fprintf(out, "UNRESOLVED %s\n", u)
	}
	res.Failed = rc.failed
	res.Correct = rc.failed == 0
	return res, nil
}

// runSegment wraps one segment in its root span.
func runSegment(w workload, rc *runCtx, idx int) ([]slice, error) {
	var t0 time.Time
	if rc.tr.active() {
		rc.segSpan = rc.tr.id()
		t0 = time.Now()
	}
	slices, err := w.segment(rc, idx)
	if err != nil {
		return nil, err
	}
	if rc.tr.active() {
		s := rc.tr.local("segment", idx, 0, t0, time.Now())
		s.ID = rc.segSpan
		rc.tr.merge([]span{s})
	}
	if len(slices) == 0 {
		return nil, errors.New("segment measured nothing")
	}
	return slices, nil
}

// makeDataRoot creates this run's scratch directory under buildRoot and
// removes the leftovers of runs whose process no longer exists, so a crashed
// run can never change the next run's numbers.
func makeDataRoot() (dir, fsName string, err error) {
	parent := filepath.Join(buildRoot, "data")
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", "", err
	}
	entries, _ := os.ReadDir(parent)
	for _, e := range entries {
		var pid int
		if _, err := fmt.Sscanf(e.Name(), "run-%d", &pid); err != nil || processAlive(pid) {
			continue
		}
		os.RemoveAll(filepath.Join(parent, e.Name()))
	}
	dir = filepath.Join(parent, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	return dir, fsTypeName(dir), nil
}

func processAlive(pid int) bool {
	return pid > 0 && syscall.Kill(pid, 0) != syscall.ESRCH
}
