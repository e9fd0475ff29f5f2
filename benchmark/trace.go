package main

import (
	"bufio"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the harness into the program. Start and End
// are nanoseconds since the run began; Parent is the id of the span that
// caused this one (0 for a segment root); Seg is the segment both belong to,
// the identifier every span of one unit of work shares.
type span struct {
	Name       string
	ID, Parent int32
	Seg        int
	Start, End int64
}

// tracer keeps spans in memory and writes them out once, when the run ends.
// It records only while on is set: a traced run alternates traced and
// untraced segments so the tracing overhead is measured inside one process.
type tracer struct {
	t0   time.Time
	on   bool
	next atomic.Int32

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active reports whether calls should be recorded right now. A nil tracer
// (untraced run) is never active.
func (t *tracer) active() bool { return t != nil && t.on }

func (t *tracer) id() int32 { return t.next.Add(1) }

// local builds a finished span without publishing it: client goroutines
// collect theirs in a local slice and merge once, so the hot request loop
// takes no shared lock.
func (t *tracer) local(name string, seg int, parent int32, start, end time.Time) span {
	return span{name, t.id(), parent, seg, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()}
}

// merge publishes spans.
func (t *tracer) merge(spans []span) {
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
}

// record publishes one finished span and returns its id.
func (t *tracer) record(name string, seg int, parent int32, start, end time.Time) int32 {
	s := t.local(name, seg, parent, start, end)
	t.merge([]span{s})
	return s.ID
}

// durationsMs returns the duration in milliseconds of every span called
// name, in recording order.
func (t *tracer) durationsMs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfMs returns, per span name, the summed self time: each span's duration
// minus the part of that interval its direct children cover. Children may
// overlap (two client connections inside one phase), so the covered part is
// the union of their intervals, not the sum of their durations.
func (t *tracer) selfMs() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, end := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, end), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		self[s.Name] += float64(s.End-s.Start-covered) / 1e6
	}
	return self
}

// writeFile dumps every span as one JSON line.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var b []byte
	t.mu.Lock()
	for _, s := range t.spans {
		b = append(b[:0], `{"name":`...)
		b = strconv.AppendQuote(b, s.Name)
		b = append(b, `,"id":`...)
		b = strconv.AppendInt(b, int64(s.ID), 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, int64(s.Parent), 10)
		b = append(b, `,"segment":`...)
		b = strconv.AppendInt(b, int64(s.Seg), 10)
		b = append(b, `,"start_ns":`...)
		b = strconv.AppendInt(b, s.Start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.End, 10)
		b = append(b, "}\n"...)
		w.Write(b)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
