package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// tracer keeps the benchmark's spans in memory and writes them, one trace
// per line in the FORMATS.md §4 JSONL shape, when the run ends. Spans are
// recorded only around the benchmark's own calls into the program's
// layers; the program itself is not instrumented. A nil *tracer records
// nothing, so untraced runs pay no tracing cost.
type tracer struct {
	mu     sync.Mutex
	state  uint64
	traces map[string]*obs.Trace
	order  []string
	ends   map[string][]time.Time // per trace, end time of each span
	byName map[string][]time.Duration
}

func newTracer(seed int64) *tracer {
	return &tracer{
		state:  uint64(seed)*0x9E3779B97F4A7C15 + 1,
		traces: map[string]*obs.Trace{},
		ends:   map[string][]time.Time{},
		byName: map[string][]time.Duration{},
	}
}

// nextID is a splitmix64 step; IDs are never zero.
func (t *tracer) nextID() uint64 {
	for {
		t.state += 0x9E3779B97F4A7C15
		z := t.state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		if z != 0 {
			return z
		}
	}
}

// span is one open span. Its zero value (from a nil tracer) only times.
type span struct {
	t                 *tracer
	name              string
	trace, id, parent string
	start             time.Time
}

// root opens a span that starts a new trace.
func (t *tracer) root(name string) *span {
	s := &span{t: t, name: name, start: time.Now()}
	if t == nil {
		return s
	}
	t.mu.Lock()
	s.trace = fmt.Sprintf("%016x%016x", t.nextID(), t.nextID())
	s.id = fmt.Sprintf("%016x", t.nextID())
	t.mu.Unlock()
	return s
}

// child opens a span under s.
func (s *span) child(name string) *span {
	return s.t.join(name, s.trace, s.id)
}

// join opens a span under a parent known only by its IDs, as the server
// side of a request learns them from a header.
func (t *tracer) join(name, trace, parent string) *span {
	c := &span{t: t, name: name, trace: trace, parent: parent, start: time.Now()}
	if t == nil {
		return c
	}
	t.mu.Lock()
	c.id = fmt.Sprintf("%016x", t.nextID())
	t.mu.Unlock()
	return c
}

// end closes the span and returns its duration.
func (s *span) end() time.Duration {
	end := time.Now()
	d := end.Sub(s.start)
	t := s.t
	if t == nil {
		return d
	}
	rec := obs.SpanRecord{
		TraceID: s.trace, SpanID: s.id, ParentID: s.parent, Name: s.name,
		StartUnixNano: s.start.UnixNano(), DurationNanos: d.Nanoseconds(),
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr := t.traces[s.trace]
	if tr == nil {
		tr = &obs.Trace{TraceID: s.trace}
		t.traces[s.trace] = tr
		t.order = append(t.order, s.trace)
	}
	tr.Spans = append(tr.Spans, rec)
	t.ends[s.trace] = append(t.ends[s.trace], end)
	if s.parent == "" {
		tr.Root = s.name
		tr.DurationNanos = d.Nanoseconds()
	}
	t.byName[s.name] = append(t.byName[s.name], d)
	return d
}

// durations returns every recorded duration of spans named name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]time.Duration(nil), t.byName[name]...)
}

// byTrace returns the duration of the span named name in each trace that
// has one.
func (t *tracer) byTrace(name string) map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]time.Duration{}
	for id, tr := range t.traces {
		for _, s := range tr.Spans {
			if s.Name == name {
				out[id] = time.Duration(s.DurationNanos)
			}
		}
	}
	return out
}

// total is the summed duration of spans named name, in seconds.
func (t *tracer) total(name string) float64 {
	var sum time.Duration
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum.Seconds()
}

// traceCount is the number of traces recorded so far; traceIDs(n) then
// returns the IDs of the traces recorded after that point.
func (t *tracer) traceCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.order)
}

func (t *tracer) traceIDs(from int) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.order[from:]...)
}

// write emits every trace as one JSON line, spans in end order with the
// root last.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range t.order {
		tr := t.traces[id]
		ends := t.ends[id]
		idx := make([]int, len(tr.Spans))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			ra, rb := tr.Spans[idx[a]].ParentID == "", tr.Spans[idx[b]].ParentID == ""
			if ra != rb {
				return rb
			}
			return ends[idx[a]].Before(ends[idx[b]])
		})
		sorted := make([]obs.SpanRecord, len(idx))
		for i, j := range idx {
			sorted[i] = tr.Spans[j]
		}
		out := *tr
		out.Spans = sorted
		if err := enc.Encode(&out); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// vetTrace runs the repository's cmd/tracevet over the written trace.
func vetTrace(ctx context.Context, tracevet, path string) error {
	if tracevet == "" {
		return nil
	}
	cmd := exec.CommandContext(ctx, tracevet, "-min-traces", "1", path)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("tracevet %s: %w", path, err)
	}
	return nil
}

// traceHeader carries a request's trace and client span IDs to the
// server-side spans.
const traceHeader = "X-Bench-Trace"
