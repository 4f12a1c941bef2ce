package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one call the benchmark made into a layer: its name, its
// interval relative to the tracer's origin and the enclosing span.
type span struct {
	name       string
	start, end time.Duration
	parent     int32 // index into tracer.spans, -1 at the root
}

// tracer times the benchmark's calls into the program. It always
// returns each call's wall time; while on it also keeps a span per call
// in memory until write. Spans come from the benchmark's own goroutine
// only, so the tracer needs no locking.
type tracer struct {
	on     bool
	runID  string
	origin time.Time
	spans  []span
	open   []int32
}

func newTracer(runID string) *tracer {
	return &tracer{runID: runID, origin: time.Now()}
}

// mark is an open call: its start time and, while tracing, its span.
type mark struct {
	id    int32
	start time.Time
}

func (t *tracer) begin(name string) mark {
	now := time.Now()
	if !t.on {
		return mark{id: -1, start: now}
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: now.Sub(t.origin), parent: parent})
	t.open = append(t.open, id)
	return mark{id: id, start: now}
}

// end closes m and returns the call's wall time.
func (t *tracer) end(m mark) time.Duration {
	now := time.Now()
	if m.id >= 0 {
		t.spans[m.id].end = now.Sub(t.origin)
		t.open = t.open[:len(t.open)-1]
	}
	return now.Sub(m.start)
}

// now is the tracer clock, for phase boundaries.
func (t *tracer) now() time.Duration { return time.Since(t.origin) }

// coverage returns the share of [from, to) that root spans cover. Root
// spans never overlap: they come from one goroutine in sequence.
func (t *tracer) coverage(from, to time.Duration) float64 {
	var covered time.Duration
	for _, s := range t.spans {
		if s.parent >= 0 || s.end <= from || s.start >= to {
			continue
		}
		covered += min(s.end, to) - max(s.start, from)
	}
	return float64(covered) / float64(to-from)
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.name] += s.end - s.start
		if s.parent >= 0 {
			self[t.spans[s.parent].name] -= s.end - s.start
		}
	}
	return self
}

// durations returns the wall times of every span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// write dumps the spans as tab-separated lines (run, id, parent, name,
// start ns, end ns) to path and prints the self-time summary to stderr.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "run\tid\tparent\tname\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%s\t%d\t%d\n", t.runID, i, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s; self time per span name:\n", len(t.spans), path)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-28s %12.3f ms\n", n, float64(self[n])/1e6)
	}
	return nil
}
