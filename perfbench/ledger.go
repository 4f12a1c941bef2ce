package main

import (
	"fmt"
	"os"
	"slices"

	"talon/internal/obs"
)

// ledger reads the program's existing obs.Default() counters and
// histograms as deltas; the benchmark adds no instrumentation. Lookups
// fail for names the program never registered, so a renamed metric
// cannot read as a silent zero.
type ledger struct {
	counters map[string]*obs.Counter
	hists    map[string]*obs.Histogram
	// mayStay names the counters of rare events (failures, drops,
	// fallbacks) for which zero is a legitimate reading.
	mayStay map[string]bool
}

func newLedger() *ledger {
	return &ledger{
		counters: map[string]*obs.Counter{},
		hists:    map[string]*obs.Histogram{},
		mayStay:  map[string]bool{},
	}
}

func registered(name string) error {
	if _, ok := slices.BinarySearch(obs.Default().Names(), name); !ok {
		return fmt.Errorf("metric %s is not registered by the program", name)
	}
	return nil
}

// counter returns the named registry counter. optional marks a counter
// of rare events that may legitimately stay at zero.
func (l *ledger) counter(name string, optional bool) (*obs.Counter, error) {
	if err := registered(name); err != nil {
		return nil, err
	}
	c := obs.Default().NewCounter(name, "")
	l.counters[name] = c
	if optional {
		l.mayStay[name] = true
	}
	return c, nil
}

// hist returns the named registry histogram.
func (l *ledger) hist(name string) (*obs.Histogram, error) {
	if err := registered(name); err != nil {
		return nil, err
	}
	h := obs.Default().NewHistogram(name, "", nil)
	l.hists[name] = h
	return h, nil
}

// reading is a point-in-time copy of every metric the ledger reads;
// histograms appear as "<name>.count" and "<name>.sum".
type reading map[string]float64

func (l *ledger) read() reading {
	r := make(reading, len(l.counters)+2*len(l.hists))
	for n, c := range l.counters {
		r[n] = float64(c.Value())
	}
	for n, h := range l.hists {
		r[n+".count"] = float64(h.Count())
		r[n+".sum"] = h.Sum()
	}
	return r
}

func (r reading) since(base reading, key string) float64 { return r[key] - base[key] }

// dead is the dead-metric guard: every metric the ledger reads must have
// moved between base and r, since the layer it belongs to ran. Only the
// rare-event counters may stay at zero.
func (l *ledger) dead(base, r reading) error {
	for key := range r {
		if l.mayStay[key] || r.since(base, key) > 0 {
			continue
		}
		return fmt.Errorf("registry metric %s stayed at 0 while its layer ran", key)
	}
	return nil
}

// traceMetrics fills the metrics every traced run reports: runtime
// deltas of the untraced phase, the tracing overhead and the share of
// the traced phase no root span covers. It flags a run whose spans cover
// less than 90% of the measured wall time.
func traceMetrics(o *outcome, tr *tracer, plain, traced phase, workload string) error {
	ops := float64(max(plain.ops, 1))
	o.layer["runtime.alloc_bytes_per_op"] = float64(plain.mem1.TotalAlloc-plain.mem0.TotalAlloc) / ops
	o.layer["runtime.gc_cycles"] = float64(plain.mem1.NumGC - plain.mem0.NumGC)
	o.layer["runtime.gc_pause_ms"] = float64(plain.mem1.PauseTotalNs-plain.mem0.PauseTotalNs) / 1e6
	o.layer["trace.overhead_pct"] = 100 * (plain.opsPerSec()/traced.opsPerSec() - 1)
	cov := tr.coverage(traced.from, traced.to)
	o.layer["trace.unattributed_pct"] = 100 * (1 - cov)
	if cov < 0.9 {
		fmt.Fprintf(os.Stderr, "perfbench: FLAG spans cover %.1f%% of the traced wall time, below 90%%\n", 100*cov)
	}
	return tr.write(fmt.Sprintf(".bench_build/spans-%s.tsv", workload))
}

// nsPerCall times k calls of fn and returns the mean in nanoseconds,
// for calls too short to time one by one.
func nsPerCall(tr *tracer, name string, k int, fn func(i int)) float64 {
	m := tr.begin(name)
	for i := 0; i < k; i++ {
		fn(i)
	}
	return float64(tr.end(m).Nanoseconds()) / float64(k)
}
