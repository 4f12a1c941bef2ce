// Command perfbench is the repository benchmark. It drives the estimator
// (internal/core), the fleet service (internal/fleet) and the campaign
// pipeline (internal/eval over internal/tracestore) through three
// workloads, checks each workload's outputs and prints one JSON result
// as the last line of standard output.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	perfbench --workload fleet-steady|campaign|select --seed N --seconds S --trace 0|1
//
// --seed drives the workload's inputs only; the platform (pattern
// campaign) seed is fixed. --trace 0 measures the end-to-end metrics with
// tracing off. --trace 1 spends half the measuring time untraced and half
// with a span around every call the benchmark makes into a layer, then
// times the per-layer probes and prints the per-layer metrics. README.md
// defines every metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times a run builds its platform, inputs and
// ramp; setup_s is the median, the last build is the one measured.
// setupCalSamples calibration samples are taken before and after each.
const (
	setupRepeats    = 9
	setupCalSamples = 5
)

// endToEnd lists the end-to-end metrics every workload reports with
// --trace 0, with their units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_us", "us"},
	{"op_tail_us", "us"},
	{"ops_per_s", "1/s"},
	{"sel_loss_mean_db", "dB"},
	{"heap_peak_mb", "MB"},
}

// perLayer lists the per-layer metrics every workload reports with
// --trace 1. A layer the workload does not run reads 0.
var perLayer = []metricDef{
	{"core.select_us", "us"},
	{"core.aoa_us", "us"},
	{"core.eq4_us", "us"},
	{"core.fallback_ratio", "ratio"},
	{"core.batch_busy_ms", "ms"},
	{"core.batch_us_per_item", "us"},
	{"core.batch_items_per_call", "count"},
	{"core.warm_hit_ratio", "ratio"},
	{"core.warm_us", "us"},
	{"core.cold_us", "us"},
	{"core.dict_build_ms", "ms"},
	{"fleet.step_ms", "ms"},
	{"fleet.own_ms", "ms"},
	{"fleet.dispatch_ns", "ns"},
	{"fleet.trainings_per_epoch", "count"},
	{"fleet.retrain_ratio", "ratio"},
	{"fleet.select_failures", "count"},
	{"fleet.queue_drops", "count"},
	{"fleet.pending_end", "count"},
	{"pattern.at_ns", "ns"},
	{"radio.observe_ns", "ns"},
	{"eval.platform_s", "s"},
	{"eval.record_own_ms", "ms"},
	{"eval.replay_parallelism", "ratio"},
	{"eval.record_trials_per_s", "1/s"},
	{"eval.replay_trials_per_s", "1/s"},
	{"tracestore.write_ns_per_record", "ns"},
	{"tracestore.read_ns_per_record", "ns"},
	{"tracestore.read_mapped_ns_per_record", "ns"},
	{"tracestore.bytes_per_record", "B"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"gen.ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.unattributed_pct", "%"},
}

type metricDef struct{ name, unit string }

// runConfig is what the command line hands a workload.
type runConfig struct {
	seed    int64
	measure time.Duration
	trace   bool
}

// outcome is a finished workload run: operation counts, the failed
// output checks and every metric it measured.
type outcome struct {
	attempted, failed int64
	checkFailures     []string
	e2e, layer        map[string]float64
	// info holds the workload's metrics under the names of its own
	// domain (epoch_p50_ms, replay_trials_per_s, ...), printed for
	// people above the JSON line.
	info []infoLine
	// hostScale is the median calibration scale of the measured windows:
	// calRefNs over the calibration CPU time, below 1 on a slow host.
	hostScale float64
}

type infoLine struct {
	name  string
	value float64
	unit  string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.checkFailures = append(o.checkFailures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(name string, value float64, unit string) {
	o.info = append(o.info, infoLine{name, value, unit})
}

type workloadFunc func(ctx context.Context, cfg runConfig) (*outcome, error)

var workloads = map[string]workloadFunc{
	"fleet-steady": runFleet,
	"campaign":     runCampaign,
	"select":       runSelect,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "fleet-steady, campaign or select")
	seed := flag.Int64("seed", 1, "workload input seed")
	seconds := flag.Int("seconds", 10, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	flag.Parse()

	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code, err := run(ctx, *workload, runConfig{
		seed:    *seed,
		measure: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	stop()
	os.Exit(code)
}

func run(ctx context.Context, name string, cfg runConfig) (int, error) {
	w, ok := workloads[name]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q (fleet-steady, campaign or select)", name)
	}
	if cfg.measure <= 0 {
		return 2, errors.New("--seconds must be positive")
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d, %v, trace %v; GOMAXPROCS %d, NumCPU %d, %s %s/%s\n",
		name, cfg.seed, cfg.measure, cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(),
		runtime.Version(), runtime.GOOS, runtime.GOARCH)

	out, err := w(ctx, cfg)
	if err != nil {
		return 1, err
	}
	defs, values := endToEnd, out.e2e
	if cfg.trace {
		defs, values = perLayer, out.layer
	}
	res := result{
		Correct:   len(out.checkFailures) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	fmt.Printf("%-34s %14.4f %s\n", name+"/host_scale", out.hostScale, "ratio")
	for _, l := range out.info {
		fmt.Printf("%-34s %14.4f %s\n", name+"/"+l.name, l.value, l.unit)
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !cfg.trace {
			return 1, fmt.Errorf("workload %s did not measure %s", name, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 1, fmt.Errorf("workload %s measured %s = %v", name, d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("%-34s %14.4f %s\n", d.name, v, d.unit)
	}
	for _, f := range out.checkFailures {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", f)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(blob))
	if !res.Correct {
		return 1, errors.New("output checks failed")
	}
	return 0, nil
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs,
// which it sorts in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// warnTail warns when fewer than ten of n samples lie beyond the pct-th
// percentile, which is then an outlier count rather than a tail.
func warnTail(n int, pct float64, what string) {
	if beyond := float64(n) * (1 - pct/100); beyond < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: WARNING %s p%g has only %.0f of %d samples beyond it\n",
			what, pct, beyond, n)
	}
}

// timedSetups runs setup setupRepeats times and returns the median of
// their process CPU times in seconds, each scaled by calibration samples
// taken just before and after it on every thread (see measure.go), so
// that a host slowing the machine down for a stretch of runs moves
// setup_s less. It notes the median wall time as setup_raw_s.
func timedSetups(o *outcome, setup func() error) (float64, error) {
	var raw, scaled []float64
	threads := runtime.GOMAXPROCS(0)
	for i := 0; i < setupRepeats; i++ {
		var cals []float64
		calibrateSetup := func() {
			for k := 0; k < setupCalSamples; k++ {
				if c, ok := calSample(threads); ok {
					cals = append(cals, c)
				}
			}
		}
		calibrateSetup()
		start, cpu0 := time.Now(), cpuNow()
		if err := setup(); err != nil {
			return 0, err
		}
		t, cpu := time.Since(start).Seconds(), (cpuNow() - cpu0).Seconds()
		calibrateSetup()
		scale := 1.0
		if len(cals) > 0 {
			scale = calRefNs / median(cals)
		}
		raw = append(raw, t)
		scaled = append(scaled, cpu*scale)
	}
	o.note("setup_raw_s", median(raw), "s")
	return median(scaled), nil
}
