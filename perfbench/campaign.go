package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"talon/internal/eval"
	"talon/internal/tracestore"
)

// The campaign workload: eval.RecordCampaign then eval.ReplayCampaign of
// campaignTrials fresh trials per round, on the full pattern grid with
// Workers at its default. The only workload that runs tracestore, as
// writes beside reads; the replay reads the shards the record phase has
// just written, so it measures decode plus estimate, not the disk. Its
// estimator batches are large, cold and hintless, so warm start is
// bypassed.
const (
	// campaignTrials per round: eight shards of one 512-record block.
	campaignTrials = 4096
	// campaignTailPct has about 35 of the run's ~140 rounds beyond it;
	// over ten seeds the p90 varied by 19%, for the same reason as the
	// fleet's.
	campaignTailPct = 75.0
	campaignBase    = "campaign"
)

func runCampaign(ctx context.Context, cfg runConfig) (*outcome, error) {
	o := newOutcome()
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "campaign-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var p *eval.Platform
	var platformS []float64
	setupS, err := timedSetups(o, func() error {
		var build time.Duration
		var err error
		p, build, err = newPlatform(ctx, eval.Full())
		platformS = append(platformS, build.Seconds())
		return err
	})
	if err != nil {
		return nil, err
	}

	led := newLedger()
	for _, name := range []string{"core_batches_total", "core_batch_estimates_total", "eval_trials_total",
		"tracestore_appends_total", "tracestore_bytes_written_total", "tracestore_blocks_read_total",
		"tracestore_records_read_total"} {
		if _, err := led.counter(name, false); err != nil {
			return nil, err
		}
	}
	batchSec, err := led.hist("core_batch_seconds")
	if err != nil {
		return nil, err
	}
	base := led.read()

	tr := newTracer(fmt.Sprintf("campaign-%d-%d", cfg.seed, time.Now().UnixNano()))
	// Each seed owns a disjoint range of trial seeds; round r continues it.
	seedStart := uint64(cfg.seed)<<32 + 1
	var rounds, short, missing, refused, fallbacks, drift, lossN int64
	var lossSum float64
	var recordOwn, replayPar []float64
	var recordBusy, replayBusy time.Duration
	spec := windowSpec{tailPct: campaignTailPct, threads: runtime.GOMAXPROCS(0)}
	plain, traced, err := measure(ctx, cfg, tr, spec, "campaign round", func() (sample, error) {
		cc := eval.CampaignConfig{Dir: dir, Base: campaignBase, Trials: campaignTrials,
			SeedStart: seedStart + uint64(rounds)*campaignTrials}
		b0, c0 := batchSec.Sum(), cpuNow()
		m := tr.begin("eval.RecordCampaign")
		_, err := eval.RecordCampaign(ctx, p, cc)
		rec := tr.end(m)
		if err != nil {
			return sample{}, err
		}
		b1 := batchSec.Sum()
		m = tr.begin("eval.ReplayCampaign")
		sc, err := eval.ReplayCampaign(ctx, p, cc)
		rep := tr.end(m)
		cpu := cpuNow() - c0
		if err != nil {
			return sample{}, err
		}
		b2 := batchSec.Sum()

		rounds++
		refused += sc.Total.Failures
		fallbacks += sc.Total.Fallbacks
		drift += sc.Total.Drift
		if sc.Total.Trials != campaignTrials {
			short++
			missing += max(campaignTrials-sc.Total.Trials, 0)
		}
		lossSum += sc.Total.Loss.MeanDB * float64(sc.Total.Loss.Count)
		lossN += sc.Total.Loss.Count
		recordOwn = append(recordOwn, (rec.Seconds()-(b1-b0))*1e3)
		replayPar = append(replayPar, (b2-b1)/rep.Seconds())
		if !tr.on {
			recordBusy += rec
			replayBusy += rep
		}
		return sample{ops: campaignTrials, lat: rec + rep, busy: rec + rep, cpuLat: cpu, cpuBusy: cpu}, nil
	})
	if err != nil {
		return nil, err
	}
	after := led.read()
	if err := led.dead(base, after); err != nil {
		return nil, err
	}
	// A trial fails when the replay loses it or selects another sector
	// than was recorded. A selection the program refused (every probe
	// lost) is recorded and replayed like any other outcome, and is
	// reported as refused_ratio.
	trials := rounds * campaignTrials
	o.attempted, o.failed = trials, missing+drift
	o.hostScale = plain.stat(0.5, func(w window) float64 { return w.scale })
	o.check(short == 0, "campaign: %d rounds replayed fewer than %d trials", short, campaignTrials)
	o.check(drift == 0, "campaign: selection_drift %d, want 0", drift)
	o.check(lossN > 0, "campaign: no trial has a measurable SNR loss")

	plainTrials := float64(plain.ops)
	o.e2e["setup_s"] = setupS
	o.e2e["op_p50_us"] = plain.p50(true)
	o.e2e["op_tail_us"] = plain.tail(true)
	o.e2e["ops_per_s"] = plain.rate(true)
	o.e2e["sel_loss_mean_db"] = lossSum / float64(max(lossN, 1))
	o.e2e["heap_peak_mb"] = plain.heapPeakMB()
	o.note("record_trials_per_s", plainTrials/recordBusy.Seconds(), "1/s")
	o.note("replay_trials_per_s", plainTrials/replayBusy.Seconds(), "1/s")
	o.note("round_p50_us", plain.p50(false), "us")
	o.note(fmt.Sprintf("round_tail_us(p%g,n=%d)", campaignTailPct, plain.units), plain.tail(false), "us")
	o.note("fail_ratio", float64(o.failed)/float64(trials), "ratio")
	o.note("refused_ratio", float64(refused)/float64(trials), "ratio")
	if !cfg.trace {
		return o, nil
	}

	batches := after.since(base, "core_batches_total")
	items := after.since(base, "core_batch_estimates_total")
	busy := after.since(base, "core_batch_seconds.sum")
	o.layer["core.fallback_ratio"] = float64(fallbacks) / float64(trials-refused)
	o.layer["core.batch_busy_ms"] = 1e3 * busy / float64(rounds)
	o.layer["core.batch_us_per_item"] = 1e6 * busy / items
	o.layer["core.batch_items_per_call"] = items / batches
	o.layer["eval.record_own_ms"] = median(recordOwn)
	o.layer["eval.replay_parallelism"] = median(replayPar)
	recSpans, repSpans := tr.durations("eval.RecordCampaign"), tr.durations("eval.ReplayCampaign")
	o.layer["eval.record_trials_per_s"] = float64(len(recSpans)*campaignTrials) / (sum(recSpans) / 1e9)
	o.layer["eval.replay_trials_per_s"] = float64(len(repSpans)*campaignTrials) / (sum(repSpans) / 1e9)
	o.layer["eval.platform_s"] = median(platformS)

	// The last round's shards are still on disk: time the store alone.
	tr.on = true
	dirs, err := storeProbes(ctx, o, tr, dir)
	if err != nil {
		return nil, err
	}
	if err := layerProbes(o, tr, newLinkBudget(p.Patterns, campaignRefSNRDB, campaignRefDistM), dirs); err != nil {
		return nil, err
	}
	return o, traceMetrics(o, tr, plain, traced, "campaign")
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// storeProbes times tracestore on the shards under dir: replays with a
// no-op callback on both read paths, the decoded records re-appended to
// a fresh Writer, and the bytes a record takes on disk. It returns the
// recorded trial directions.
func storeProbes(ctx context.Context, o *outcome, tr *tracer, dir string) ([]direction, error) {
	shards, err := tracestore.Discover(dir, campaignBase)
	if err != nil {
		return nil, err
	}
	codec, err := tracestore.NewTrialCodec(probeBudget)
	if err != nil {
		return nil, err
	}
	var records, bytes int64
	for _, sh := range shards {
		st, err := os.Stat(sh.Path)
		if err != nil {
			return nil, err
		}
		records += int64(sh.Header.Records)
		bytes += st.Size()
	}
	o.layer["tracestore.bytes_per_record"] = float64(bytes) / float64(records)

	// One worker: a per-record cost, independent of the core count.
	noop := func(int, []tracestore.Trial) error { return nil }
	for _, rp := range []struct {
		metric, span string
		replay       func(context.Context, tracestore.Codec[tracestore.Trial], []tracestore.Shard, int, func(int, []tracestore.Trial) error) error
	}{
		{"tracestore.read_ns_per_record", "probe.tracestore.ReplayShards", tracestore.ReplayShards[tracestore.Trial]},
		{"tracestore.read_mapped_ns_per_record", "probe.tracestore.ReplayShardsMapped", tracestore.ReplayShardsMapped[tracestore.Trial]},
	} {
		var ns []float64
		for i := 0; i < setupRepeats; i++ {
			m := tr.begin(rp.span)
			err := rp.replay(ctx, codec, shards, 1, noop)
			ns = append(ns, float64(tr.end(m))/float64(records))
			if err != nil {
				return nil, err
			}
		}
		o.layer[rp.metric] = median(ns)
	}

	var recs []tracestore.Trial
	err = tracestore.ReplayShards(ctx, codec, shards, 1, func(_ int, block []tracestore.Trial) error {
		for _, r := range block {
			r.Probes = append([]tracestore.ProbeSample(nil), r.Probes...)
			recs = append(recs, r)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var ns []float64
	for i := 0; i < setupRepeats; i++ {
		out := filepath.Join(dir, fmt.Sprintf("rewrite-%d", i))
		m := tr.begin("probe.tracestore.Writer")
		w, err := tracestore.NewWriter(codec, out, campaignBase, tracestore.WriterOptions{
			RecordsPerShard: int(shards[0].Header.Records),
			BlockRecords:    2048, // eval.CampaignConfig's default
		})
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			if err := w.Append(r.Seed, r); err != nil {
				return nil, err
			}
		}
		if _, err := w.Close(); err != nil {
			return nil, err
		}
		ns = append(ns, float64(tr.end(m))/float64(len(recs)))
		if err := os.RemoveAll(out); err != nil {
			return nil, err
		}
	}
	o.layer["tracestore.write_ns_per_record"] = median(ns)

	dirs := make([]direction, len(recs))
	for i, r := range recs {
		dirs[i] = direction{az: float64(r.AzDeg), el: float64(r.ElDeg), dist: float64(r.DistM)}
	}
	return dirs, nil
}
