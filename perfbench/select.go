package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"talon/internal/core"
	"talon/internal/eval"
	"talon/internal/sector"
	"talon/internal/stats"
)

// The select workload: one caller in a closed loop calls
// Estimator.SelectSector one probe vector at a time on the full pattern
// grid. No fan-out, fleet or store code runs, so the correlation kernel
// plus the Eq. 4 lookup is the whole cost, over a dictionary larger than
// L1 (fleet-steady's fits).
const (
	// selectVectors pre-generated vectors are cycled through. They stay
	// in cache, as a probe vector just measured on a device would.
	selectVectors = 4096
	// selectLossVectors, the loop's and more drawn from the same stream,
	// give the mean SNR loss; 16384 made it vary by 6% between seeds.
	selectLossVectors = 65536
	// selectWindow gives the quieter-quarter statistics about 80
	// windows in a 20 s run.
	selectWindow = 250 * time.Millisecond
	// selectTailPct has about 1400 calls beyond it per window. The p99
	// read 18-30 us over five runs of one machine and p99.9 82-234 us:
	// timer interrupts and host preemption, not the program.
	selectTailPct = 90.0
	// The campaign recipe's link budget (eval.RecordCampaign).
	campaignRefSNRDB = 16.0
	campaignRefDistM = 3.0
)

type vector struct {
	dir    direction
	probes []core.Probe
}

// genVectors draws vectors with eval.RecordCampaign's recipe: azimuth
// within ±60°, elevation 0–16°, distance 1–10 m, one in ten blocked by
// 5–25 dB, probeBudget probes through the default measurement model. A
// vector with fewer than two reported probes, which SelectSector refuses
// by contract, is drawn again: a device sweeps again before it selects.
func genVectors(seed int64, b *linkBudget, n int) []vector {
	rng := stats.NewRNG(seed)
	vecs := make([]vector, n)
	for i := range vecs {
		for reported(vecs[i].probes) < 2 {
			d := direction{az: rng.Uniform(-60, 60), el: rng.Uniform(0, 16), dist: rng.Uniform(1, 10)}
			atten := 0.0
			if rng.Bool(0.1) {
				atten = rng.Uniform(5, 25)
			}
			vecs[i] = vector{dir: d, probes: b.probe(rng, d.az, d.el, d.dist, atten)}
		}
	}
	return vecs
}

func reported(probes []core.Probe) int {
	n := 0
	for _, p := range probes {
		if p.OK {
			n++
		}
	}
	return n
}

func runSelect(ctx context.Context, cfg runConfig) (*outcome, error) {
	o := newOutcome()
	var (
		p               *eval.Platform
		b               *linkBudget
		vecs            []vector
		platformS, genS []float64
	)
	setupS, err := timedSetups(o, func() error {
		var build time.Duration
		var err error
		if p, build, err = newPlatform(ctx, eval.Full()); err != nil {
			return err
		}
		platformS = append(platformS, build.Seconds())
		start := time.Now()
		b = newLinkBudget(p.Patterns, campaignRefSNRDB, campaignRefDistM)
		vecs = genVectors(cfg.seed, b, selectVectors)
		genS = append(genS, time.Since(start).Seconds())
		return nil
	})
	if err != nil {
		return nil, err
	}

	led := newLedger()
	for _, name := range []string{"core_select_engine_total", "core_quant_estimates_total"} {
		if _, err := led.counter(name, false); err != nil {
			return nil, err
		}
	}
	base := led.read()

	tr := newTracer(fmt.Sprintf("select-%d-%d", cfg.seed, time.Now().UnixNano()))
	sels := make([]core.Selection, len(vecs))
	errs := make([]error, len(vecs))
	var calls, failed, fallbacks int64
	spec := windowSpec{length: selectWindow, tailPct: selectTailPct, threads: 1}
	plain, traced, err := measure(ctx, cfg, tr, spec, "select latency", func() (sample, error) {
		k := int(calls % int64(len(vecs)))
		// The span holds the CPU clock reads, about 0.8 us of syscalls,
		// so that the traced half's spans still cover the loop.
		m := tr.begin("core.SelectSector")
		c0, t0 := cpuNow(), time.Now()
		sel, err := p.Estimator.SelectSector(ctx, vecs[k].probes)
		d, cpu := time.Since(t0), cpuNow()-c0
		tr.end(m)
		if err != nil {
			failed++
		} else if sel.Fallback {
			fallbacks++
		}
		sels[k], errs[k] = sel, err
		calls++
		return sample{ops: 1, lat: d, busy: d, cpuLat: cpu, cpuBusy: cpu}, nil
	})
	if err != nil {
		return nil, err
	}
	if err := led.dead(base, led.read()); err != nil {
		return nil, err
	}
	o.attempted, o.failed = calls, failed
	o.hostScale = plain.stat(0.5, func(w window) float64 { return w.scale })

	// Checks, outside the timed loop. Vectors the loop never reached
	// (a very slow machine) are selected here.
	for k := int(min(calls, int64(len(vecs)))); k < len(vecs); k++ {
		sels[k], errs[k] = p.Estimator.SelectSector(ctx, vecs[k].probes)
	}
	items := make([][]core.Probe, len(vecs))
	for k := range vecs {
		items[k] = vecs[k].probes
	}
	batch, err := p.Estimator.SelectSectorBatch(ctx, core.BatchOf(items), 0)
	if err != nil {
		return nil, err
	}
	isTX := map[sector.ID]bool{}
	for _, id := range b.txIDs {
		isTX[id] = true
	}
	var mismatches int
	for k := range vecs {
		if (errs[k] == nil) != (batch[k].Err == nil) || !sameSelection(sels[k], batch[k].Selection) {
			mismatches++
		}
	}
	var lossSum float64
	var lossN, outside, lossFailed int
	for k, v := range genVectors(cfg.seed, b, selectLossVectors) {
		var sel core.Selection
		var err error
		if k < len(vecs) {
			sel, err = sels[k], errs[k]
		} else {
			sel, err = p.Estimator.SelectSector(ctx, v.probes)
		}
		if err != nil {
			lossFailed++
			continue
		}
		if !isTX[sel.Sector] {
			outside++
		}
		if loss, ok := selLossDB(p.Patterns, sel.Sector, v.dir.az, v.dir.el); ok {
			lossSum += loss
			lossN++
		}
	}
	o.check(mismatches == 0, "select: %d of %d SelectSectorBatch results differ from SelectSector", mismatches, len(vecs))
	o.check(outside == 0, "select: %d selections outside the TX sector set", outside)
	o.check(lossFailed == 0, "select: %d of %d vectors with two or more reports refused", lossFailed, selectLossVectors)
	o.check(lossN > 0, "select: no selection has a measurable SNR loss")
	lossMean := lossSum / float64(max(lossN, 1))

	o.e2e["setup_s"] = setupS
	o.e2e["op_p50_us"] = plain.p50(true)
	o.e2e["op_tail_us"] = plain.tail(true)
	o.e2e["ops_per_s"] = plain.rate(true)
	o.e2e["sel_loss_mean_db"] = lossMean
	o.e2e["heap_peak_mb"] = plain.heapPeakMB()
	o.note("select_p50_us", plain.p50(false), "us")
	o.note(fmt.Sprintf("select_tail_us(p%g,n=%d)", selectTailPct, plain.units), plain.tail(false), "us")
	o.note("selects_per_s", plain.rate(false), "1/s")
	o.note("fail_ratio", float64(failed)/float64(calls), "ratio")
	if !cfg.trace {
		return o, nil
	}

	// Per-layer: SelectSector and EstimateAoA interleaved on the same
	// vectors, so their difference is the Eq. 4 lookup plus the fallback
	// decision.
	tr.on = true
	var selUS, aoaUS []float64
	for k := range vecs {
		m := tr.begin("probe.core.SelectSector")
		if _, err := p.Estimator.SelectSector(ctx, vecs[k].probes); err != nil && !errors.Is(err, core.ErrTooFewProbes) {
			return nil, err
		}
		selUS = append(selUS, float64(tr.end(m))/1e3)
		m = tr.begin("probe.core.EstimateAoA")
		if _, err := p.Estimator.EstimateAoA(ctx, vecs[k].probes); err != nil &&
			!errors.Is(err, core.ErrTooFewProbes) && !errors.Is(err, core.ErrDegenerateSurface) {
			return nil, err
		}
		aoaUS = append(aoaUS, float64(tr.end(m))/1e3)
	}
	o.layer["core.select_us"] = median(selUS)
	o.layer["core.aoa_us"] = median(aoaUS)
	o.layer["core.eq4_us"] = o.layer["core.select_us"] - o.layer["core.aoa_us"]
	o.layer["core.fallback_ratio"] = float64(fallbacks) / float64(calls-failed)
	dirs := make([]direction, len(vecs))
	for k := range vecs {
		dirs[k] = vecs[k].dir
	}
	if err := layerProbes(o, tr, b, dirs); err != nil {
		return nil, err
	}
	o.layer["eval.platform_s"] = median(platformS)
	o.layer["gen.ms"] = 1e3 * median(genS)
	return o, traceMetrics(o, tr, plain, traced, "select")
}
