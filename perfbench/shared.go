package main

import (
	"context"
	"math"
	"sort"
	"time"

	"talon/internal/core"
	"talon/internal/eval"
	"talon/internal/pattern"
	"talon/internal/radio"
	"talon/internal/sector"
	"talon/internal/stats"
)

// platformSeed fixes the simulated devices and their measured patterns;
// only the workload inputs vary with --seed.
const platformSeed = 1

// probeBudget is the paper's M: probes per training.
const probeBudget = 14

// newPlatform runs the chamber pattern campaign at the given fidelity
// and returns the platform with its build time.
func newPlatform(ctx context.Context, f eval.Fidelity) (*eval.Platform, time.Duration, error) {
	start := time.Now()
	p, err := eval.NewPlatform(ctx, platformSeed, f.PatternGrid, f.CampaignRepeats)
	return p, time.Since(start), err
}

// gainRef is the codebook's mean peak gain, the anchor of the campaign's
// and the fleet's link budgets: a sector of that gain on boresight at the
// reference distance sees the reference SNR.
func gainRef(set *pattern.Set) float64 {
	sum := 0.0
	for _, id := range set.TXIDs() {
		_, _, peak := set.Get(id).Peak()
		sum += peak
	}
	return sum / float64(len(set.TXIDs()))
}

// linkBudget is the single-path channel of eval's campaign and of the
// fleet: reference SNR at a reference distance, log-distance pathloss,
// the measured pattern gain and an omnidirectional blockage.
type linkBudget struct {
	set             *pattern.Set
	txIDs           []sector.ID
	refSNR, refDist float64
	gainRef         float64
	model           radio.MeasurementModel
}

func newLinkBudget(set *pattern.Set, refSNR, refDist float64) *linkBudget {
	return &linkBudget{
		set: set, txIDs: set.TXIDs(),
		refSNR: refSNR, refDist: refDist,
		gainRef: gainRef(set),
		model:   radio.DefaultMeasurementModel(),
	}
}

// trueSNR is the noiseless SNR of sector id toward (az, el) at dist
// metres behind atten dB of blockage (-Inf off the measured grid).
func (b *linkBudget) trueSNR(id sector.ID, az, el, dist, atten float64) float64 {
	g := b.set.Get(id).At(az, el)
	if math.IsNaN(g) {
		return math.Inf(-1)
	}
	return b.refSNR - 20*math.Log10(dist/b.refDist) + g - b.gainRef - atten
}

// probe draws a random probeBudget-of-N sector subset in sweep order and
// passes each probe through the firmware measurement model.
func (b *linkBudget) probe(rng *stats.RNG, az, el, dist, atten float64) []core.Probe {
	idx := rng.Sample(len(b.txIDs), probeBudget)
	sort.Ints(idx)
	probes := make([]core.Probe, 0, probeBudget)
	for _, j := range idx {
		id := b.txIDs[j]
		meas, ok := b.model.Observe(b.trueSNR(id, az, el, dist, atten), rng)
		pr := core.Probe{Sector: id}
		if ok {
			pr.Meas, pr.OK = meas, true
		}
		probes = append(probes, pr)
	}
	return probes
}

// selLossDB is the SNR loss of sector id against the measured-pattern
// oracle toward (az, el); ok is false off the measured grid.
func selLossDB(set *pattern.Set, id sector.ID, az, el float64) (float64, bool) {
	_, best := set.BestSector(az, el)
	got := set.Get(id).At(az, el)
	if math.IsNaN(best) || math.IsNaN(got) {
		return 0, false
	}
	return best - got, true
}

// sink keeps the results of timed loops live.
var sink float64

// direction is a true arrival direction of the workload.
type direction struct{ az, el, dist float64 }

// layerProbes times the calls too short for one span each, over the
// workload's own directions: Pattern.At toward every direction from
// every TX sector, and MeasurementModel.Observe on the matching SNRs.
// It also times core.NewEstimator on the workload's patterns.
func layerProbes(o *outcome, tr *tracer, b *linkBudget, dirs []direction) error {
	var acc float64
	k := len(dirs) * len(b.txIDs)
	pats := make([]*pattern.Pattern, len(b.txIDs))
	for i, id := range b.txIDs {
		pats[i] = b.set.Get(id)
	}
	o.layer["pattern.at_ns"] = nsPerCall(tr, "probe.pattern.At", k, func(i int) {
		d := dirs[i/len(pats)]
		acc += pats[i%len(pats)].At(d.az, d.el)
	})
	snrs := make([]float64, k)
	for i := range snrs {
		d := dirs[i/len(b.txIDs)]
		snrs[i] = b.trueSNR(b.txIDs[i%len(b.txIDs)], d.az, d.el, d.dist, 0)
	}
	rng := stats.NewFastRNG(1)
	o.layer["radio.observe_ns"] = nsPerCall(tr, "probe.radio.Observe", k, func(i int) {
		m, _ := b.model.Observe(snrs[i], rng)
		acc += m.SNR
	})
	sink = acc

	var build []float64
	for i := 0; i < setupRepeats; i++ {
		m := tr.begin("probe.core.NewEstimator")
		if _, err := core.NewEstimator(b.set, eval.EstimatorOptions()); err != nil {
			return err
		}
		build = append(build, float64(tr.end(m))/1e6)
	}
	o.layer["core.dict_build_ms"] = median(build)
	return nil
}

// sameSelection compares two selections bit for bit (NaN gains of
// fallback selections compare equal to themselves).
func sameSelection(a, b core.Selection) bool {
	bits := math.Float64bits
	return a.Sector == b.Sector && a.Fallback == b.Fallback && a.Degraded == b.Degraded &&
		bits(a.Gain) == bits(b.Gain) &&
		bits(a.AoA.Az) == bits(b.AoA.Az) && bits(a.AoA.El) == bits(b.AoA.El) &&
		bits(a.AoA.Corr) == bits(b.AoA.Corr) && a.AoA.Used == b.AoA.Used && a.AoA.Cell == b.AoA.Cell
}
