// Package core implements the paper's contribution: compressive sector
// selection (CSS) for off-the-shelf IEEE 802.11ad devices.
//
// Instead of sweeping all N sectors, CSS probes a subset of M sectors,
// correlates the vector of received signal strengths against the measured
// 3D sector patterns to estimate the angle of arrival (Eq. 2–3),
// multiplies the SNR and RSSI correlations for robustness against the
// firmware's decorrelated measurement outliers (Eq. 5), and finally picks
// the sector with the strongest measured gain toward the estimated angle
// out of all N sectors (Eq. 4).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"talon/internal/pattern"
	"talon/internal/radio"
	"talon/internal/sector"
)

// Sentinel errors of the estimation pipeline. Callers match them with
// errors.Is; the root talon package re-exports them.
var (
	// ErrTooFewProbes reports a probe vector with fewer than two usable
	// measurements — below that no correlation is defined.
	ErrTooFewProbes = errors.New("too few probes")
	// ErrDegenerateSurface reports a correlation surface with no positive
	// maximum: the measurements carry no directional information.
	ErrDegenerateSurface = errors.New("correlation surface is degenerate")
	// ErrDuplicateProbe reports a probe vector that names the same sector
	// twice. Such a vector is malformed input, not a weak measurement, so
	// selection rejects it instead of falling back to the sweep.
	ErrDuplicateProbe = errors.New("probe vector repeats a sector")
)

// Preformatted wrappings of the sentinels, so the hot paths that return
// them never format.
var (
	errDegenerate     = fmt.Errorf("core: %w", ErrDegenerateSurface)
	errDuplicateProbe = fmt.Errorf("core: %w", ErrDuplicateProbe)
)

// Probe is the outcome of probing one sector: the firmware's measurement,
// or a miss (OK == false) when no report was produced.
type Probe struct {
	Sector sector.ID
	Meas   radio.Measurement
	OK     bool
}

// reported reports whether p carries a usable measurement: a report
// with finite SNR and RSSI. Estimation and the sweep fallback treat a
// non-finite reading exactly like a missing report.
func (p Probe) reported() bool {
	return p.OK && !math.IsNaN(p.Meas.SNR) && !math.IsInf(p.Meas.SNR, 0) &&
		!math.IsNaN(p.Meas.RSSI) && !math.IsInf(p.Meas.RSSI, 0)
}

// ProbesFromMeasurements assembles the probe vector for the sectors in
// probed, marking sectors absent from meas as missing.
func ProbesFromMeasurements(probed []sector.ID, meas map[sector.ID]radio.Measurement) []Probe {
	out := make([]Probe, len(probed))
	for i, id := range probed {
		m, ok := meas[id]
		out[i] = Probe{Sector: id, Meas: m, OK: ok}
	}
	return out
}

// Options tunes the estimator.
type Options struct {
	// SNROnly disables the Eq. 5 joint SNR·RSSI correlation and falls
	// back to the plain Eq. 2/3 correlation on SNR alone (the ablation
	// of Section 5).
	SNROnly bool
	// NoRefine disables the parabolic sub-grid refinement of the argmax,
	// pinning estimates to grid resolution.
	NoRefine bool
	// FallbackCorr is the reliability threshold on the correlation
	// maximum: when the best correlation falls below it, the angle
	// estimate is considered unreliable and SelectSector falls back to
	// the classic argmax over the probed sectors (a sub-sweep
	// selection). Zero picks the default; negative disables fallback.
	FallbackCorr float64
	// NoImputeMissing excludes probed-but-unreported sectors from the
	// correlation instead of imputing them at the sensitivity floor.
	// A probe the firmware produced no report for almost always means
	// the sector was too weak to decode — keeping it in the vector at
	// floor level anti-correlates directions where that sector should
	// have been strong, suppressing aliased estimates.
	NoImputeMissing bool
	// Kernel chooses the correlation kernel (see quant.go). KernelAuto
	// (the zero value) picks the default — the quantized int16
	// coarse-to-fine kernel; KernelFloat64 pins the exhaustive float64
	// oracle, which agrees bit for bit with the serial reference. Golden
	// artifacts should pin the kernel they were recorded with so
	// kernel-default changes cannot drift them.
	Kernel Kernel
}

// DefaultFallbackCorr is the default reliability threshold. Joint Eq. 5
// correlations of consistent sweeps sit well above it; only degenerate
// maxima (very few informative probes, heavy outliers) fall below, so
// the fallback acts as a disaster guard rather than a second selector.
const DefaultFallbackCorr = 0.25

func (o Options) fallbackCorr() float64 {
	switch {
	case o.FallbackCorr < 0:
		return 0
	case o.FallbackCorr == 0:
		return DefaultFallbackCorr
	}
	return o.FallbackCorr
}

// Estimator runs compressive angle-of-arrival estimation against a set of
// measured sector patterns. It is safe for concurrent use.
type Estimator struct {
	patterns *pattern.Set
	opts     Options
	// en is the precomputed correlation engine (see engine.go), built
	// once at construction from a snapshot of the pattern set.
	en *engine
	// tx is the set's TX lookup (the set is immutable after
	// construction): every Eq. 4 scan and per-direction pattern read
	// goes through it.
	tx *pattern.TXLookup
	// gathers pools gather scratch so the steady-state estimate path
	// allocates nothing per call.
	gathers sync.Pool
}

// gatherScratch holds the pooled measurement-vector buffers of one
// estimate: the gathered sectors with their dictionary columns, the
// readings in dB and as linear amplitudes, and — on the quantized
// kernel — the code vectors and hoisted moments of qv (see quant.go).
type gatherScratch struct {
	ids           []sector.ID
	cols          []int16 // dictionary column per component; < 0 = absent sector
	snrDB, rssiDB []float64
	snr, rssi     []float64
	qv            quantVec
}

// NewEstimator builds an estimator over the measured patterns and
// precomputes its correlation dictionary. The set must contain at least
// two transmit sectors and must not be mutated afterwards.
func NewEstimator(patterns *pattern.Set, opts Options) (*Estimator, error) {
	if patterns == nil || len(patterns.TXIDs()) < 2 {
		return nil, errors.New("core: estimator needs a pattern set with at least 2 TX sectors")
	}
	switch opts.Kernel {
	case KernelAuto, KernelQuantInt16, KernelFloat64:
	default:
		return nil, fmt.Errorf("core: unknown correlation kernel %q", opts.Kernel)
	}
	e := &Estimator{patterns: patterns, opts: opts, en: newEngine(patterns, opts), tx: patterns.TX()}
	e.gathers.New = func() any {
		metScratchMisses.Inc()
		return &gatherScratch{}
	}
	return e, nil
}

// Patterns returns the pattern set the estimator searches.
func (e *Estimator) Patterns() *pattern.Set { return e.patterns }

// Kernel reports the correlation kernel actually serving estimates —
// which can differ from Options.Kernel when the quantized build was
// skipped on a dictionary with no finite entry.
func (e *Estimator) Kernel() Kernel {
	if e.en.quant() {
		return KernelQuantInt16
	}
	return KernelFloat64
}

// AoAEstimate is the result of the angle-of-arrival search.
type AoAEstimate struct {
	// Az and El are the estimated arrival angles in degrees.
	Az, El float64
	// Corr is the correlation value at the maximum (product of the SNR
	// and RSSI correlations unless SNROnly).
	Corr float64
	// Used is the number of reported probes that entered the
	// correlation: those whose sector the pattern set carries.
	Used int
	// Cell is the dense grid cell of the argmax, usable as the
	// warm-start hint of a later estimate (see SelectSectorWarm).
	// NoCell when the serving kernel does not produce hints (the float64
	// oracle). Cell is diagnostic state, not part of the wire
	// format: it is excluded from JSON serialization.
	Cell Cell
}

// amp converts a dB reading to linear amplitude (10^(dB/20)). The
// correlation works on amplitudes rather than powers: a reading that is
// off by k dB then perturbs its vector component by 10^(k/20) instead of
// 10^(k/10), which keeps the occasional severe firmware outlier from
// dominating the normalized inner product.
func amp(db float64) float64 { return math.Pow(10, db/20) }

// gather validates the probe vector and collects its measurement
// vectors into g, the one gather of every estimate path: sector IDs with
// their dictionary columns, readings in dB (the quantized kernel's
// input) and as linear amplitudes (the float64 dictionary's). Unless
// disabled, probed-but-unreported sectors (including non-finite
// readings) are imputed slightly below the faintest reported reading: no
// report means the sector was (almost always) below decode sensitivity,
// which is information the correlation should use. Probes for sectors
// absent from the pattern set are gathered with column -1 and skipped
// by every correlation; used counts the reported probes that are not.
// It fails with ErrDuplicateProbe when two probes name the same sector
// and with ErrTooFewProbes when fewer than two report.
//
//talon:noalloc
func (e *Estimator) gather(g *gatherScratch, probes []Probe) (used int, err error) {
	var seen [4]uint64 // one bit per sector.ID
	minSNR, minRSSI := math.Inf(1), math.Inf(1)
	reported := 0
	for _, p := range probes {
		w, bit := &seen[p.Sector>>6], uint64(1)<<(p.Sector&63)
		if *w&bit != 0 {
			return 0, errDuplicateProbe
		}
		*w |= bit
		if !p.reported() {
			continue
		}
		reported++
		if e.en.cols[p.Sector] >= 0 {
			used++
		}
		if p.Meas.SNR < minSNR {
			minSNR = p.Meas.SNR
		}
		if p.Meas.RSSI < minRSSI {
			minRSSI = p.Meas.RSSI
		}
	}
	if reported < 2 {
		//lint:allow noalloc -- cold error path; the steady state returns before formatting
		return 0, fmt.Errorf("core: %w: need at least 2 reported probes, have %d", ErrTooFewProbes, reported)
	}
	g.ids, g.cols = g.ids[:0], g.cols[:0]
	g.snrDB, g.rssiDB = g.snrDB[:0], g.rssiDB[:0]
	g.snr, g.rssi = g.snr[:0], g.rssi[:0]
	impute := !e.opts.NoImputeMissing
	for _, p := range probes {
		snr, rssi := p.Meas.SNR, p.Meas.RSSI
		if !p.reported() {
			if !impute {
				continue
			}
			snr, rssi = minSNR-1, minRSSI-1
		}
		g.ids = append(g.ids, p.Sector)
		g.cols = append(g.cols, e.en.cols[p.Sector])
		g.snrDB = append(g.snrDB, snr)
		g.rssiDB = append(g.rssiDB, rssi)
		g.snr = append(g.snr, ampCached(snr))
		g.rssi = append(g.rssi, ampCached(rssi))
	}
	return used, nil
}

// correlate implements Eq. 2: the squared normalized correlation of the
// measurement vector with the expected pattern gains at the located
// direction pt, computed in its centered (Pearson) form. Centering
// matters on real hardware: directions where every probed sector has a
// similar expected gain ("flat" pattern regions behind lobes or at high
// elevation) would otherwise correlate spuriously well with any
// near-uniform measurement vector and attract the argmax. Sectors whose pattern value is missing
// at the point are skipped; fewer than three usable components yield 0.
func (e *Estimator) correlate(ids []sector.ID, lin []float64, pt pattern.Point) float64 {
	var xs, ps [64]float64
	used := 0
	var sumP, sumX float64
	for i, id := range ids {
		p := e.patterns.Get(id)
		if p == nil {
			continue
		}
		g := p.AtPoint(pt)
		if math.IsNaN(g) {
			continue
		}
		x := amp(g)
		if used >= len(xs) {
			break
		}
		ps[used], xs[used] = lin[i], x
		sumP += lin[i]
		sumX += x
		used++
	}
	if used < 3 {
		return 0
	}
	meanP, meanX := sumP/float64(used), sumX/float64(used)
	var dot, nm, nx float64
	for i := 0; i < used; i++ {
		dp, dx := ps[i]-meanP, xs[i]-meanX
		dot += dp * dx
		nm += dp * dp
		nx += dx * dx
	}
	if nm == 0 || nx == 0 {
		return 0
	}
	w := dot * dot / (nm * nx)
	if dot < 0 {
		// Anti-correlated shapes are no evidence for this direction.
		return 0
	}
	return w
}

// Correlation evaluates the (joint) correlation of probes at one
// direction: Eq. 2 on SNR, multiplied by the RSSI correlation per Eq. 5
// unless SNROnly is set. It is 0 for probe vectors EstimateAoA rejects.
func (e *Estimator) Correlation(probes []Probe, az, el float64) float64 {
	var g gatherScratch
	if _, err := e.gather(&g, probes); err != nil {
		return 0
	}
	pt := e.tx.Locate(az, el)
	w := e.correlate(g.ids, g.snr, pt)
	if e.opts.SNROnly {
		return w
	}
	return w * e.correlate(g.ids, g.rssi, pt)
}

// EstimateAoA maximizes the correlation over the pattern grid (Eq. 3),
// optionally refining the maximum between grid points. The search runs
// on the precomputed correlation engine: the quantized coarse-to-fine
// kernel by default (see quant.go), or the exhaustive float64 oracle
// under KernelFloat64, which agrees bit for bit with the retained
// EstimateAoASerial reference. ctx is observed between grid rows, and a
// cancelled search returns ctx.Err().
func (e *Estimator) EstimateAoA(ctx context.Context, probes []Probe) (AoAEstimate, error) {
	return e.estimate(ctx, probes, NoCell)
}

// estimate is the engine-backed estimate behind EstimateAoA,
// SelectSector and SelectSectorWarm. The hint only reaches the quantized
// kernel; the float64 oracle ignores it.
func (e *Estimator) estimate(ctx context.Context, probes []Probe, hint Cell) (AoAEstimate, error) {
	metEstimates.Inc()
	metScratchGets.Inc()
	g := e.gathers.Get().(*gatherScratch)
	defer e.gathers.Put(g)
	used, err := e.gather(g, probes)
	if err != nil {
		return AoAEstimate{}, err
	}
	var bestA, bestE int
	var bestW float64
	if e.en.quant() {
		bestA, bestE, bestW, err = e.searchHinted(ctx, g, hint)
	} else {
		bestA, bestE, bestW, err = e.en.denseArgmax(ctx, g.cols, g.snr, g.rssi, e.opts.SNROnly)
	}
	if err != nil {
		return AoAEstimate{}, err
	}
	if bestW <= 0 {
		metDegenerate.Inc()
		return AoAEstimate{}, errDegenerate
	}
	return e.epilogue(g, bestA, bestE, used), nil
}

// epilogue turns a search's argmax cell into the final estimate using
// the float64 dictionary: one Eq. 5 evaluation at the winning cell plus
// the parabolic refinement around it, O(M) work against the O(grid·M)
// sweep that found the cell. On the oracle this re-derives exactly the
// scores the scan saw. On the quantized kernel it confines quantization
// noise to the argmax decision itself — whenever the two kernels agree
// on the cell (the common case the equivalence suite gates), the
// reported Az/El/Corr are bit-identical to KernelFloat64, and downstream
// near-tie decisions (Eq. 4 sector choice, the FallbackCorr threshold)
// cannot flip on epsilon score differences. Only the quantized kernel
// reports the cell as a warm-start hint.
//
//talon:noalloc
func (e *Estimator) epilogue(g *gatherScratch, bestA, bestE int, used int) AoAEstimate {
	en := e.en
	snrOnly := e.opts.SNROnly
	cols, snr, rssi := g.cols, g.snr, g.rssi
	numAz := len(en.az)
	w := jointIn(en.dict, (bestE*numAz+bestA)*en.stride, cols, snr, rssi, snrOnly)
	aoa := AoAEstimate{Az: en.az[bestA], El: en.el[bestE], Corr: w, Used: used}
	if en.quant() {
		aoa.Cell = cellOf(bestA, bestE)
	}
	if !e.opts.NoRefine {
		// The closures serve the already-computed centre value instead of
		// re-deriving it; jointIn is deterministic, so this is only a
		// recomputation skip.
		//lint:allow noalloc -- closure captures only stack values; escape analysis keeps it off the heap (see TestEstimateZeroAllocSteadyState)
		aoa.Az = refineAxis(en.az, bestA, func(i int) float64 {
			if i == bestA {
				return w
			}
			return jointIn(en.dict, (bestE*numAz+i)*en.stride, cols, snr, rssi, snrOnly)
		})
		//lint:allow noalloc -- closure captures only stack values; escape analysis keeps it off the heap (see TestEstimateZeroAllocSteadyState)
		aoa.El = refineAxis(en.el, bestE, func(i int) float64 {
			if i == bestE {
				return w
			}
			return jointIn(en.dict, (i*numAz+bestA)*en.stride, cols, snr, rssi, snrOnly)
		})
	}
	return aoa
}

// EstimateAoASerial is the straight-line reference implementation of the
// grid search: per-point located pattern lookups and amplitude
// conversion, no precomputation, no concurrency. It is kept so the
// equivalence test (and anyone auditing the engine) can check the
// optimized path against first principles.
func (e *Estimator) EstimateAoASerial(probes []Probe) (AoAEstimate, error) {
	metEstimatesSerial.Inc()
	var g gatherScratch
	used, err := e.gather(&g, probes)
	if err != nil {
		return AoAEstimate{}, err
	}
	ids, snrLin, rssiLin := g.ids, g.snr, g.rssi
	grid := e.patterns.Grid()
	azAxis, elAxis := grid.Az(), grid.El()

	// Correlation surface over the grid.
	w := make([][]float64, len(elAxis))
	bestA, bestE, bestW := 0, 0, -1.0
	for ei, el := range elAxis {
		row := make([]float64, len(azAxis))
		for ai, az := range azAxis {
			pt := pattern.Locate(grid, az, el)
			v := e.correlate(ids, snrLin, pt)
			if !e.opts.SNROnly {
				v *= e.correlate(ids, rssiLin, pt)
			}
			row[ai] = v
			if v > bestW {
				bestA, bestE, bestW = ai, ei, v
			}
		}
		w[ei] = row
	}
	if bestW <= 0 {
		return AoAEstimate{}, errDegenerate
	}

	az, el := azAxis[bestA], elAxis[bestE]
	if !e.opts.NoRefine {
		az = refineAxis(azAxis, bestA, func(i int) float64 { return w[bestE][i] })
		el = refineAxis(elAxis, bestE, func(i int) float64 { return w[i][bestA] })
	}
	return AoAEstimate{Az: az, El: el, Corr: bestW, Used: used}, nil
}

// refineAxis sharpens the argmax along one axis with a parabolic fit
// through the peak sample and its neighbours.
func refineAxis(axis []float64, i int, at func(int) float64) float64 {
	if i <= 0 || i >= len(axis)-1 {
		return axis[i]
	}
	y0, y1, y2 := at(i-1), at(i), at(i+1)
	den := y0 - 2*y1 + y2
	if den >= 0 { // not a local maximum shape
		return axis[i]
	}
	d := 0.5 * (y0 - y2) / den
	if d < -0.5 {
		d = -0.5
	}
	if d > 0.5 {
		d = 0.5
	}
	// Assume locally uniform spacing.
	step := (axis[i+1] - axis[i-1]) / 2
	return axis[i] + d*step
}

// Selection is the outcome of compressive sector selection.
type Selection struct {
	// Sector is the chosen transmit sector (Eq. 4).
	Sector sector.ID
	// Gain is the chosen sector's measured-pattern gain toward the
	// estimated angle, in dB (NaN for fallback selections).
	Gain float64
	// AoA is the underlying angle estimate (zero for fallback
	// selections made without a usable estimate).
	AoA AoAEstimate
	// Fallback marks selections that did not trust the angle estimate
	// and used the probed-sector argmax instead.
	Fallback bool
	// Degraded marks selections produced by the resilient training path
	// after the compressive rounds were exhausted: the trainer gave up
	// on CSS and ran the standard full sector sweep (the paper's
	// baseline) instead.
	Degraded bool
	// FallbackReason classifies why a degraded selection abandoned CSS;
	// FallbackNone for selections that did not degrade.
	FallbackReason FallbackReason
}

// FallbackReason classifies why a resilient training run degraded to the
// full-sweep baseline.
type FallbackReason string

// The failure classes the resilient trainer distinguishes.
const (
	// FallbackNone marks a selection that did not degrade.
	FallbackNone FallbackReason = ""
	// FallbackTooFewProbes: every retry lost too many probes to the
	// channel for a usable measurement vector.
	FallbackTooFewProbes FallbackReason = "too-few-probes"
	// FallbackDegenerateSurface: the correlation surface carried no
	// directional information on every retry.
	FallbackDegenerateSurface FallbackReason = "degenerate-surface"
	// FallbackSNRCheck: the post-selection verification probe stayed
	// below the required SNR on every retry.
	FallbackSNRCheck FallbackReason = "snr-check"
	// FallbackTransientFault: an injected transient fault (e.g. a WMI
	// mailbox timeout) persisted across every retry.
	FallbackTransientFault FallbackReason = "transient-fault"
)

// SelectSector runs the full CSS pipeline: estimate the angle of arrival
// from the probes and choose the best of all N sectors toward it (Eq. 4).
// When the correlation maximum is too weak to be trusted — or no estimate
// is possible at all — the selection falls back to the classic argmax
// over the probed sectors the pattern set carries. A cancelled context
// propagates ctx.Err(), and a malformed vector ErrDuplicateProbe, instead
// of degrading to the sweep fallback.
func (e *Estimator) SelectSector(ctx context.Context, probes []Probe) (Selection, error) {
	return e.SelectSectorWarm(ctx, probes, NoCell)
}

// SelectSectorSerial runs the pipeline on the serial reference estimator;
// the equivalence test checks it against SelectSector.
func (e *Estimator) SelectSectorSerial(probes []Probe) (Selection, error) {
	metSelectSerial.Inc()
	aoa, err := e.EstimateAoASerial(probes)
	return e.finishSelection(probes, aoa, err)
}

// finishSelection turns an estimate into a selection: the sweep
// fallback when the estimate failed or is too weak, else Eq. 4 — one
// TX-lookup scan toward the estimated angle. The fallback considers only
// the transmit sectors the pattern set carries; with none reported it
// fails with ErrTooFewProbes. A malformed probe vector is an error, not
// a fallback.
//
//talon:noalloc
func (e *Estimator) finishSelection(probes []Probe, aoa AoAEstimate, err error) (Selection, error) {
	if err != nil && errors.Is(err, ErrDuplicateProbe) {
		return Selection{}, err
	}
	if err != nil || aoa.Corr < e.opts.fallbackCorr() {
		id, ok := sweepArgmax(probes, &e.en.cols)
		if !ok {
			if errors.Is(err, ErrTooFewProbes) {
				return Selection{}, err
			}
			return Selection{}, errNoTXReport
		}
		metSelectFallback.Inc()
		return Selection{Sector: id, Gain: math.NaN(), AoA: aoa, Fallback: true}, nil
	}
	id, gain := e.tx.Best(e.tx.Locate(aoa.Az, aoa.El))
	if math.IsNaN(gain) {
		return Selection{}, errNoUsableTX
	}
	return Selection{Sector: id, Gain: gain, AoA: aoa}, nil
}

var (
	errNoUsableTX = errors.New("core: pattern set has no usable TX sector")
	errNoTXReport = fmt.Errorf("core: %w: no reported probe names a transmit sector of the pattern set", ErrTooFewProbes)
)

// isCtxErr reports whether err is a context cancellation or deadline.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
