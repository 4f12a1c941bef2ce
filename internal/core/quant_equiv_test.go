package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"talon/internal/channel"
	"talon/internal/dot11ad"
	"talon/internal/fault"
	"talon/internal/geom"
	"talon/internal/pattern"
	"talon/internal/radio"
	"talon/internal/sector"
	"talon/internal/stats"
	"talon/internal/testbed"
	"talon/internal/wil"
)

// Equivalence gate of the production quantized int16 kernel (quant.go)
// against the exhaustive float64 oracle: any divergence is the sum of
// quantization noise and the coarse-to-fine pruning (hier_test.go gates
// the pruning alone). The budget is ≤1% sector divergence
// (equivCounter.assertRate) with the AoA within one coarse-cell
// diagonal, over seeded clean and Standard60GHz faulty trials, plus
// exact error parity on degenerate and minimum-probe vectors.

// coarseDiag is the diagonal of one coarse cell of est's coarse-to-fine
// search, in degrees — the AoA bound of the equivalence suites.
func coarseDiag(t testing.TB, est *Estimator) float64 {
	t.Helper()
	en := est.en
	if len(en.coarseQ) == 0 {
		t.Fatal("estimator has no coarse-to-fine search built")
	}
	azStep := en.az[1] - en.az[0]
	elStep := 0.0
	if len(en.el) > 1 {
		elStep = en.el[1] - en.el[0]
	}
	return math.Hypot(float64(DefaultCoarseDecim)*azStep, float64(DefaultCoarseDecim)*elStep)
}

// equivCounter tallies the divergences of a candidate estimator from a
// reference one over a seeded suite.
type equivCounter struct {
	trials, mismatches int
}

// compare checks one probe vector on both estimators: error classes must
// agree exactly (the coarse-to-fine search falls back to an exhaustive
// scan before it can fail differently); on success the selected sector
// must match and the AoA estimates must stay within diag degrees.
func (c *equivCounter) compare(t *testing.T, label string, cand, ref *Estimator, probes []Probe, diag float64) {
	t.Helper()
	ctx := context.Background()
	cSel, cErr := cand.SelectSector(ctx, probes)
	rSel, rErr := ref.SelectSector(ctx, probes)
	if (cErr == nil) != (rErr == nil) {
		t.Fatalf("%s: error parity broken: candidate %v, reference %v", label, cErr, rErr)
	}
	if cErr != nil {
		for _, sentinel := range []error{ErrTooFewProbes, ErrDegenerateSurface, ErrDuplicateProbe} {
			if errors.Is(cErr, sentinel) != errors.Is(rErr, sentinel) {
				t.Fatalf("%s: sentinel parity broken: candidate %v, reference %v", label, cErr, rErr)
			}
		}
		return
	}
	c.trials++
	if cSel.Sector != rSel.Sector {
		c.mismatches++
		return
	}
	if !cSel.Fallback && !rSel.Fallback {
		dAz := math.Abs(geom.WrapAz(cSel.AoA.Az - rSel.AoA.Az))
		dEl := math.Abs(cSel.AoA.El - rSel.AoA.El)
		if math.Hypot(dAz, dEl) > diag {
			c.mismatches++
		}
	}
}

// assertRate enforces the equivalence budget: the candidate must agree
// with the reference on at least 99% of the trials.
func (c *equivCounter) assertRate(t *testing.T, minTrials int) {
	t.Helper()
	if c.trials < minTrials {
		t.Fatalf("only %d successful equivalence trials, want >= %d", c.trials, minTrials)
	}
	budget := c.trials / 100
	if c.mismatches > budget {
		t.Fatalf("estimates diverged on %d of %d trials (budget %d)",
			c.mismatches, c.trials, budget)
	}
	t.Logf("%d trials, %d divergences", c.trials, c.mismatches)
}

// TestQuantMatchesFloatClean runs the seeded clean-channel equivalence
// suite across probe budgets: the quantized kernel must select the
// oracle's sector on ≥99% of trials and land within one coarse-cell
// diagonal of its angle estimate.
func TestQuantMatchesFloatClean(t *testing.T) {
	set, gain := synthSetup(t)
	quant, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	float, err := NewEstimator(set, Options{Kernel: KernelFloat64})
	if err != nil {
		t.Fatal(err)
	}
	if quant.Kernel() != KernelQuantInt16 {
		t.Fatalf("default options did not build the quantized kernel: %q", quant.Kernel())
	}
	if float.Kernel() != KernelFloat64 {
		t.Fatalf("pinned float kernel reports %q", float.Kernel())
	}
	diag := coarseDiag(t, quant)

	quantBefore := metQuantEstimates.Value()
	model := radio.DefaultMeasurementModel()
	rng := stats.NewRNG(37)
	available := sector.TalonTX()
	var c equivCounter
	for _, m := range []int{8, 14, 24, 32} {
		for trial := 0; trial < 40; trial++ {
			ps, err := RandomProbes(rng, available, m)
			if err != nil {
				t.Fatal(err)
			}
			az := -78 + 156*rng.Float64()
			el := 28 * rng.Float64()
			probes := observe(t, gain, ps.IDs(), az, el, model, rng)
			c.compare(t, fmt.Sprintf("m=%d trial=%d", m, trial), quant, float, probes, diag)
		}
	}
	c.assertRate(t, 120)
	if metQuantEstimates.Value() == quantBefore {
		t.Fatal("no estimate was served by the quantized kernel")
	}
}

// TestQuantMatchesFloatFaultyChannel repeats the equivalence suite on
// probe vectors produced by a real simulated link — patterns measured by
// the chamber campaign, probing sweeps run over a lab channel with the
// fault.Standard60GHz impairment chain injected — so the gate covers
// burst loss, RSSI drift, stale feedback and imputed-missing vectors.
func TestQuantMatchesFloatFaultyChannel(t *testing.T) {
	dut, err := wil.NewDevice(wil.Config{
		Name: "quant-dut",
		MAC:  dot11ad.MACAddr{0x50, 0xc7, 0xbf, 0, 0, 0x31},
		Seed: 502,
	})
	if err != nil {
		t.Fatal(err)
	}
	probe, err := wil.NewDevice(wil.Config{
		Name: "quant-probe",
		MAC:  dot11ad.MACAddr{0x50, 0xc7, 0xbf, 0, 0, 0x32},
		Seed: 503,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dut.Jailbreak(); err != nil {
		t.Fatal(err)
	}
	if err := probe.Jailbreak(); err != nil {
		t.Fatal(err)
	}
	grid, err := geom.UniformGrid(-70, 70, 5, 0, 24, 6)
	if err != nil {
		t.Fatal(err)
	}
	chamber := wil.NewLink(channel.AnechoicChamber(), dut, probe)
	campaign := testbed.NewChamberCampaign(chamber, dut, probe, 504)
	campaign.Repeats = 1
	patterns, err := campaign.MeasureAllPatterns(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	quant, err := NewEstimator(patterns, Options{})
	if err != nil {
		t.Fatal(err)
	}
	float, err := NewEstimator(patterns, Options{Kernel: KernelFloat64})
	if err != nil {
		t.Fatal(err)
	}
	diag := coarseDiag(t, quant)

	dutPose, probePose := testbed.FacingPoses(3, 1.2)
	dut.SetPose(dutPose)
	probe.SetPose(probePose)
	link := wil.NewLink(channel.Lab(), dut, probe)
	link.SetInjector(fault.Standard60GHz(0.15, 4, 505))

	rng := stats.NewRNG(41)
	available := sector.TalonTX()
	var c equivCounter
	for trial := 0; trial < 170; trial++ {
		// Swing the probe device on an arc so trials cover directions.
		az := -60 + 120*rng.Float64()
		rad := az * math.Pi / 180
		pose := probePose
		pose.Pos.X = dutPose.Pos.X + 3*math.Cos(rad)
		pose.Pos.Y = dutPose.Pos.Y + 3*math.Sin(rad)
		pose.Yaw = 180 + az
		probe.SetPose(pose)

		ps, err := RandomProbes(rng, available, 14)
		if err != nil {
			t.Fatal(err)
		}
		meas, err := link.RunTXSS(dut, probe, dot11ad.SubSweepSchedule(ps))
		if err != nil {
			// An injected transient fault killed the whole sweep before
			// estimation; nothing to compare on this trial.
			continue
		}
		probes := ProbesFromMeasurements(ps.IDs(), meas)
		c.compare(t, fmt.Sprintf("trial=%d", trial), quant, float, probes, diag)
	}
	c.assertRate(t, 139)
}

// TestQuantDegenerateSurface pins the degenerate-surface parity: with
// only two reported probes the correlation is zero at every grid point
// on both kernels, the quantized coarse pass keeps no candidate, and the
// quantized path must route through its exhaustive fallback and fail
// with the same ErrDegenerateSurface sentinel as the float kernel.
func TestQuantDegenerateSurface(t *testing.T) {
	set, _ := synthSetup(t)
	quant, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	float, err := NewEstimator(set, Options{Kernel: KernelFloat64})
	if err != nil {
		t.Fatal(err)
	}
	ids := sector.TalonTX()
	probes := []Probe{
		{Sector: ids[0], Meas: radio.Measurement{SNR: 7, RSSI: -55}, OK: true},
		{Sector: ids[5], Meas: radio.Measurement{SNR: 9, RSSI: -52}, OK: true},
	}
	fallbacksBefore := metQuantFallbacks.Value()
	degenerateBefore := metDegenerate.Value()
	_, qErr := quant.EstimateAoA(context.Background(), probes)
	_, fErr := float.EstimateAoA(context.Background(), probes)
	if !errors.Is(qErr, ErrDegenerateSurface) {
		t.Fatalf("quant: want ErrDegenerateSurface, got %v", qErr)
	}
	if !errors.Is(fErr, ErrDegenerateSurface) {
		t.Fatalf("float: want ErrDegenerateSurface, got %v", fErr)
	}
	if metQuantFallbacks.Value() == fallbacksBefore {
		t.Fatal("degenerate surface did not route through the quantized exhaustive fallback")
	}
	if metDegenerate.Value() == degenerateBefore {
		t.Fatal("degenerate quantized estimate was not counted")
	}
}

// TestQuantMinimumProbes pins the minimum-probe parity: one reported
// probe fails with ErrTooFewProbes on both kernels, two reported probes
// pass the gate but degenerate on both (Pearson needs three components),
// and three-probe vectors — the smallest estimable ones — must agree on
// the error class and on the fallback decision's outcome. Sector-level
// agreement is deliberately NOT asserted at M = 3: with three components
// the Pearson surface is a near-flat ridge of correlations ≈ 1 (three
// points almost always fit some line), so the argmax cell is decided by
// sub-ULP score differences and even the float kernel lands tens of
// degrees from the truth. The selection-equivalence gate lives at the
// paper's operating probe counts in TestQuantMatchesFloatClean and
// TestQuantMatchesFloatFaultyChannel.
func TestQuantMinimumProbes(t *testing.T) {
	set, gain := synthSetup(t)
	quant, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	float, err := NewEstimator(set, Options{Kernel: KernelFloat64})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(43)
	model := quietModel()
	ids := sector.TalonTX()

	for n := 1; n <= 2; n++ {
		probes := observe(t, gain, ids[:n], 10, 6, model, rng)
		_, qErr := quant.EstimateAoA(context.Background(), probes)
		_, fErr := float.EstimateAoA(context.Background(), probes)
		want := ErrTooFewProbes
		if n == 2 {
			want = ErrDegenerateSurface
		}
		if !errors.Is(qErr, want) {
			t.Fatalf("n=%d quant: want %v, got %v", n, want, qErr)
		}
		if !errors.Is(fErr, want) {
			t.Fatalf("n=%d float: want %v, got %v", n, want, fErr)
		}
	}

	trials := 0
	for trial := 0; trial < 20; trial++ {
		ps, err := RandomProbes(rng, ids, 3)
		if err != nil {
			t.Fatal(err)
		}
		az := -70 + 140*rng.Float64()
		probes := observe(t, gain, ps.IDs(), az, 8, model, rng)
		qSel, qErr := quant.SelectSector(context.Background(), probes)
		fSel, fErr := float.SelectSector(context.Background(), probes)
		if (qErr == nil) != (fErr == nil) {
			t.Fatalf("trial=%d: error parity broken: quant %v, float %v", trial, qErr, fErr)
		}
		if qErr != nil {
			for _, sentinel := range []error{ErrTooFewProbes, ErrDegenerateSurface} {
				if errors.Is(qErr, sentinel) != errors.Is(fErr, sentinel) {
					t.Fatalf("trial=%d: sentinel parity broken: quant %v, float %v", trial, qErr, fErr)
				}
			}
			continue
		}
		trials++
		// When both kernels reject their ridge and fall back, the sweep
		// fallback depends only on the probes, never the kernel.
		if qSel.Fallback && fSel.Fallback && qSel.Sector != fSel.Sector {
			t.Fatalf("trial=%d: fallback selections diverged: quant %d, float %d", trial, qSel.Sector, fSel.Sector)
		}
	}
	if trials == 0 {
		t.Fatal("no three-probe trial produced an estimate on either kernel")
	}
}

// TestQuantBatchMatchesSelectSector proves the batch-major tile pass
// (tile.go) is invisible at the result level: every item of a quantized
// SelectSectorBatch — including error items — must match a standalone
// SelectSector call bit for bit, at every worker count. The chunked
// dictionary sweep only changes which items share a tile, never any
// item's result.
func TestQuantBatchMatchesSelectSector(t *testing.T) {
	set, gain := synthSetup(t)
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if est.Kernel() != KernelQuantInt16 {
		t.Fatalf("default options did not build the quantized kernel: %q", est.Kernel())
	}
	model := radio.DefaultMeasurementModel()
	rng := stats.NewRNG(47)
	available := sector.TalonTX()
	batch := make([][]Probe, 97)
	for i := range batch {
		ps, err := RandomProbes(rng, available, 12)
		if err != nil {
			t.Fatal(err)
		}
		az := -75 + 150*rng.Float64()
		batch[i] = observe(t, gain, ps.IDs(), az, 10, model, rng)
	}
	// Error items: all probes missing (too few reported), and a
	// two-probe vector (degenerate surface, fallback selection).
	for j := range batch[20] {
		batch[20][j].OK = false
	}
	batch[21] = batch[21][:2]

	ctx := context.Background()
	want := make([]BatchResult, len(batch))
	for i := range batch {
		sel, err := est.SelectSector(ctx, batch[i])
		want[i] = BatchResult{Selection: sel, Err: err}
	}
	for _, workers := range []int{0, 1, 3, 5, 64} {
		got, err := est.SelectSectorBatch(ctx, BatchOf(batch), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range got {
			if (got[i].Err == nil) != (want[i].Err == nil) {
				t.Fatalf("workers=%d item=%d: err %v vs %v", workers, i, got[i].Err, want[i].Err)
			}
			if got[i].Err != nil {
				for _, sentinel := range []error{ErrTooFewProbes, ErrDegenerateSurface} {
					if errors.Is(got[i].Err, sentinel) != errors.Is(want[i].Err, sentinel) {
						t.Fatalf("workers=%d item=%d: sentinel parity broken: %v vs %v", workers, i, got[i].Err, want[i].Err)
					}
				}
				continue
			}
			if !sameSelection(got[i].Selection, want[i].Selection) {
				t.Fatalf("workers=%d item=%d: %+v != %+v", workers, i, got[i].Selection, want[i].Selection)
			}
		}
	}
}

// TestQuantConcurrentUse runs many concurrent quantized estimates
// through one estimator — the quantized twin of TestEngineConcurrentUse,
// checking the pooled gather/tile scratch under the race detector and
// that concurrent results equal sequential ones bit for bit.
func TestQuantConcurrentUse(t *testing.T) {
	set, gain := synthSetup(t)
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(53)
	probeSets := make([][]Probe, 16)
	want := make([]AoAEstimate, len(probeSets))
	for i := range probeSets {
		az := -70 + 140*rng.Float64()
		probeSets[i] = observe(t, gain, sector.TalonTX(), az, 5, quietModel(), rng)
		aoa, err := est.EstimateAoA(context.Background(), probeSets[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = aoa
	}
	done := make(chan error, len(probeSets))
	for i := range probeSets {
		go func(i int) {
			aoa, err := est.EstimateAoA(context.Background(), probeSets[i])
			if err == nil && !sameAoA(aoa, want[i]) {
				err = fmt.Errorf("probe set %d: %+v != %+v", i, aoa, want[i])
			}
			done <- err
		}(i)
	}
	for range probeSets {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestKernelOptionPlumbing pins the option surface: unknown kernel names
// are rejected at construction, KernelFloat64 builds no quantized
// dictionaries, and the estimator reports the kernel actually serving
// estimates.
func TestKernelOptionPlumbing(t *testing.T) {
	set, _ := synthSetup(t)
	if _, err := NewEstimator(set, Options{Kernel: "no-such-kernel"}); err == nil {
		t.Fatal("unknown kernel accepted")
	}
	exact, err := NewEstimator(set, Options{Kernel: KernelFloat64})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Kernel() != KernelFloat64 || len(exact.en.dictQ) != 0 || len(exact.en.coarseQ) != 0 {
		t.Fatalf("float64 oracle kernel = %q with %d quantized codes", exact.Kernel(), len(exact.en.dictQ)+len(exact.en.coarseQ))
	}
	pinned, err := NewEstimator(set, Options{Kernel: KernelQuantInt16})
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Kernel() != KernelQuantInt16 {
		t.Fatalf("pinned quant kernel = %q, want %q", pinned.Kernel(), KernelQuantInt16)
	}
	if !pinned.en.quant() || len(pinned.en.dictQ) != len(pinned.en.dict) {
		t.Fatal("quantized dictionary was not built alongside the float one")
	}
	if want := len(pinned.en.cAzIdx) * len(pinned.en.cElIdx) * pinned.en.stride; want == 0 || len(pinned.en.coarseQ) != want {
		t.Fatalf("quantized coarse dictionary holds %d codes, want %d", len(pinned.en.coarseQ), want)
	}
}

// TestQuantHoleyDictionary routes a dictionary with NaN holes through
// the quantized kernel: holes disable the fused fast path (the missing
// sentinel must be re-checked at every grid point), and the slow sweep
// must still track the float kernel on structured observations.
func TestQuantHoleyDictionary(t *testing.T) {
	grid, err := geom.UniformGrid(-60, 60, 4, 0, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	set := pattern.NewSet()
	gains := make(map[sector.ID]func(az, el float64) float64)
	for i := 1; i <= 10; i++ {
		id := sector.ID(i)
		center := -55 + float64(i)*11
		gain := func(az, el float64) float64 {
			return 11 - (az-center)*(az-center)/60 - el/4
		}
		gains[id] = gain
		p := pattern.FromFunc(grid, gain)
		p.Set(i, 0, math.NaN())
		p.Set(i+5, 1, math.NaN())
		if i == 4 {
			// Two adjacent full missing elevation rows defeat the engine's
			// nearest-corner substitution (Pattern.At only returns NaN when
			// all four bracket corners are missing) and leave real
			// dictionary NaNs.
			for a := 0; a < grid.NumAz(); a++ {
				p.Set(a, 2, math.NaN())
				p.Set(a, 3, math.NaN())
			}
		}
		if err := set.Put(id, p); err != nil {
			t.Fatal(err)
		}
	}
	quant, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if quant.Kernel() != KernelQuantInt16 || quant.en.fullQ {
		t.Fatalf("holey dictionary should build a non-full quantized kernel (kernel %q, full %v)",
			quant.Kernel(), quant.en.fullQ)
	}
	float64k, err := NewEstimator(set, Options{Kernel: KernelFloat64})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(59)
	mismatches, trials := 0, 0
	for trial := 0; trial < 60; trial++ {
		az := -50 + 100*rng.Float64()
		probes := make([]Probe, 0, 10)
		for i := 1; i <= 10; i++ {
			id := sector.ID(i)
			g := gains[id](az, 4)
			probes = append(probes, Probe{
				Sector: id,
				Meas:   radio.Measurement{SNR: g - 4 + rng.Norm(0, 0.5), RSSI: g - 74 + rng.Norm(0, 0.5)},
				OK:     true,
			})
		}
		qSel, qErr := quant.SelectSector(context.Background(), probes)
		fSel, fErr := float64k.SelectSector(context.Background(), probes)
		if (qErr == nil) != (fErr == nil) {
			t.Fatalf("trial %d: error parity broken: quant %v, float %v", trial, qErr, fErr)
		}
		if qErr != nil {
			continue
		}
		trials++
		if qSel.Sector != fSel.Sector {
			mismatches++
		}
	}
	if trials < 50 {
		t.Fatalf("only %d successful holey trials", trials)
	}
	if budget := trials / 20; mismatches > budget {
		t.Fatalf("holey-dictionary selections diverged on %d of %d trials (budget %d)", mismatches, trials, budget)
	}
}
