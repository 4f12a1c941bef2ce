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

// The coarse-to-fine search of the quantized kernel (quant.go) gated
// against the exhaustive quantized scan (denseArgmaxQ) on the same int16
// arithmetic, so any divergence is the pruning alone; quant_equiv_test.go
// gates the whole kernel against the float64 oracle.

// denseTwin builds a quantized estimator over set with its coarse grid
// dropped, so every estimate runs the exhaustive quantized scan: the
// reference the hierarchy is gated against.
func denseTwin(t *testing.T, set *pattern.Set) *Estimator {
	t.Helper()
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	est.en.coarseQ, est.en.cAzIdx, est.en.cElIdx = nil, nil, nil
	return est
}

// TestHierMatchesExhaustiveClean runs the seeded clean-channel
// equivalence suite: across probe budgets and noisy observations from
// the default firmware defect model, the hierarchical search must select
// the exhaustive scan's sector and land within one coarse-cell diagonal
// of its angle estimate. It drives denseArgmaxQ on every trial.
func TestHierMatchesExhaustiveClean(t *testing.T) {
	set, gain := synthSetup(t)
	hier, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact := denseTwin(t, set)
	diag := coarseDiag(t, hier)

	model := radio.DefaultMeasurementModel()
	rng := stats.NewRNG(23)
	available := sector.TalonTX()
	var c equivCounter
	for _, m := range []int{8, 14, 24} {
		for trial := 0; trial < 40; trial++ {
			ps, err := RandomProbes(rng, available, m)
			if err != nil {
				t.Fatal(err)
			}
			az := -78 + 156*rng.Float64()
			el := 28 * rng.Float64()
			probes := observe(t, gain, ps.IDs(), az, el, model, rng)
			c.compare(t, fmt.Sprintf("m=%d trial=%d", m, trial), hier, exact, probes, diag)
		}
	}
	c.assertRate(t, 100)
}

// TestHierMatchesExhaustiveFaultyChannel repeats the equivalence suite
// on probe vectors produced by a real simulated link — patterns measured
// by the chamber campaign, probing sweeps run over a lab channel with
// the fault.Standard60GHz impairment chain (burst loss, RSSI drift,
// stale feedback, ring drops, transient WMI faults) injected.
func TestHierMatchesExhaustiveFaultyChannel(t *testing.T) {
	dut, err := wil.NewDevice(wil.Config{
		Name: "hier-dut",
		MAC:  dot11ad.MACAddr{0x50, 0xc7, 0xbf, 0, 0, 0x21},
		Seed: 402,
	})
	if err != nil {
		t.Fatal(err)
	}
	probe, err := wil.NewDevice(wil.Config{
		Name: "hier-probe",
		MAC:  dot11ad.MACAddr{0x50, 0xc7, 0xbf, 0, 0, 0x22},
		Seed: 403,
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
	campaign := testbed.NewChamberCampaign(chamber, dut, probe, 404)
	campaign.Repeats = 1
	patterns, err := campaign.MeasureAllPatterns(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := NewEstimator(patterns, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact := denseTwin(t, patterns)
	diag := coarseDiag(t, hier)

	dutPose, probePose := testbed.FacingPoses(3, 1.2)
	dut.SetPose(dutPose)
	probe.SetPose(probePose)
	link := wil.NewLink(channel.Lab(), dut, probe)
	link.SetInjector(fault.Standard60GHz(0.15, 4, 405))

	rng := stats.NewRNG(29)
	available := sector.TalonTX()
	var c equivCounter
	for trial := 0; trial < 140; trial++ {
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
		c.compare(t, fmt.Sprintf("trial=%d", trial), hier, exact, probes, diag)
	}
	c.assertRate(t, 100)
}

// TestHierDegenerateSurface checks the exhaustive fallback: with only
// two reported probes the Pearson correlation is zero at every grid
// point, the coarse pass keeps no candidate, and the hierarchical path
// must degrade to the exhaustive scan and fail with the same
// ErrDegenerateSurface sentinel as the scan itself.
func TestHierDegenerateSurface(t *testing.T) {
	set, _ := synthSetup(t)
	hier, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact := denseTwin(t, set)
	ids := sector.TalonTX()
	probes := []Probe{
		{Sector: ids[0], Meas: radio.Measurement{SNR: 7, RSSI: -55}, OK: true},
		{Sector: ids[5], Meas: radio.Measurement{SNR: 9, RSSI: -52}, OK: true},
	}
	fallbacksBefore := metQuantFallbacks.Value()
	_, hErr := hier.EstimateAoA(context.Background(), probes)
	_, xErr := exact.EstimateAoA(context.Background(), probes)
	if !errors.Is(hErr, ErrDegenerateSurface) {
		t.Fatalf("hier: want ErrDegenerateSurface, got %v", hErr)
	}
	if !errors.Is(xErr, ErrDegenerateSurface) {
		t.Fatalf("exact: want ErrDegenerateSurface, got %v", xErr)
	}
	if metQuantFallbacks.Value() != fallbacksBefore+1 {
		t.Fatal("degenerate surface did not route through the exhaustive fallback")
	}
}

// TestHierMinimumProbes pins the minimum-probes edge cases: one reported
// probe is rejected by both paths with ErrTooFewProbes, two reported
// probes pass the gate but yield a degenerate surface on both paths
// (Pearson correlation needs three components), and three probes — the
// smallest estimable vector — must produce the same selection.
func TestHierMinimumProbes(t *testing.T) {
	set, gain := synthSetup(t)
	hier, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact := denseTwin(t, set)
	diag := coarseDiag(t, hier)
	rng := stats.NewRNG(31)
	model := quietModel()
	ids := sector.TalonTX()

	for n := 1; n <= 2; n++ {
		probes := observe(t, gain, ids[:n], 10, 6, model, rng)
		_, hErr := hier.EstimateAoA(context.Background(), probes)
		_, xErr := exact.EstimateAoA(context.Background(), probes)
		want := ErrTooFewProbes
		if n == 2 {
			want = ErrDegenerateSurface
		}
		if !errors.Is(hErr, want) {
			t.Fatalf("n=%d hier: want %v, got %v", n, want, hErr)
		}
		if !errors.Is(xErr, want) {
			t.Fatalf("n=%d exact: want %v, got %v", n, want, xErr)
		}
	}

	var c equivCounter
	for trial := 0; trial < 20; trial++ {
		ps, err := RandomProbes(rng, ids, 3)
		if err != nil {
			t.Fatal(err)
		}
		az := -70 + 140*rng.Float64()
		probes := observe(t, gain, ps.IDs(), az, 8, model, rng)
		c.compare(t, fmt.Sprintf("min-probes trial=%d", trial), hier, exact, probes, diag)
	}
	if c.trials == 0 {
		t.Fatal("no three-probe trial produced an estimate on either path")
	}
	if c.mismatches > 0 {
		t.Fatalf("three-probe selections diverged on %d of %d trials", c.mismatches, c.trials)
	}
}
