package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"talon/internal/geom"
	"talon/internal/pattern"
	"talon/internal/radio"
	"talon/internal/sector"
	"talon/internal/stats"
)

// sameAoA reports whether the engine and serial estimates agree to within
// the equivalence tolerance. The two paths perform the identical floating-
// point operations in the identical order, so they should in fact be
// bitwise equal; the 1e-12 slack only guards the comparison itself.
func sameAoA(a, b AoAEstimate) bool {
	const tol = 1e-12
	return math.Abs(a.Az-b.Az) <= tol &&
		math.Abs(a.El-b.El) <= tol &&
		math.Abs(a.Corr-b.Corr) <= tol &&
		a.Used == b.Used
}

func sameSelection(a, b Selection) bool {
	if a.Sector != b.Sector || a.Fallback != b.Fallback || !sameAoA(a.AoA, b.AoA) {
		return false
	}
	if math.IsNaN(a.Gain) || math.IsNaN(b.Gain) {
		return math.IsNaN(a.Gain) && math.IsNaN(b.Gain)
	}
	return math.Abs(a.Gain-b.Gain) <= 1e-12
}

// TestEngineMatchesSerial is the tentpole equivalence proof: across
// option variants, probe counts and noisy observations (including missed
// probes from the defect model), the precomputed-dictionary engine and the
// reference serial grid search produce identical estimates and
// selections. Every variant pins KernelFloat64 — the serial reference is
// an exhaustive float64 scan, so bit-for-bit equality is only promised
// for the exhaustive oracle; the default quantized kernel has its own
// equivalence suites in quant_equiv_test.go and hier_test.go.
func TestEngineMatchesSerial(t *testing.T) {
	set, gain := synthSetup(t)
	variants := []struct {
		name string
		opts Options
	}{
		{"default", Options{Kernel: KernelFloat64}},
		{"snr-only", Options{Kernel: KernelFloat64, SNROnly: true}},
		{"no-refine", Options{Kernel: KernelFloat64, NoRefine: true}},
		{"no-impute", Options{Kernel: KernelFloat64, NoImputeMissing: true}},
		{"snr-only-no-refine", Options{Kernel: KernelFloat64, SNROnly: true, NoRefine: true}},
	}
	model := radio.DefaultMeasurementModel()
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			est, err := NewEstimator(set, v.opts)
			if err != nil {
				t.Fatal(err)
			}
			rng := stats.NewRNG(17)
			available := sector.TalonTX()
			for _, m := range []int{4, 8, 14, 34} {
				for trial := 0; trial < 25; trial++ {
					ps, err := RandomProbes(rng, available, m)
					if err != nil {
						t.Fatal(err)
					}
					az := -78 + 156*rng.Float64()
					el := 28 * rng.Float64()
					probes := observe(t, gain, ps.IDs(), az, el, model, rng)

					gotAoA, gotErr := est.EstimateAoA(context.Background(), probes)
					refAoA, refErr := est.EstimateAoASerial(probes)
					if (gotErr == nil) != (refErr == nil) {
						t.Fatalf("m=%d trial=%d: engine err %v, serial err %v", m, trial, gotErr, refErr)
					}
					if gotErr != nil {
						if !errors.Is(gotErr, ErrTooFewProbes) && !errors.Is(gotErr, ErrDegenerateSurface) {
							t.Fatalf("m=%d trial=%d: untyped engine error %v", m, trial, gotErr)
						}
						if errors.Is(gotErr, ErrTooFewProbes) != errors.Is(refErr, ErrTooFewProbes) {
							t.Fatalf("m=%d trial=%d: sentinel mismatch: %v vs %v", m, trial, gotErr, refErr)
						}
					} else if !sameAoA(gotAoA, refAoA) {
						t.Fatalf("m=%d trial=%d: engine %+v != serial %+v", m, trial, gotAoA, refAoA)
					}

					gotSel, gotErr := est.SelectSector(context.Background(), probes)
					refSel, refErr := est.SelectSectorSerial(probes)
					if (gotErr == nil) != (refErr == nil) {
						t.Fatalf("m=%d trial=%d: select engine err %v, serial err %v", m, trial, gotErr, refErr)
					}
					if gotErr == nil && !sameSelection(gotSel, refSel) {
						t.Fatalf("m=%d trial=%d: select engine %+v != serial %+v", m, trial, gotSel, refSel)
					}
				}
			}
		})
	}
}

// TestEngineMatchesSerialWithHoles checks the equivalence on patterns with
// NaN holes, exercising the dictionary's masked entries and the
// nearest-valid corner substitution baked in at build time.
func TestEngineMatchesSerialWithHoles(t *testing.T) {
	grid, err := geom.UniformGrid(-60, 60, 4, 0, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	set := pattern.NewSet()
	for i := 1; i <= 10; i++ {
		id := sector.ID(i)
		center := -55 + float64(i)*11
		p := pattern.FromFunc(grid, func(az, el float64) float64 {
			return 11 - (az-center)*(az-center)/60 - el/4
		})
		// Punch holes, including a full missing elevation row for one
		// sector.
		p.Set(i, 0, math.NaN())
		p.Set(i+5, 1, math.NaN())
		p.Set(2*i, 2, math.NaN())
		if i == 4 {
			for a := 0; a < grid.NumAz(); a++ {
				p.Set(a, 3, math.NaN())
			}
		}
		if err := set.Put(id, p); err != nil {
			t.Fatal(err)
		}
	}
	// Bit-for-bit against the serial exhaustive reference, so pin the
	// float64 oracle (the random garbage readings below produce surfaces
	// the quantized kernel is allowed to resolve differently).
	est, err := NewEstimator(set, Options{Kernel: KernelFloat64})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(3)
	ids := make([]sector.ID, 0, 10)
	for i := 1; i <= 10; i++ {
		ids = append(ids, sector.ID(i))
	}
	for trial := 0; trial < 50; trial++ {
		probes := make([]Probe, 0, len(ids))
		for _, id := range ids {
			// Random readings with occasional missing reports.
			probes = append(probes, Probe{
				Sector: id,
				Meas:   radio.Measurement{SNR: -5 + 20*rng.Float64(), RSSI: -75 + 20*rng.Float64()},
				OK:     rng.Float64() > 0.3,
			})
		}
		gotAoA, gotErr := est.EstimateAoA(context.Background(), probes)
		refAoA, refErr := est.EstimateAoASerial(probes)
		if (gotErr == nil) != (refErr == nil) {
			t.Fatalf("trial=%d: engine err %v, serial err %v", trial, gotErr, refErr)
		}
		if gotErr == nil && !sameAoA(gotAoA, refAoA) {
			t.Fatalf("trial=%d: engine %+v != serial %+v", trial, gotAoA, refAoA)
		}
	}
}

// TestEngineErrorParity checks that engine and serial paths fail with the
// same typed sentinels.
func TestEngineErrorParity(t *testing.T) {
	set, _ := synthSetup(t)
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tooFew := []Probe{{Sector: 1, Meas: radio.Measurement{SNR: 5, RSSI: -60}, OK: true}}
	_, engineErr := est.EstimateAoA(context.Background(), tooFew)
	_, serialErr := est.EstimateAoASerial(tooFew)
	if !errors.Is(engineErr, ErrTooFewProbes) {
		t.Fatalf("engine: want ErrTooFewProbes, got %v", engineErr)
	}
	if !errors.Is(serialErr, ErrTooFewProbes) {
		t.Fatalf("serial: want ErrTooFewProbes, got %v", serialErr)
	}
}

// TestEstimateCancellation checks that a cancelled context aborts the
// grid search with context.Canceled rather than a degraded result or a
// fallback selection.
func TestEstimateCancellation(t *testing.T) {
	set, gain := synthSetup(t)
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(9)
	probes := observe(t, gain, sector.TalonTX(), 20, 6, quietModel(), rng)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := est.EstimateAoA(ctx, probes); !errors.Is(err, context.Canceled) {
		t.Fatalf("EstimateAoA: want context.Canceled, got %v", err)
	}
	if _, err := est.SelectSector(ctx, probes); !errors.Is(err, context.Canceled) {
		t.Fatalf("SelectSector: want context.Canceled, got %v", err)
	}
	if _, err := est.EstimateMultipath(ctx, probes, 2, 15, 0.5); !errors.Is(err, context.Canceled) {
		t.Fatalf("EstimateMultipath: want context.Canceled, got %v", err)
	}
	if _, err := est.SelectWithBackup(ctx, probes, 15); !errors.Is(err, context.Canceled) {
		t.Fatalf("SelectWithBackup: want context.Canceled, got %v", err)
	}

	// A live context must not be affected.
	if _, err := est.EstimateAoA(context.Background(), probes); err != nil {
		t.Fatalf("live context: %v", err)
	}
}

// TestEngineConcurrentUse runs many concurrent estimates through one
// estimator to exercise the scratch pools under the race detector.
func TestEngineConcurrentUse(t *testing.T) {
	set, gain := synthSetup(t)
	// Pinned to the float kernel: the test checks bit-for-bit agreement
	// with the serial reference, a contract only KernelFloat64 carries.
	// Concurrent use of the quantized kernel is covered by the batch
	// tests and the quant equivalence suite.
	est, err := NewEstimator(set, Options{Kernel: KernelFloat64})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		aoa AoAEstimate
		err error
	}
	rng := stats.NewRNG(11)
	probeSets := make([][]Probe, 16)
	want := make([]result, len(probeSets))
	for i := range probeSets {
		az := -70 + 140*rng.Float64()
		probeSets[i] = observe(t, gain, sector.TalonTX(), az, 5, quietModel(), rng)
		aoa, err := est.EstimateAoASerial(probeSets[i])
		want[i] = result{aoa, err}
	}
	got := make([]result, len(probeSets))
	done := make(chan int, len(probeSets))
	for i := range probeSets {
		go func(i int) {
			aoa, err := est.EstimateAoA(context.Background(), probeSets[i])
			got[i] = result{aoa, err}
			done <- i
		}(i)
	}
	for range probeSets {
		<-done
	}
	for i := range probeSets {
		if (got[i].err == nil) != (want[i].err == nil) {
			t.Fatalf("probe set %d: err %v vs %v", i, got[i].err, want[i].err)
		}
		if got[i].err == nil && !sameAoA(got[i].aoa, want[i].aoa) {
			t.Fatalf("probe set %d: %+v != %+v", i, got[i].aoa, want[i].aoa)
		}
	}
}

// correlateInOracle is the float epilogue's per-vector correlation from
// before jointIn fused the SNR and RSSI passes: its own component
// selection into fixed 64-entry buffers, then the centered sums.
func correlateInOracle(dict []float64, base int, cols []int16, lin []float64) float64 {
	var xs, ps [64]float64
	used := 0
	var sumP, sumX float64
	for i, c := range cols {
		if c < 0 {
			continue
		}
		x := dict[base+int(c)]
		if math.IsNaN(x) {
			continue
		}
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
		return 0
	}
	return w
}

// jointInOracle is the two-call jointIn body the fused pass replaced.
func jointInOracle(dict []float64, base int, cols []int16, snrLin, rssiLin []float64, snrOnly bool) float64 {
	v := correlateInOracle(dict, base, cols, snrLin)
	if v != 0 && !snrOnly {
		v *= correlateInOracle(dict, base, cols, rssiLin)
	}
	return v
}

// TestJointInMatchesTwoCallOracle pins the fused float epilogue to the
// two separate correlations bit for bit, on random vectors with NaN
// dictionary entries, absent columns, more than 64 and fewer than 3
// usable components, zero variance, anti-correlated shapes and SNR-only
// scoring.
func TestJointInMatchesTwoCallOracle(t *testing.T) {
	rng := stats.NewRNG(17)
	const stride = 90
	kinds := map[string]int{}
	for trial := 0; trial < 20000; trial++ {
		n := rng.Intn(100)
		base := stride * rng.Intn(3)
		dict := make([]float64, 3*stride)
		for i := range dict {
			dict[i] = rng.Float64()
			if rng.Bool(0.15) {
				dict[i] = math.NaN()
			}
		}
		cols := make([]int16, n)
		snr, rssi := make([]float64, n), make([]float64, n)
		for i := range cols {
			cols[i] = int16(rng.Intn(stride))
			if rng.Bool(0.1) {
				cols[i] = -1
			}
			snr[i], rssi[i] = 50*rng.Float64(), 1e-6*rng.Float64()
		}
		kind := "random"
		switch trial % 5 {
		case 1: // zero variance in the measurements
			kind = "flat"
			for i := range snr {
				snr[i], rssi[i] = 3, 3
			}
		case 2: // zero variance in the dictionary
			kind = "flat-dict"
			for i := range dict {
				if !math.IsNaN(dict[i]) {
					dict[i] = 0.5
				}
			}
		case 3: // anti-correlated RSSI, correlated SNR
			kind = "anti"
			for i, c := range cols {
				if c >= 0 {
					snr[i], rssi[i] = 2*dict[base+int(c)], 1-dict[base+int(c)]
				}
			}
		}
		usable := 0
		for _, c := range cols {
			if c >= 0 && !math.IsNaN(dict[base+int(c)]) {
				usable++
			}
		}
		switch {
		case usable < 3:
			kinds["<3"]++
		case usable > 64:
			kinds[">64"]++
		}
		for _, snrOnly := range []bool{false, true} {
			want := jointInOracle(dict, base, cols, snr, rssi, snrOnly)
			got := jointIn(dict, base, cols, snr, rssi, snrOnly)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d (%s, snrOnly=%v, %d probes, %d usable): jointIn = %v, oracle %v",
					trial, kind, snrOnly, n, usable, got, want)
			}
			if want != 0 {
				kinds[kind]++
			}
		}
	}
	for _, k := range []string{"<3", ">64", "random", "anti"} {
		if kinds[k] == 0 {
			t.Errorf("no trial covered case %q", k)
		}
	}
}
