package core

// Failure-injection tests for the estimator: degenerate measurements,
// broken pattern sets, hostile readings.

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

func TestEstimatorAllProbesMissing(t *testing.T) {
	set, _ := synthSetup(t)
	est, _ := NewEstimator(set, Options{})
	probes := make([]Probe, 14)
	for i := range probes {
		probes[i] = Probe{Sector: sector.ID(i + 1)}
	}
	if _, err := est.EstimateAoA(context.Background(), probes); err == nil {
		t.Fatal("all-missing probes estimated")
	}
	if _, err := est.SelectSector(context.Background(), probes); err == nil {
		t.Fatal("all-missing probes selected")
	}
}

func TestEstimatorConstantReadings(t *testing.T) {
	// All probes read the exact same value: the centered correlation is
	// degenerate everywhere; selection must fall back, not panic.
	set, _ := synthSetup(t)
	est, _ := NewEstimator(set, Options{})
	probes := make([]Probe, 12)
	for i := range probes {
		probes[i] = Probe{
			Sector: sector.ID(i + 1),
			Meas:   radio.Measurement{SNR: 3, RSSI: -65},
			OK:     true,
		}
	}
	sel, err := est.SelectSector(context.Background(), probes)
	if err != nil {
		t.Fatalf("constant readings not handled: %v", err)
	}
	if !sel.Fallback {
		t.Fatal("constant readings did not trigger the fallback")
	}
}

func TestEstimatorHostileOutliers(t *testing.T) {
	// Every reading replaced by an adversarial extreme: selection still
	// returns a valid sector (quality degraded, but never a crash or an
	// invalid ID).
	set, gain := synthSetup(t)
	est, _ := NewEstimator(set, Options{})
	rng := stats.NewRNG(1)
	probes := observe(t, gain, sector.TalonTX(), 0, 5, quietModel(), rng)
	for i := range probes {
		if i%2 == 0 {
			probes[i].Meas.SNR = radio.SNRMaxDB
			probes[i].Meas.RSSI = -20
		} else {
			probes[i].Meas.SNR = radio.SNRMinDB
			probes[i].Meas.RSSI = -110
		}
	}
	sel, err := est.SelectSector(context.Background(), probes)
	if err != nil {
		t.Fatalf("hostile readings: %v", err)
	}
	if !sector.IsTalonTX(sel.Sector) {
		t.Fatalf("invalid sector %v", sel.Sector)
	}
}

func TestEstimatorPatternsWithHoles(t *testing.T) {
	// A pattern set with NaN holes (unprocessed campaign data) must not
	// break the correlation.
	grid, err := geom.UniformGrid(-60, 60, 5, 0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	set := pattern.NewSet()
	for i := 1; i <= 8; i++ {
		id := sector.ID(i)
		center := -50 + float64(i)*12
		p := pattern.FromFunc(grid, func(az, el float64) float64 {
			return 10 - (az-center)*(az-center)/50
		})
		// Punch holes.
		p.Set(i, 0, math.NaN())
		p.Set(i+3, 1, math.NaN())
		if err := set.Put(id, p); err != nil {
			t.Fatal(err)
		}
	}
	est, err := NewEstimator(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	probes := []Probe{
		{Sector: 2, Meas: radio.Measurement{SNR: 9, RSSI: -62}, OK: true},
		{Sector: 4, Meas: radio.Measurement{SNR: 4, RSSI: -68}, OK: true},
		{Sector: 6, Meas: radio.Measurement{SNR: -2, RSSI: -74}, OK: true},
		{Sector: 8, Meas: radio.Measurement{SNR: -6, RSSI: -78}, OK: true},
	}
	if _, err := est.EstimateAoA(context.Background(), probes); err != nil {
		t.Fatalf("holey patterns: %v", err)
	}
}

func TestEstimatorProbeForUnknownSector(t *testing.T) {
	// Probes referencing sectors missing from the pattern set are
	// skipped, not fatal.
	set, gain := synthSetup(t)
	est, _ := NewEstimator(set, Options{})
	rng := stats.NewRNG(2)
	probes := observe(t, gain, sector.TalonTX()[:8], -60, 5, quietModel(), rng)
	probes = append(probes, Probe{Sector: 50, Meas: radio.Measurement{SNR: 11}, OK: true})
	if _, err := est.EstimateAoA(context.Background(), probes); err != nil {
		t.Fatalf("unknown-sector probe: %v", err)
	}
}

func TestSweepSelectNaNReadings(t *testing.T) {
	probes := []Probe{
		{Sector: 1, Meas: radio.Measurement{SNR: math.NaN()}, OK: true},
		{Sector: 2, Meas: radio.Measurement{SNR: 4}, OK: true},
	}
	id, ok := SweepSelect(probes)
	if !ok || id != 2 {
		t.Fatalf("NaN reading mishandled: %v %v", id, ok)
	}
}

func TestMultipathDegenerateVector(t *testing.T) {
	set, _ := synthSetup(t)
	est, _ := NewEstimator(set, Options{})
	probes := []Probe{
		{Sector: 1, Meas: radio.Measurement{SNR: 0, RSSI: -70}, OK: true},
		{Sector: 2, Meas: radio.Measurement{SNR: 0, RSSI: -70}, OK: true},
		{Sector: 3, Meas: radio.Measurement{SNR: 0, RSSI: -70}, OK: true},
	}
	if _, err := est.EstimateMultipath(context.Background(), probes, 3, 15, 0.2); err == nil {
		t.Log("degenerate multipath accepted (flat surface) — acceptable if peaks are sane")
	}
	// SelectWithBackup must degrade gracefully either way.
	sel, err := est.SelectWithBackup(context.Background(), probes, 15)
	if err != nil {
		t.Fatalf("SelectWithBackup on degenerate vector: %v", err)
	}
	if sel.HasBackup && sel.Backup.Sector == sel.Primary.Sector {
		t.Fatal("backup equals primary")
	}
}

// sameSelectionBits reports bit-for-bit equality of two selections
// (NaN gains of fallback selections included).
func sameSelectionBits(a, b Selection) bool {
	ga, gb := math.Float64bits(a.Gain), math.Float64bits(b.Gain)
	a.Gain, b.Gain = 0, 0
	return ga == gb && a == b
}

// TestNonFiniteReadingsAreUnreported pins the probe contract for
// non-finite readings: a NaN or ±Inf SNR or RSSI is treated exactly like
// a missing report — on both kernels, through SelectSector,
// SelectSectorBatch and SelectSectorWarm, and in the sweep fallback
// (where a +Inf SNR would otherwise win). A vector whose every reading
// is non-finite fails with ErrTooFewProbes like an all-missing one.
func TestNonFiniteReadingsAreUnreported(t *testing.T) {
	set, gain := synthSetup(t)
	tx := sector.TalonTX()
	var probed []sector.ID
	for i := 0; i < len(tx); i += 2 {
		probed = append(probed, tx[i])
	}
	clean := observe(t, gain, probed, 20, 9, quietModel(), stats.NewRNG(53))
	strongest := 0
	for i, p := range clean {
		if p.Meas.SNR > clean[strongest].Meas.SNR {
			strongest = i
		}
	}
	corruptions := []struct {
		name string
		set  func(m *radio.Measurement)
	}{
		{"snr-nan", func(m *radio.Measurement) { m.SNR = math.NaN() }},
		{"snr+inf", func(m *radio.Measurement) { m.SNR = math.Inf(1) }},
		{"snr-inf", func(m *radio.Measurement) { m.SNR = math.Inf(-1) }},
		{"rssi-nan", func(m *radio.Measurement) { m.RSSI = math.NaN() }},
		{"rssi+inf", func(m *radio.Measurement) { m.RSSI = math.Inf(1) }},
		{"rssi-inf", func(m *radio.Measurement) { m.RSSI = math.Inf(-1) }},
	}
	ctx := context.Background()
	for _, kc := range []struct {
		name string
		opts Options
	}{
		{"quant", Options{}},
		{"float", Options{Kernel: KernelFloat64}},
		{"quant-sweep-fallback", Options{FallbackCorr: 2}},
		{"float-sweep-fallback", Options{Kernel: KernelFloat64, FallbackCorr: 2}},
	} {
		est, err := NewEstimator(set, kc.opts)
		if err != nil {
			t.Fatal(err)
		}
		cleanSel, err := est.SelectSector(ctx, clean)
		if err != nil {
			t.Fatal(err)
		}
		entries := []struct {
			name string
			run  func([]Probe) (Selection, error)
		}{
			{"SelectSector", func(p []Probe) (Selection, error) { return est.SelectSector(ctx, p) }},
			{"SelectSectorBatch", func(p []Probe) (Selection, error) {
				res, err := est.SelectSectorBatch(ctx, BatchOf([][]Probe{p}), 1)
				if err != nil {
					return Selection{}, err
				}
				return res[0].Selection, res[0].Err
			}},
			{"SelectSectorWarm", func(p []Probe) (Selection, error) { return est.SelectSectorWarm(ctx, p, cleanSel.AoA.Cell) }},
		}
		for _, ec := range entries {
			for _, cc := range corruptions {
				for _, k := range []int{strongest, 0} {
					bad := append([]Probe(nil), clean...)
					cc.set(&bad[k].Meas)
					missing := append([]Probe(nil), clean...)
					missing[k] = Probe{Sector: clean[k].Sector}
					want, wantErr := ec.run(missing)
					got, gotErr := ec.run(bad)
					if wantErr != nil || gotErr != nil {
						t.Fatalf("%s/%s/%s probe %d: errors %v (unreported reference %v)", kc.name, ec.name, cc.name, k, gotErr, wantErr)
					}
					if !sameSelectionBits(got, want) {
						t.Fatalf("%s/%s/%s probe %d: got %+v, want the unreported-probe selection %+v", kc.name, ec.name, cc.name, k, got, want)
					}
				}
			}
			allBad := append([]Probe(nil), clean...)
			for i := range allBad {
				allBad[i].Meas.SNR = math.NaN()
			}
			if _, err := ec.run(allBad); !errors.Is(err, ErrTooFewProbes) {
				t.Fatalf("%s/%s: all-NaN vector gave %v, want ErrTooFewProbes", kc.name, ec.name, err)
			}
		}
	}
	if _, ok := SweepSelect([]Probe{{Sector: 3, OK: true, Meas: radio.Measurement{SNR: math.Inf(1)}}}); ok {
		t.Fatal("SweepSelect accepted a +Inf reading")
	}
}

// TestProbeVectorContract pins the rest of the probe contract at the
// boundary, on both kernels:
//
//   - A vector that names a sector twice is malformed: EstimateAoA,
//     SelectSector, SelectSectorWarm, each SelectSectorBatch item and the
//     serial reference fail with ErrDuplicateProbe instead of selecting
//     through the sweep fallback, whether or not the repeated probe
//     reported.
//   - Probes for sectors absent from the pattern set are skipped by the
//     correlation: appending loud ones leaves the selection and angle bit
//     for bit unchanged (Used does not count them), and a vector of only
//     such probes has a degenerate surface. The sweep fallback never
//     selects them: it falls back to the one known report among them,
//     and fails with ErrTooFewProbes when there is none.
//   - At most 64 components enter the correlation: on a set of 80
//     sectors, an 80-probe vector whose last 16 readings point elsewhere
//     (below the loudest of the first 64, so the quantized kernel's
//     window shift is unchanged) estimates exactly like its first 64
//     probes.
func TestProbeVectorContract(t *testing.T) {
	set, gain := synthSetup(t)
	tx := sector.TalonTX()
	clean := observe(t, gain, tx[:20], -25, 9, quietModel(), stats.NewRNG(61))
	ctx := context.Background()
	kernels := []struct {
		name string
		opts Options
	}{
		{"quant", Options{}},
		{"float", Options{Kernel: KernelFloat64}},
	}
	for _, kc := range kernels {
		est, err := NewEstimator(set, kc.opts)
		if err != nil {
			t.Fatal(err)
		}
		cleanSel, err := est.SelectSector(ctx, clean)
		if err != nil || cleanSel.Fallback {
			t.Fatalf("%s: clean vector: %+v, %v", kc.name, cleanSel, err)
		}
		entries := []struct {
			name string
			run  func([]Probe) (Selection, error)
		}{
			{"EstimateAoA", func(p []Probe) (Selection, error) {
				aoa, err := est.EstimateAoA(ctx, p)
				return Selection{AoA: aoa}, err
			}},
			{"SelectSector", func(p []Probe) (Selection, error) { return est.SelectSector(ctx, p) }},
			{"SelectSectorWarm", func(p []Probe) (Selection, error) { return est.SelectSectorWarm(ctx, p, cleanSel.AoA.Cell) }},
			{"SelectSectorBatch", func(p []Probe) (Selection, error) {
				res, err := est.SelectSectorBatch(ctx, BatchOf([][]Probe{clean, p}), 1)
				if err != nil {
					return Selection{}, err
				}
				if res[0].Err != nil || !sameSelectionBits(res[0].Selection, cleanSel) {
					t.Fatalf("%s: a malformed item disturbed its neighbour: %+v", kc.name, res[0])
				}
				return res[1].Selection, res[1].Err
			}},
			{"SelectSectorSerial", func(p []Probe) (Selection, error) { return est.SelectSectorSerial(p) }},
		}

		reported := append(append([]Probe(nil), clean...), clean[7])
		silent := append(append([]Probe(nil), clean...), Probe{Sector: clean[3].Sector})
		unknown := append([]Probe(nil), clean...)
		for id := sector.ID(40); id < 50; id++ {
			unknown = append(unknown, Probe{Sector: id, Meas: radio.Measurement{SNR: radio.SNRMaxDB, RSSI: -30}, OK: true})
		}
		for _, ec := range entries {
			for _, dup := range [][]Probe{reported, silent} {
				if sel, err := ec.run(dup); !errors.Is(err, ErrDuplicateProbe) {
					t.Fatalf("%s/%s: duplicate sector gave %+v, %v; want ErrDuplicateProbe", kc.name, ec.name, sel, err)
				}
			}
			want, err := ec.run(clean)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ec.run(unknown)
			if err != nil {
				t.Fatalf("%s/%s: unknown sectors: %v", kc.name, ec.name, err)
			}
			if got.AoA.Used != 20 || !sameSelectionBits(got, want) {
				t.Fatalf("%s/%s: unknown sectors moved the selection: %+v, want %+v (Used 20)", kc.name, ec.name, got, want)
			}
			if ec.name == "EstimateAoA" {
				continue
			}
			// The sweep fallback picks only sectors the set carries:
			// the lone known report beats louder unknown ones, and a
			// vector of unknown reports has nothing to pick.
			lone := append([]Probe{clean[0]}, unknown[len(clean):]...)
			if sel, err := ec.run(lone); err != nil || !sel.Fallback || sel.Sector != clean[0].Sector {
				t.Fatalf("%s/%s: one known report among unknown ones gave %v, %v; want the sweep fallback to sector %v", kc.name, ec.name, sel, err, clean[0].Sector)
			}
			if sel, err := ec.run(unknown[len(clean):]); !errors.Is(err, ErrTooFewProbes) {
				t.Fatalf("%s/%s: all-unknown vector gave %v, %v; want ErrTooFewProbes", kc.name, ec.name, sel, err)
			}
		}
		if _, err := est.EstimateAoA(ctx, unknown[len(clean):]); !errors.Is(err, ErrDegenerateSurface) {
			t.Fatalf("%s: all-unknown vector gave %v, want ErrDegenerateSurface", kc.name, err)
		}
	}

	// 80 sectors with distinct beams on a small grid.
	grid, err := geom.UniformGrid(-60, 60, 4, 0, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	wide := pattern.NewSet()
	beam := func(id sector.ID, az, el float64) float64 {
		c := -78 + 156*float64(id-1)/79
		return 12 - (az-c)*(az-c)/90 - el*float64(id%5)/6
	}
	for id := sector.ID(1); id <= 80; id++ {
		p := pattern.FromFunc(grid, func(az, el float64) float64 { return beam(id, az, el) })
		if err := wide.Put(id, p); err != nil {
			t.Fatal(err)
		}
	}
	probes := make([]Probe, 0, 80)
	for id := sector.ID(1); id <= 80; id++ {
		g := beam(id, 17, 5)
		if id > 64 {
			g = beam(id, 60, 5) - 2
		}
		probes = append(probes, Probe{Sector: id, Meas: radio.Measurement{SNR: g, RSSI: g - 60}, OK: true})
	}
	for _, kc := range kernels {
		est, err := NewEstimator(wide, kc.opts)
		if err != nil {
			t.Fatal(err)
		}
		all, err := est.SelectSector(ctx, probes)
		if err != nil {
			t.Fatal(err)
		}
		first, err := est.SelectSector(ctx, probes[:64])
		if err != nil {
			t.Fatal(err)
		}
		if all.Fallback || all.AoA.Used != 80 || first.AoA.Used != 64 {
			t.Fatalf("%s: 80-probe selection %+v, 64-probe %+v", kc.name, all, first)
		}
		all.AoA.Used = 64
		if !sameSelectionBits(all, first) {
			t.Fatalf("%s: components past the 64th changed the selection: %+v, want %+v", kc.name, all, first)
		}
	}
}
