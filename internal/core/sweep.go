package core

import (
	"math"

	"talon/internal/sector"
)

// SweepSelect is the stock sector-sweep baseline (Eq. 1): the probed
// sector with the highest reported SNR. Missing reports simply lose —
// exactly the failure mode that makes the stock algorithm fluctuate —
// and so do non-finite readings. ok is false when no probe carried a
// usable measurement.
func SweepSelect(probes []Probe) (id sector.ID, ok bool) {
	return sweepArgmax(probes, nil)
}

// sweepArgmax is SweepSelect over the probes whose sector has a column
// in cols, excluding the RX pseudo-sector; a nil cols admits every
// sector. The estimator's fallback passes its dictionary columns, so it
// can only pick a transmit sector its pattern set carries.
func sweepArgmax(probes []Probe, cols *[256]int16) (id sector.ID, ok bool) {
	bestSNR := math.Inf(-1)
	for _, p := range probes {
		if !p.reported() || cols != nil && (p.Sector == sector.RX || cols[p.Sector] < 0) {
			continue
		}
		if p.Meas.SNR > bestSNR {
			id, bestSNR, ok = p.Sector, p.Meas.SNR, true
		}
	}
	return id, ok
}

// OptimalSector returns the probed sector with the highest *true* SNR
// according to truth — the evaluation oracle for SNR-loss (Section 6.3),
// not available to any protocol.
func OptimalSector(truth map[sector.ID]float64) (sector.ID, bool) {
	best, bestSNR, ok := sector.ID(0), math.Inf(-1), false
	for _, id := range sector.TalonTX() {
		snr, have := truth[id]
		if !have {
			continue
		}
		if snr > bestSNR {
			best, bestSNR, ok = id, snr, true
		}
	}
	return best, ok
}
