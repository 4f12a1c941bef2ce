package fleet

import (
	"math"
	"math/bits"
	"time"

	"talon/internal/core"
	"talon/internal/pattern"
	"talon/internal/sector"
)

// station is the cold per-link record a shard holds; the scan-hot fields
// (state, deadline, warm-start cell, sample residue, impairment flags)
// live in the parallel hotStation slice. The struct is deliberately
// small (no retained RNG state, no per-station goroutines) so a million
// stations stay within a couple hundred megabytes; all randomness is
// re-derived per training round from (manager seed, station ID, round).
type station struct {
	id StationID

	// Geometry in the AP's pattern frame.
	az, el, dist float64
	// pathlossDB caches 20·log10(dist/refDistM); dist is fixed at
	// arrival, so the per-probe link budget never recomputes the log.
	pathlossDB float64
	// driftDegPerSec moves az every epoch (mobility).
	driftDegPerSec float64

	// Current selection.
	sector     sector.ID
	haveSector bool
	// servedGain is the selected sector's effective gain toward the
	// station at selection time; the degrade check compares the current
	// gain against it.
	servedGain float64
	// curGain caches the serving sector's pattern gain at (az, el),
	// valid while gainValid holds; it is recomputed on drift and on
	// sector adoption (pure memoization — the cached value is always
	// exactly what gainToward would return).
	curGain   float64
	gainValid bool
	// bestGain caches the ground-truth best sector gain at (az, el),
	// valid while bestValid holds; invalidated by drift only (sector
	// adoption does not move the station).
	bestGain  float64
	bestValid bool

	// Impairments.
	blockEpochsLeft int
	blockAttenDB    float64
	faultLossFrac   float64 // consumed by the next training round

	// Lifecycle bookkeeping (virtual time).
	arrivedAt time.Duration
	round     uint32 // completed + in-flight training rounds
}

// Snapshot is the externally visible state of one station.
type Snapshot struct {
	ID       StationID
	State    State
	Sector   sector.ID
	HasLink  bool
	AzDeg    float64
	ElDeg    float64
	DistM    float64
	Rounds   uint32
	Degraded bool
}

// roundSeed derives the deterministic RNG seed of st's next training
// round. The stream depends only on (fleet seed, station, round), never
// on shard processing order, so batched selections are reproducible at
// any worker count.
func roundSeed(fleetSeed int64, id StationID, round uint32) int64 {
	h := uint64(fleetSeed) ^ 0x9e3779b97f4a7c15
	h = (h ^ uint64(id)) * 0x100000001b3
	h = (h ^ uint64(round)) * 0x100000001b3
	h ^= h >> 29
	return int64(h)
}

// refDistM anchors the fleet link budget: a station at refDistM with a
// sector of mean peak gain sees cfg.refSNRDB before impairments.
const refDistM = 3.0

// trueSNR returns the noiseless SNR toward st of a sector whose pattern
// gain toward it is g, under the fleet's lightweight single-path
// channel: reference SNR, log-distance pathloss, the measured pattern
// gain (normalized by the codebook's mean peak gain) and any active
// blockage attenuation. A missing gain (NaN) gives -Inf.
func (m *Manager) trueSNR(st *station, g float64) float64 {
	if math.IsNaN(g) {
		return math.Inf(-1)
	}
	snr := m.cfg.refSNRDB - st.pathlossDB + g - m.gainRef
	if st.blockEpochsLeft > 0 {
		snr -= st.blockAttenDB
	}
	return snr
}

// locate brackets st's direction on the codebook grid.
func (m *Manager) locate(st *station) pattern.Point { return m.tx.Locate(st.az, st.el) }

// cachedBestGain is the ground-truth best sector gain toward st (the
// optimum the SNR-loss distribution is measured against) through the
// per-station memo: the codebook scan runs only when drift moved the
// station since the last call.
func (m *Manager) cachedBestGain(st *station) float64 {
	if !st.bestValid {
		_, st.bestGain = m.tx.Best(m.locate(st))
		st.bestValid = true
	}
	return st.bestGain
}

// refreshCurGain recomputes the serving-gain cache and maintains the
// hot record's recheck flag: a NaN serving gain (station off the
// measured grid) must keep the station on the scan's slow path so the
// degrade check sees it.
func (m *Manager) refreshCurGain(st *station, h *hotStation) {
	st.curGain = m.gainToward(st, st.sector)
	st.gainValid = true
	if st.curGain != st.curGain {
		h.flags |= flagRecheck
	} else {
		h.flags &^= flagRecheck
	}
}

// gainToward returns id's pattern gain toward st (math.NaN when the
// pattern has no sample there).
func (m *Manager) gainToward(st *station, id sector.ID) float64 {
	p := m.patterns.Get(id)
	if p == nil {
		return math.NaN()
	}
	return p.AtPoint(m.locate(st))
}

// synthProbes fills dst with the station's next training round: a random
// M-of-N probing subset swept over the air, each probe passed through
// the firmware measurement model, with any pending fault burst dropping
// a fraction of the reports. dst must have room for m.cfg.probeBudget
// entries. The round's RNG stream is derived from roundSeed through the
// manager's reseedable round RNG and the sample scratch — both reused
// across rounds, both only touched under stepMu (serve synthesizes
// serially; only the estimation fans out). The station's direction is
// located once for the whole round.
func (m *Manager) synthProbes(st *station, dst []core.Probe) []core.Probe {
	rng := m.roundRNG
	rng.Reseed(roundSeed(m.cfg.seed, st.id, st.round))
	ids, pats := m.tx.IDs(), m.tx.Patterns()
	idx := rng.SampleInto(m.sampleIdx, len(ids), m.cfg.probeBudget)
	m.sampleIdx = idx[:0]
	// Keep stock sweep order, like dot11ad.SubSweepSchedule: mark the
	// drawn positions (sector IDs are bytes, so fewer than 256 of them)
	// and walk the marks ascending.
	var drawn [4]uint64
	for _, j := range idx {
		drawn[j>>6] |= 1 << (j & 63)
	}
	pt := m.locate(st)
	dst = dst[:0]
	for w, word := range drawn {
		for ; word != 0; word &= word - 1 {
			j := w<<6 | bits.TrailingZeros64(word)
			pr := core.Probe{Sector: ids[j]}
			meas, ok := m.model.Observe(m.trueSNR(st, pats[j].AtPoint(pt)), rng)
			if ok && st.faultLossFrac > 0 && rng.Bool(st.faultLossFrac) {
				ok = false
			}
			if ok {
				pr.Meas, pr.OK = meas, true
			}
			dst = append(dst, pr)
		}
	}
	st.faultLossFrac = 0 // the burst hit this round only
	return dst
}
