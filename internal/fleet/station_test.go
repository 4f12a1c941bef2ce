package fleet

import (
	"context"
	"errors"
	"math"
	"sort"
	"testing"
	"time"

	"talon/internal/core"
	"talon/internal/radio"
	"talon/internal/sector"
	"talon/internal/stats"
)

// synthProbesSortOracle is synthProbes as it was, sorting the drawn
// positions into sweep order: the reference for the bit-set walk.
func synthProbesSortOracle(m *Manager, st *station, dst []core.Probe) []core.Probe {
	rng := stats.NewFastRNG(0)
	rng.Reseed(roundSeed(m.cfg.seed, st.id, st.round))
	ids, pats := m.tx.IDs(), m.tx.Patterns()
	idx := rng.SampleInto(nil, len(ids), m.cfg.probeBudget)
	sort.Ints(idx)
	pt := m.locate(st)
	dst = dst[:0]
	for _, j := range idx {
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
	return dst
}

// TestSynthProbesSweepOrder pins synthProbes to the sort-based order and
// RNG stream over many stations, rounds and probe budgets: the same
// sectors in ascending order with the same readings, bit for bit.
func TestSynthProbesSweepOrder(t *testing.T) {
	for _, budget := range []int{1, 2, 14, 33, 34} {
		m, _ := testFleet(t, WithSeed(int64(budget)), WithProbeBudget(budget))
		dst := make([]core.Probe, 0, budget)
		for k := 0; k < 400; k++ {
			st := &station{
				id:    StationID(k * 7919),
				az:    -80 + 160*float64(k%41)/40,
				el:    float64(k % 31),
				round: uint32(k % 5),
			}
			if k%3 == 0 {
				st.faultLossFrac = 0.4
			}
			ref := *st
			want := synthProbesSortOracle(m, &ref, nil)
			dst = m.synthProbes(st, dst)
			if len(dst) != len(want) {
				t.Fatalf("budget %d, station %d: %d probes, oracle %d", budget, k, len(dst), len(want))
			}
			for i := range want {
				g, w := dst[i], want[i]
				if g.Sector != w.Sector || g.OK != w.OK ||
					math.Float64bits(g.Meas.SNR) != math.Float64bits(w.Meas.SNR) ||
					math.Float64bits(g.Meas.RSSI) != math.Float64bits(w.Meas.RSSI) {
					t.Fatalf("budget %d, station %d, probe %d: %+v, oracle %+v", budget, k, i, g, w)
				}
			}
			if st.faultLossFrac != 0 {
				t.Fatalf("budget %d, station %d: fault burst not consumed", budget, k)
			}
		}
	}
}

// TestFailedRoundFallbackIgnoresNonFinite feeds a failed round whose
// probes carry a +Inf and a NaN SNR: the sweep fallback must adopt the
// strongest finite reading, as core.SweepSelect does, not the +Inf one.
func TestFailedRoundFallbackIgnoresNonFinite(t *testing.T) {
	m, _ := testFleet(t, WithShards(1))
	const id = StationID(4)
	if !m.Arrive(Event{Kind: EventArrival, Station: id, AzDeg: 10, ElDeg: 5, DistM: 3}) {
		t.Fatal("arrival rejected")
	}
	if err := m.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	reading := func(s sector.ID, snr float64) core.Probe {
		return core.Probe{Sector: s, OK: true, Meas: radio.Measurement{SNR: snr, RSSI: -60}}
	}
	for _, want := range []sector.ID{9, 20} {
		probes := []core.Probe{
			reading(3, math.Inf(1)),
			reading(5, math.NaN()),
			reading(want, 7),
			reading(30, 2),
			{Sector: 31}, // not reported
		}
		sh := m.shardOf(id)
		sh.mu.Lock()
		slot, ok := sh.index[id]
		if !ok {
			sh.mu.Unlock()
			t.Fatal("station missing after its arrival epoch")
		}
		fallbacks := m.acc.fallbacks
		m.applyOutcome(&sh.recs[slot], &sh.hot[slot], probes,
			core.BatchResult{Err: errors.New("estimation failed")}, request{id: id}, time.Duration(m.now.Load()))
		got := m.acc.fallbacks - fallbacks
		sh.mu.Unlock()
		snap, _ := m.Snapshot(id)
		if snap.Sector != want || !snap.HasLink || got != 1 {
			t.Fatalf("fallback adopted sector %v (link %v, %d fallbacks), want %v", snap.Sector, snap.HasLink, got, want)
		}
	}
}
