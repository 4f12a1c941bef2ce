package fleet

import (
	"context"
	"errors"
	"math"
	"sort"
	"testing"
	"time"

	"talon/internal/core"
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

// TestFailedRoundKeepsSector applies a failed round and then a
// sweep-fallback selection to a trained station. The failure keeps the
// previous sector and counts a failure, not a fallback; the fallback
// selection is adopted and counted as one.
func TestFailedRoundKeepsSector(t *testing.T) {
	m, _ := testFleet(t, WithShards(1))
	const id = StationID(4)
	if !m.Arrive(Event{Kind: EventArrival, Station: id, AzDeg: 10, ElDeg: 5, DistM: 3}) {
		t.Fatal("arrival rejected")
	}
	if err := m.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	before, ok := m.Snapshot(id)
	if !ok || !before.HasLink {
		t.Fatalf("station not trained after its arrival epoch: %+v", before)
	}
	apply := func(res core.BatchResult) Snapshot {
		sh := m.shardOf(id)
		sh.mu.Lock()
		slot, ok := sh.index[id]
		if ok {
			m.applyOutcome(&sh.recs[slot], &sh.hot[slot], res, request{id: id}, time.Duration(m.now.Load()))
		}
		sh.mu.Unlock()
		if !ok {
			t.Fatal("station missing after its arrival epoch")
		}
		snap, _ := m.Snapshot(id)
		return snap
	}

	failures, fallbacks := m.acc.failures, m.acc.fallbacks
	snap := apply(core.BatchResult{Err: errors.New("estimation failed")})
	if snap.Sector != before.Sector || !snap.HasLink || m.acc.failures != failures+1 || m.acc.fallbacks != fallbacks {
		t.Fatalf("failed round: sector %v (link %v), %d failures, %d fallbacks; want sector %v kept, %d failures, %d fallbacks",
			snap.Sector, snap.HasLink, m.acc.failures, m.acc.fallbacks, before.Sector, failures+1, fallbacks)
	}

	want := sector.ID(9)
	if want == before.Sector {
		want = 20
	}
	snap = apply(core.BatchResult{Selection: core.Selection{Sector: want, Gain: math.NaN(), Fallback: true}})
	if snap.Sector != want || m.acc.failures != failures+1 || m.acc.fallbacks != fallbacks+1 {
		t.Fatalf("fallback selection: sector %v, %d failures, %d fallbacks; want sector %v, %d failures, %d fallbacks",
			snap.Sector, m.acc.failures, m.acc.fallbacks, want, failures+1, fallbacks+1)
	}
}
