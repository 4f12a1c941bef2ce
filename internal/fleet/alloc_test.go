package fleet

import (
	"context"
	"testing"
	"time"
)

// TestScanZeroAllocSteadyState is the allocation-regression guard of
// the per-epoch scan: once the fleet is tracking and no deadline fires,
// a whole Step — shard scan over the hot slice, tally merge, empty
// serve — must not allocate at all. The retrain interval is pushed far
// out so steady-state epochs carry zero training rounds; batch workers
// are pinned to 1 so the scan runs serially (AllocsPerRun pins
// GOMAXPROCS to 1 anyway, and goroutine spawns would count).
//
// The drifting variant moves every station each epoch and samples the
// loss of every station, so each scan re-locates the station on the
// codebook grid for the serving gain (refreshCurGain) and runs the
// ground-truth Eq. 4 scan (cachedBestGain); a huge degrade threshold
// keeps the drifting links tracking.
func TestScanZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under the race detector")
	}
	t.Run("static", func(t *testing.T) { checkScanZeroAlloc(t, 0) })
	t.Run("drifting", func(t *testing.T) {
		checkScanZeroAlloc(t, 0.5, WithDegradeDropDB(1000), WithLossSampleStride(1))
	})
}

func checkScanZeroAlloc(t *testing.T, driftDegPerSec float64, extra ...Option) {
	m, _ := testFleet(t, append([]Option{
		WithShards(4),
		WithSeed(5),
		WithBatchWorkers(1),
		WithRetrainInterval(time.Hour),
	}, extra...)...)
	ctx := context.Background()
	const n = 512
	for i := 0; i < n; i++ {
		az := -70 + 140*float64(i)/n
		if !m.Arrive(Event{Kind: EventArrival, Station: StationID(i), AzDeg: az, ElDeg: 10, DistM: 3}) {
			t.Fatalf("arrival %d rejected", i)
		}
	}
	// First steps train the whole fleet and warm every scratch (arena,
	// batch items, per-shard request lists, tally partials).
	for i := 0; i < 3; i++ {
		if err := m.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		snap, ok := m.Snapshot(StationID(i))
		if !ok || snap.State != StateTracking {
			t.Fatalf("station %d in state %v before steady state", i, snap.State)
		}
		if driftDegPerSec != 0 && !m.Dispatch(Event{Kind: EventMobility, Station: StationID(i), DriftDegPerSec: driftDegPerSec}) {
			t.Fatalf("mobility event %d rejected", i)
		}
	}
	if err := m.Step(ctx); err != nil { // applies the mobility events
		t.Fatal(err)
	}

	var stepErr error
	allocs := testing.AllocsPerRun(20, func() {
		stepErr = m.Step(ctx)
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if allocs != 0 {
		t.Fatalf("steady-state Step allocates %.1f times per epoch, want 0", allocs)
	}
}
