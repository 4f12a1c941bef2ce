package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"time"

	"talon/internal/core"
	"talon/internal/eval"
	"talon/internal/fleet"
	"talon/internal/pattern"
	"talon/internal/stats"
)

// The fleet-steady workload: fleet.New at default options over the quick
// pattern grid (a dictionary that fits in L1), tracking fleetStations
// stations in steady state. Arrivals are staggered over one retrain
// period, so each epoch retrains about 1/fleetPeriod of the fleet instead
// of the whole fleet at once; the ramp epochs are set-up. The only
// workload that runs warm-start hints, probe synthesis, outcome
// application and the shard scan.
const (
	fleetStations = 10000
	// fleetPeriod is the epochs between two trainings of a tracked
	// station at fleet.New's defaults: the 1 s retrain interval is ten
	// 100 ms epochs and the retrain fires in the scan of the next one.
	fleetPeriod = 11
	fleetEpoch  = 100 * time.Millisecond
	// fleetCheckEpochs of the timed loop are replayed on a fresh ramp of
	// the seed to check determinism.
	fleetCheckEpochs = 2 * fleetPeriod
	// fleetWindow holds about 180 epochs, fleetTailPct about 45 of them
	// beyond it. Over ten seeds the p90 varied by 27%: on a shared host
	// the epochs a vCPU is taken away in outnumber a tenth of the epochs.
	fleetWindow  = 2 * time.Second
	fleetTailPct = 75.0
	// fleetsim's default event mix, as fractions of the fleet per epoch.
	churnRate    = 0.002
	mobilityRate = 0.01
	blockageRate = 0.002
	faultRate    = 0.002
	// arrivalDriftShare of fleetsim's arrivals drift, at up to maxDrift
	// degrees per second either way; a mobility event sets a new drift
	// that lasts.
	arrivalDriftShare = 0.2
	maxDrift          = 10.0
	// steadyDriftShare is the share of drifting stations that fleetsim's
	// processes tend to: a station is still static only if it arrived
	// static and no mobility event has hit it since, and churn replaces
	// stations at churnRate against mobility's mobilityRate.
	steadyDriftShare = 1 - (1-arrivalDriftShare)*churnRate/(churnRate+mobilityRate)
	// fleet.New's default link budget, for re-probing stations.
	fleetRefSNRDB = 8.0
	fleetRefDistM = 3.0
	// warmSample stations are re-probed for the warm/cold comparison.
	warmSample = 256
)

// fleetGen is the benchmark's seeded workload generator with fleetsim's
// processes: arrivals (a fifth drifting), churn, mobility events that set
// a lasting drift, blockage and fault bursts. Two things differ. The ramp
// admits its stations at the drifting share fleetsim's processes tend to,
// so that every epoch of a run draws from the same mix; fleetsim starts
// at a fifth, which grows through its run. And a station that would drift
// past the grid inset turns around: the generator follows each station's
// azimuth as the manager's scan moves it and reverses its drift with a
// mobility event, so the fleet stays on the measured grid however long
// the run is.
type fleetGen struct {
	rng   *stats.RNG
	alive []fleet.StationID
	// az and drift are indexed by station ID: the azimuth the manager
	// has moved each station to, and its drift in degrees per second.
	az, drift              []float64
	nextID                 fleet.StationID
	events                 []fleet.Event
	azLo, azHi, elLo, elHi float64
}

func newFleetGen(seed int64, set *pattern.Set) *fleetGen {
	az, el := set.Grid().Az(), set.Grid().El()
	// Inset 10% from the grid edges, as fleetsim does.
	azSpan, elSpan := az[len(az)-1]-az[0], el[len(el)-1]-el[0]
	return &fleetGen{
		rng:  stats.NewRNG(seed),
		azLo: az[0] + 0.1*azSpan, azHi: az[len(az)-1] - 0.1*azSpan,
		elLo: el[0] + 0.1*elSpan, elHi: el[len(el)-1] - 0.1*elSpan,
	}
}

// arrival draws a fresh station, drifting with probability driftShare.
func (g *fleetGen) arrival(driftShare float64) fleet.Event {
	id := g.nextID
	g.nextID++
	g.alive = append(g.alive, id)
	ev := fleet.Event{
		Kind: fleet.EventArrival, Station: id,
		AzDeg: g.rng.Uniform(g.azLo, g.azHi),
		ElDeg: g.rng.Uniform(g.elLo, g.elHi),
		DistM: 1 + 9*g.rng.Float64()*g.rng.Float64(),
	}
	if g.rng.Bool(driftShare) {
		ev.DriftDegPerSec = g.rng.Uniform(-maxDrift, maxDrift)
	}
	g.az = append(g.az, ev.AzDeg)
	g.drift = append(g.drift, ev.DriftDegPerSec)
	return ev
}

// pick draws an alive station; remove also takes it out of the fleet.
func (g *fleetGen) pick(remove bool) fleet.StationID {
	i := g.rng.Intn(len(g.alive))
	id := g.alive[i]
	if remove {
		g.alive[i] = g.alive[len(g.alive)-1]
		g.alive = g.alive[:len(g.alive)-1]
	}
	return id
}

// count turns a per-epoch rate into an event count: the integer part
// always fires, the remainder with matching probability.
func (g *fleetGen) count(rate float64) int {
	exp := rate * float64(len(g.alive))
	n := int(exp)
	if g.rng.Bool(exp - float64(n)) {
		n++
	}
	return n
}

// driftShare is the share of alive stations that drift.
func (g *fleetGen) driftShare() float64 {
	n := 0
	for _, id := range g.alive {
		if g.drift[id] != 0 {
			n++
		}
	}
	return float64(n) / float64(max(len(g.alive), 1))
}

// next returns the events to dispatch before the next Step. The slice is
// reused by the following call.
func (g *fleetGen) next() []fleet.Event {
	g.events = g.events[:0]
	if len(g.alive) == 0 {
		return g.events
	}
	for i, n := 0, g.count(churnRate); i < n; i++ {
		g.events = append(g.events, fleet.Event{Kind: fleet.EventDeparture, Station: g.pick(true)},
			g.arrival(arrivalDriftShare))
	}
	for i, n := 0, g.count(mobilityRate); i < n; i++ {
		id := g.pick(false)
		g.drift[id] = g.rng.Uniform(-maxDrift, maxDrift)
		g.events = append(g.events, fleet.Event{Kind: fleet.EventMobility, Station: id, DriftDegPerSec: g.drift[id]})
	}
	for i, n := 0, g.count(blockageRate); i < n; i++ {
		g.events = append(g.events, fleet.Event{Kind: fleet.EventBlockage, Station: g.pick(false),
			AttenDB:  g.rng.Uniform(5, 25),
			Duration: time.Duration(g.rng.Uniform(2, 10) * float64(fleetEpoch))})
	}
	for i, n := 0, g.count(faultRate); i < n; i++ {
		g.events = append(g.events, fleet.Event{Kind: fleet.EventFault, Station: g.pick(false),
			LossFrac: g.rng.Uniform(0.5, 1)})
	}
	// The coming Step's scan moves every drifting station by one epoch of
	// its drift; one that would leave the inset turns around instead.
	dt := fleetEpoch.Seconds()
	for _, id := range g.alive {
		d := g.drift[id]
		if d == 0 {
			continue
		}
		if az := g.az[id] + d*dt; az < g.azLo && d < 0 || az > g.azHi && d > 0 {
			d = -d
			g.drift[id] = d
			g.events = append(g.events, fleet.Event{Kind: fleet.EventMobility, Station: id, DriftDegPerSec: d})
		}
		g.az[id] += d * dt
	}
	return g.events
}

// fleetSim is one manager with its generator.
type fleetSim struct {
	m   *fleet.Manager
	gen *fleetGen
}

// epoch dispatches the generator's next events and steps the manager.
func (s *fleetSim) epoch(ctx context.Context) error {
	for _, ev := range s.gen.next() {
		if !s.m.Dispatch(ev) {
			return fmt.Errorf("fleet: event queue full")
		}
	}
	return s.m.Step(ctx)
}

// ramp builds a manager and brings the fleet to fleetStations, arriving
// one cohort per epoch for one retrain period.
func ramp(ctx context.Context, p *eval.Platform, seed int64) (*fleetSim, error) {
	m, err := fleet.New(p.Estimator, p.Patterns)
	if err != nil {
		return nil, err
	}
	s := &fleetSim{m: m, gen: newFleetGen(seed, p.Patterns)}
	for e := 0; e < fleetPeriod; e++ {
		for k := fleetStations * e / fleetPeriod; k < fleetStations*(e+1)/fleetPeriod; k++ {
			if !m.Arrive(s.gen.arrival(steadyDriftShare)) {
				return nil, fmt.Errorf("fleet: duplicate arrival %d", k)
			}
		}
		if err := s.epoch(ctx); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// digest hashes every alive station's state, sector and link flag.
func (s *fleetSim) digest() uint64 {
	h := fnv.New64a()
	var buf [11]byte
	for id := fleet.StationID(0); id < s.gen.nextID; id++ {
		snap, ok := s.m.Snapshot(id)
		if !ok {
			continue
		}
		binary.LittleEndian.PutUint64(buf[:8], uint64(id))
		buf[8], buf[9], buf[10] = byte(snap.State), byte(snap.Sector), 0
		if snap.HasLink {
			buf[10] = 1
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// linked calls f with the snapshot of every station that has a link.
func (s *fleetSim) linked(f func(fleet.Snapshot)) {
	for id := fleet.StationID(0); id < s.gen.nextID; id++ {
		if snap, ok := s.m.Snapshot(id); ok && snap.HasLink {
			f(snap)
		}
	}
}

func runFleet(ctx context.Context, cfg runConfig) (*outcome, error) {
	o := newOutcome()
	var (
		p         *eval.Platform
		sim       *fleetSim
		digests   []uint64
		platformS []float64
	)
	// Only the last set-up is kept and measured, so the live heap holds one
	// fleet and one platform.
	setupS, err := timedSetups(o, func() error {
		var build time.Duration
		var err error
		if p, build, err = newPlatform(ctx, eval.Quick()); err != nil {
			return err
		}
		platformS = append(platformS, build.Seconds())
		if sim, err = ramp(ctx, p, cfg.seed); err != nil {
			return err
		}
		digests = append(digests, sim.digest())
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Independent set-ups of one seed must reach the same fleet.
	for _, d := range digests[1:] {
		o.check(d == digests[0], "fleet-steady: ramps of one seed differ")
	}

	led := newLedger()
	for _, c := range []struct {
		name     string
		optional bool
	}{
		{"fleet_epochs_total", false}, {"fleet_trainings_total", false}, {"fleet_retrains_total", false},
		{"fleet_batch_items_total", false}, {"core_batches_total", false}, {"core_batch_estimates_total", false},
		{"core_warm_hints_total", false}, {"core_warm_hits_total", false},
		{"fleet_select_failures_total", true}, {"fleet_queue_drops_total", true}, {"core_select_fallback_total", true},
	} {
		if _, err := led.counter(c.name, c.optional); err != nil {
			return nil, err
		}
	}
	trainings := led.counters["fleet_trainings_total"]
	batchSec, err := led.hist("core_batch_seconds")
	if err != nil {
		return nil, err
	}
	if _, err := led.hist("fleet_step_seconds"); err != nil {
		return nil, err
	}
	base := led.read()
	pending0 := sim.m.Pending()

	tr := newTracer(fmt.Sprintf("fleet-steady-%d-%d", cfg.seed, time.Now().UnixNano()))
	var epochs, drops int64
	var checkDigest uint64
	var own, gen []float64
	var dispatchTraced time.Duration
	var eventsTraced int64
	spec := windowSpec{length: fleetWindow, tailPct: fleetTailPct, threads: runtime.GOMAXPROCS(0)}
	plain, traced, err := measure(ctx, cfg, tr, spec, "fleet epoch", func() (sample, error) {
		m := tr.begin("gen")
		evs := sim.gen.next()
		genD := tr.end(m)
		c0 := cpuNow()
		m = tr.begin("fleet.Dispatch")
		for _, ev := range evs {
			if !sim.m.Dispatch(ev) {
				drops++
			}
		}
		dispD := tr.end(m)
		c1 := cpuNow()
		t0, b0 := trainings.Value(), batchSec.Sum()
		m = tr.begin("fleet.Step")
		err := sim.m.Step(ctx)
		stepD := tr.end(m)
		c2 := cpuNow()
		if err != nil {
			return sample{}, err
		}
		n := trainings.Value() - t0
		own = append(own, stepD.Seconds()-(batchSec.Sum()-b0))
		if tr.on {
			gen = append(gen, genD.Seconds())
			dispatchTraced += dispD
			eventsTraced += int64(len(evs))
		}
		epochs++
		if epochs == fleetCheckEpochs {
			m := tr.begin("bench.digest")
			checkDigest = sim.digest()
			tr.end(m)
		}
		return sample{ops: n, lat: stepD, busy: stepD + dispD, cpuLat: c2 - c1, cpuBusy: c2 - c0}, nil
	})
	if err != nil {
		return nil, err
	}
	after := led.read()
	if err := led.dead(base, after); err != nil {
		return nil, err
	}
	trained := after.since(base, "fleet_trainings_total")
	// A refused selection is an outcome the manager handles (fallback to
	// the strongest probe, degraded backoff), reported as refused_ratio.
	// What fails is work the service drops: an event Dispatch refused
	// loses the training it would have caused.
	failures := after.since(base, "fleet_select_failures_total")
	queueDrops := after.since(base, "fleet_queue_drops_total")
	o.attempted, o.failed = int64(trained), drops
	o.hostScale = plain.stat(0.5, func(w window) float64 { return w.scale })

	// Checks, outside the timed loop.
	o.check(drops == 0 && queueDrops == 0, "fleet-steady: %d events dropped by full shard queues", drops)
	pendingEnd := sim.m.Pending()
	o.check(pendingEnd <= pending0, "fleet-steady: pending trainings grew from %d to %d", pending0, pendingEnd)
	if epochs >= fleetCheckEpochs {
		// A fresh ramp of the seed, stepped through the loop's first
		// epochs, must reach the digest the timed manager had then.
		twin, err := ramp(ctx, p, cfg.seed)
		if err != nil {
			return nil, err
		}
		for e := 0; e < fleetCheckEpochs; e++ {
			if err := twin.epoch(ctx); err != nil {
				return nil, err
			}
		}
		o.check(twin.digest() == checkDigest, "fleet-steady: replaying %d epochs of seed %d gave another fleet",
			fleetCheckEpochs, cfg.seed)
	}
	fmt.Fprintf(os.Stderr, "perfbench: fleet digest %016x after %d epochs\n", sim.digest(), epochs)

	// The mean loss is over the snapshots after each epoch of one more
	// retrain period, in which every station's sector is renewed.
	var lossSum float64
	var lossN int
	for e := 0; e < fleetPeriod; e++ {
		if err := sim.epoch(ctx); err != nil {
			return nil, err
		}
		sim.linked(func(snap fleet.Snapshot) {
			if loss, ok := selLossDB(p.Patterns, snap.Sector, snap.AzDeg, snap.ElDeg); ok {
				lossSum += loss
				lossN++
			}
		})
	}
	o.check(lossN > 0, "fleet-steady: no station has a measurable SNR loss")

	o.e2e["setup_s"] = setupS
	o.e2e["op_p50_us"] = plain.p50(true)
	o.e2e["op_tail_us"] = plain.tail(true)
	// Trainings over the CPU time of Step and Dispatch.
	o.e2e["ops_per_s"] = plain.rate(true)
	o.e2e["sel_loss_mean_db"] = lossSum / float64(max(lossN, 1))
	o.e2e["heap_peak_mb"] = plain.heapPeakMB()
	o.note("epoch_p50_ms", plain.p50(false)/1e3, "ms")
	o.note(fmt.Sprintf("epoch_tail_ms(p%g,n=%d)", fleetTailPct, plain.units), plain.tail(false)/1e3, "ms")
	o.note("trainings_per_s", plain.rate(false), "1/s")
	o.note("trainings_per_epoch", trained/float64(epochs), "count")
	o.note("fail_ratio", float64(o.failed)/trained, "ratio")
	o.note("refused_ratio", failures/trained, "ratio")
	o.note("drift_share", sim.gen.driftShare(), "ratio")
	o.note("warm_hit_ratio", after.since(base, "core_warm_hits_total")/after.since(base, "core_warm_hints_total"), "ratio")
	if !cfg.trace {
		return o, nil
	}

	items := after.since(base, "core_batch_estimates_total")
	batchBusy := after.since(base, "core_batch_seconds.sum")
	o.layer["core.fallback_ratio"] = after.since(base, "core_select_fallback_total") / items
	o.layer["core.batch_busy_ms"] = 1e3 * batchBusy / float64(epochs)
	o.layer["core.batch_us_per_item"] = 1e6 * batchBusy / items
	o.layer["core.batch_items_per_call"] = items / after.since(base, "core_batches_total")
	o.layer["core.warm_hit_ratio"] = after.since(base, "core_warm_hits_total") / after.since(base, "core_warm_hints_total")
	stepSpans := tr.durations("fleet.Step")
	o.layer["fleet.step_ms"] = median(stepSpans) / 1e6
	o.layer["fleet.own_ms"] = 1e3 * median(own)
	o.layer["fleet.dispatch_ns"] = float64(dispatchTraced) / float64(max(eventsTraced, 1))
	o.layer["fleet.trainings_per_epoch"] = trained / float64(epochs)
	o.layer["fleet.retrain_ratio"] = after.since(base, "fleet_retrains_total") / trained
	o.layer["fleet.select_failures"] = failures
	o.layer["fleet.queue_drops"] = queueDrops
	o.layer["fleet.pending_end"] = float64(pendingEnd)
	o.layer["eval.platform_s"] = median(platformS)
	o.layer["gen.ms"] = 1e3 * median(gen)

	var dirs []direction
	sim.linked(func(snap fleet.Snapshot) {
		dirs = append(dirs, direction{az: snap.AzDeg, el: snap.ElDeg, dist: snap.DistM})
	})
	tr.on = true
	b := newLinkBudget(p.Patterns, fleetRefSNRDB, fleetRefDistM)
	if err := warmProbe(ctx, o, tr, p.Estimator, b, dirs, cfg.seed); err != nil {
		return nil, err
	}
	if err := layerProbes(o, tr, b, dirs); err != nil {
		return nil, err
	}
	return o, traceMetrics(o, tr, plain, traced, "fleet-steady")
}

// warmProbe re-probes a sample of the fleet's tracked stations twice:
// the first round's cold selection gives the hint cell, and the second
// round's vector is selected both warm (SelectSectorWarm with the hint)
// and cold (SelectSector), alternately.
func warmProbe(ctx context.Context, o *outcome, tr *tracer, est *core.Estimator, b *linkBudget, dirs []direction, seed int64) error {
	rng := stats.NewRNG(seed)
	stride := max(len(dirs)/warmSample, 1)
	var warm, cold []float64
	for i := 0; i < len(dirs); i += stride {
		d := dirs[i]
		first, err := est.SelectSector(ctx, b.probe(rng, d.az, d.el, d.dist, 0))
		if err != nil || first.AoA.Cell == core.NoCell {
			continue
		}
		probes := b.probe(rng, d.az, d.el, d.dist, 0)
		for rep := 0; rep < 4; rep++ {
			m := tr.begin("probe.core.SelectSectorWarm")
			_, werr := est.SelectSectorWarm(ctx, probes, first.AoA.Cell)
			w := tr.end(m)
			m = tr.begin("probe.core.SelectSector")
			_, cerr := est.SelectSector(ctx, probes)
			c := tr.end(m)
			if (werr == nil) != (cerr == nil) {
				return fmt.Errorf("fleet: warm and cold selection disagree on failure: %v / %v", werr, cerr)
			}
			warm = append(warm, float64(w)/1e3)
			cold = append(cold, float64(c)/1e3)
		}
	}
	if len(warm) == 0 {
		return fmt.Errorf("fleet: no sampled station gave a warm-start hint")
	}
	o.layer["core.warm_us"] = median(warm)
	o.layer["core.cold_us"] = median(cold)
	return nil
}
