package main

import (
	"context"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The development machine is a VM whose host takes CPU away in bursts
// and shares its cores with other guests: the same selection loop there
// runs anywhere from 1x to 1.9x its best wall time from one minute to the
// next. The gated timings are therefore the process's CPU time, which
// the guest kernel does not charge for the time the host runs another
// guest on the vCPU (steal), and they are scaled by a calibration loop
// timed the same way next to them in the same run, onto the speed the
// loop has on that machine when the host is quiet: 10 ms of CPU when the
// loop runs at half speed is reported as 5 ms. The scale covers what
// steal accounting does not, a busy sibling hyperthread or shared cache:
// the loop is throughput-bound integer multiply-adds over an L2-resident
// int16 buffer, like the estimator's quantized kernel, so that such a
// neighbour slows both alike. A sample during which a GC cycle ended is
// discarded: the program's GC workers would slow the loop and the scale
// would cancel part of a regression that allocates more. Raw wall times
// are printed beside the scaled CPU times.
const (
	// calPasses over a calBufs buffer make one calibration loop, about
	// 0.5 ms.
	calPasses = 20
	// calRefNs is the calibration time per buffer element on the
	// development machine when the host is quiet, in nanoseconds.
	calRefNs = 1.0
	// calEvery is the wall time between two calibration loops.
	calEvery = 50 * time.Millisecond
)

// cpuNow returns the CPU time all threads of the process have used.
func cpuNow() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// calBufs hold one 48 KiB buffer per calibrating thread.
var calBufs [][]int16

var calSink [64]int64

// calibrate runs the calibration loop on each of threads goroutines at
// once and returns the CPU nanoseconds per buffer element.
func calibrate(threads int) float64 {
	for len(calBufs) < threads {
		b := make([]int16, 24<<10)
		for i := range b {
			b[i] = int16(i*7919) >> 4
		}
		calBufs = append(calBufs, b)
	}
	start := cpuNow()
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := calBufs[g]
			var a0, a1, a2, a3 int64
			for r := 0; r < calPasses; r++ {
				for i := 0; i+3 < len(buf); i += 4 {
					a0 += int64(buf[i]) * int64(buf[i+1])
					a1 += int64(buf[i+1]) * int64(buf[i+2])
					a2 += int64(buf[i+2]) * int64(buf[i+3])
					a3 += int64(buf[i+3]) * int64(buf[i])
				}
			}
			calSink[g%len(calSink)] = a0 + a1 + a2 + a3
		}()
	}
	wg.Wait()
	return float64((cpuNow() - start).Nanoseconds()) / float64(threads*calPasses*len(calBufs[0]))
}

// calSample runs the calibration loop once; ok is false when a GC cycle
// ended while it ran.
func calSample(threads int) (ns float64, ok bool) {
	gcs := completedGCs()
	ns = calibrate(threads)
	return ns, completedGCs() == gcs
}

// window holds one window's statistics: the median and the tail
// percentile of the unit latencies in microseconds and the operations
// per second of busy time, in raw wall time and in CPU time scaled by
// the window's calibration scale (calRefNs over the median calibration
// CPU time per element).
type window struct {
	p50, tail, rate          float64
	cpuP50, cpuTail, cpuRate float64
	scale                    float64
}

// phase is one stretch of back-to-back operations in the tracer clock.
// Its statistics are taken per window of wall time, so a burst the host
// takes away from the run moves only the windows it falls in.
type phase struct {
	from, to   time.Duration
	units, ops int64
	windows    []window
	heap       []float64 // live heap samples in bytes
	mem0, mem1 runtime.MemStats
}

func (p phase) wall() time.Duration { return p.to - p.from }

func (p phase) opsPerSec() float64 { return float64(p.ops) / p.wall().Seconds() }

// heapPeakMB is the 90th percentile of the live heap samples: the largest
// live heaps a GC finds depend on where in an operation it happens to
// run, so their maximum varies from run to run by a tenth.
func (p phase) heapPeakMB() float64 { return quantile(p.heap, 0.9) / (1 << 20) }

// stat returns the q-quantile over windows of f.
func (p phase) stat(q float64, f func(window) float64) float64 {
	xs := make([]float64, len(p.windows))
	for i, w := range p.windows {
		xs[i] = f(w)
	}
	return quantile(xs, q)
}

// p50, tail and rate report the latency median, the latency tail and the
// throughput of the quieter quarter of the windows: the host only ever
// adds time, so the first quartile of the windows' latencies and the
// third of their throughputs are the run's closest estimates of what the
// program itself costs. Timings are scaled CPU time, or raw wall time
// when cpu is false.
func (p phase) p50(cpu bool) float64 {
	return p.stat(0.25, func(w window) float64 { return pick(cpu, w.cpuP50, w.p50) })
}

func (p phase) tail(cpu bool) float64 {
	return p.stat(0.25, func(w window) float64 { return pick(cpu, w.cpuTail, w.tail) })
}

func (p phase) rate(cpu bool) float64 {
	return p.stat(0.75, func(w window) float64 { return pick(cpu, w.cpuRate, w.rate) })
}

func pick(cond bool, a, b float64) float64 {
	if cond {
		return a
	}
	return b
}

// windowSpec shapes a workload's statistics: the wall time of one window
// (0: one window over the whole phase), the tail percentile and the
// number of threads the workload keeps busy, which the calibration loop
// runs on.
type windowSpec struct {
	length  time.Duration
	tailPct float64
	threads int
}

// sample is what one unit reports: the operations it performed, the
// latency the percentiles are taken over, and the time of its calls into
// the program, each in wall time and in process CPU time.
type sample struct {
	ops             int64
	lat, busy       time.Duration
	cpuLat, cpuBusy time.Duration
}

var (
	heapLive = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	gcCycles = []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
)

// completedGCs returns the number of GC cycles completed so far.
func completedGCs() uint64 {
	metrics.Read(gcCycles)
	return gcCycles[0].Value.Uint64()
}

// liveHeap returns the heap the last GC found live.
func liveHeap() float64 {
	metrics.Read(heapLive)
	return float64(heapLive[0].Value.Uint64())
}

// measure calls unit back to back for cfg.measure. An untraced run spends
// all the time untraced. A traced run spends the first half untraced and
// the second with spans on, so the two phases give the tracing overhead.
// Between units it samples the live heap and runs the calibration loop;
// after the last unit it forces a GC and samples the heap once more.
func measure(ctx context.Context, cfg runConfig, tr *tracer, spec windowSpec, what string,
	unit func() (sample, error)) (plain, traced phase, err error) {
	run := func(d time.Duration, on bool) (phase, error) {
		var p phase
		runtime.GC()
		runtime.ReadMemStats(&p.mem0)
		tr.on = on
		p.from = tr.now()
		// Sized for a 250 ms window of 8 us units, so the benchmark's
		// own heap does not grow during the run: 1 MiB in all. More would
		// space out the program's GC cycles, and heap_peak_mb, the 90th
		// percentile of the live heaps they find, would rest on fewer.
		lats := make([]float64, 0, 1<<15)
		busys := make([]float64, 0, 1<<15)
		cpuLats := make([]float64, 0, 1<<15)
		cpuBusys := make([]float64, 0, 1<<15)
		var cals []float64
		var wops int64
		// scale is the last window's; a window without a calibration
		// sample keeps it.
		scale := 1.0
		window, lastCal := p.from, p.from-calEvery
		closeWindow := func(now time.Duration) {
			warnTail(len(lats), spec.tailPct, what)
			if len(cals) > 0 {
				scale = calRefNs / median(cals)
			}
			w := windowStats(lats, busys, wops, spec.tailPct)
			c := windowStats(cpuLats, cpuBusys, wops, spec.tailPct)
			w.cpuP50, w.cpuTail, w.cpuRate, w.scale = c.p50*scale, c.tail*scale, c.rate/scale, scale
			p.windows = append(p.windows, w)
			lats, busys, cals, wops, window = lats[:0], busys[:0], cals[:0], 0, now
			cpuLats, cpuBusys = cpuLats[:0], cpuBusys[:0]
		}
		for {
			now := tr.now()
			if spec.length > 0 && now-window >= spec.length {
				closeWindow(now)
			}
			if now-p.from >= d {
				break
			}
			if now-lastCal >= calEvery {
				if c, ok := calSample(spec.threads); ok {
					cals = append(cals, c)
				}
				lastCal = now
			}
			if err := ctx.Err(); err != nil {
				return p, err
			}
			s, err := unit()
			if err != nil {
				return p, err
			}
			// The live heap only changes when a GC ends; sampling every
			// unit would cost short units a microsecond each.
			if s.lat >= 100*time.Microsecond || p.units%1024 == 0 {
				p.heap = append(p.heap, liveHeap())
			}
			p.units++
			p.ops += s.ops
			wops += s.ops
			lats = append(lats, float64(s.lat)/1e3)
			busys = append(busys, s.busy.Seconds())
			cpuLats = append(cpuLats, float64(s.cpuLat)/1e3)
			cpuBusys = append(cpuBusys, s.cpuBusy.Seconds())
		}
		p.to = tr.now()
		if len(p.windows) == 0 || 2*(p.to-window) >= spec.length && len(lats) > 0 {
			closeWindow(p.to)
		}
		tr.on = false
		runtime.ReadMemStats(&p.mem1)
		runtime.GC()
		p.heap = append(p.heap, liveHeap())
		return p, nil
	}
	if !cfg.trace {
		plain, err = run(cfg.measure, false)
		return plain, phase{}, err
	}
	if plain, err = run(cfg.measure/2, false); err != nil {
		return plain, traced, err
	}
	traced, err = run(cfg.measure/2, true)
	return plain, traced, err
}

// windowStats reduces one window's latencies and busy times. The
// throughput's busy time caps each unit at the window's 99th percentile:
// a host preemption of a few milliseconds inside one 15 us call, or a
// GC worker's CPU time during it, would otherwise count as a thousand
// calls' worth of program time.
func windowStats(lats, busys []float64, ops int64, tailPct float64) window {
	w := window{
		p50:  quantile(lats, 0.5),
		tail: quantile(lats, tailPct/100),
	}
	capped, busy := quantile(busys, 0.99), 0.0
	for _, b := range busys {
		busy += min(b, capped)
	}
	w.rate = float64(ops) / busy
	return w
}
