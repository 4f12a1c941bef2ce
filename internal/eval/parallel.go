package eval

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// parallelismKnob caps the worker count of the trial loops; 0 means
// runtime.GOMAXPROCS.
var parallelismKnob atomic.Int32

// SetParallelism caps the number of workers the evaluation trial loops
// use. 0 restores the default (GOMAXPROCS); 1 forces serial execution.
// Results are identical at any setting: randomness is drawn serially
// before the trials fan out.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parallelismKnob.Store(int32(n))
}

// Parallelism returns the effective trial-loop worker count.
func Parallelism() int {
	if n := int(parallelismKnob.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// parallelFor runs fn(0..n-1) across at most workers goroutines, using a
// shared atomic cursor so finished workers steal remaining indices. It
// observes ctx between iterations and returns ctx.Err() when cancelled
// (already-started iterations still finish).
func parallelFor(ctx context.Context, n, workers int, fn func(i int)) error {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	metWorkers.Set(int64(workers))
	loopStart := time.Now() //lint:allow determinism -- worker-utilization metrics time the wall clock by design
	defer metLoopSeconds.ObserveSince(loopStart)
	// busyNanos accumulates per-iteration time across workers; utilization
	// is the busy fraction of workers x wall time for this loop.
	var busyNanos atomic.Int64
	defer func() {
		wall := time.Since(loopStart) //lint:allow determinism -- worker-utilization metrics time the wall clock by design
		if wall > 0 {
			metWorkerUtilization.Set(float64(busyNanos.Load()) / (float64(workers) * float64(wall)))
		}
	}()
	run := func(i int) {
		start := time.Now() //lint:allow determinism -- worker-utilization metrics time the wall clock by design
		fn(i)
		busyNanos.Add(int64(time.Since(start))) //lint:allow determinism -- worker-utilization metrics time the wall clock by design
		metTrials.Inc()
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			run(i)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}
