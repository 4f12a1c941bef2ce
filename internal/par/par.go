// Package par is the one fan-out primitive of the library: a bounded,
// joined, cancellable parallel loop over an index range. Every
// data-parallel phase (the fleet's shard scan, the batch estimator's
// chunks, the trace store's shard replay) runs through ForEach, so
// worker-count resolution, cancellation and error handling are decided
// once.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach calls fn(state, worker, i) once for every i in [0, n) and
// returns when every call has finished.
//
// workers <= 0 means GOMAXPROCS; the count is capped at GOMAXPROCS and at
// n. Workers claim indices from a shared atomic cursor, so a worker that
// finishes early takes the next unclaimed index; worker is the calling
// worker's number in [0, workers), for per-worker scratch. ctx is
// checked before each index. The first error (from fn, or ctx.Err())
// stops the unclaimed indices and is returned once every worker has been
// joined; calls already running finish.
//
// With one worker ForEach runs the loop inline and starts no goroutine.
// That path does not allocate as long as the caller's fn is not a
// capturing closure: per-call data travels in state (a pointer, or a
// small struct by value) and fn is a method expression or a literal that
// captures nothing. A capturing closure escapes through the parallel
// path and is heap-allocated on every call, serial or not.
func ForEach[S any](ctx context.Context, n, workers int, state S, fn func(state S, worker, i int) error) error {
	if procs := runtime.GOMAXPROCS(0); workers <= 0 || workers > procs {
		workers = procs
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(state, 0, i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		failOnce sync.Once
		first    error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				err := ctx.Err()
				if err == nil {
					err = fn(state, w, i)
				}
				if err != nil {
					failOnce.Do(func() { first = err })
					next.Store(int64(n)) // no further index is claimed
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
