package par

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestForEachVisitsEveryIndexOnce runs every worker setting the callers
// use (default, serial, a few, exactly n, more than n) and checks that
// each index runs exactly once, on a worker number inside the resolved
// worker count.
func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	const n = 97
	procs := runtime.GOMAXPROCS(0)
	for _, size := range []int{0, 1, n} {
		for _, workers := range []int{-1, 0, 1, 2, size, size + 3} {
			counts := make([]atomic.Int32, size)
			var badWorker atomic.Int32
			limit := workers
			if limit <= 0 || limit > procs {
				limit = procs
			}
			limit = min(limit, size)
			err := ForEach(context.Background(), size, workers, counts, func(counts []atomic.Int32, w, i int) error {
				if w < 0 || w >= limit {
					badWorker.Store(int32(w) + 1)
				}
				counts[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", size, workers, err)
			}
			if w := badWorker.Load(); w != 0 {
				t.Fatalf("n=%d workers=%d: worker number %d outside [0, %d)", size, workers, w-1, limit)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", size, workers, i, c)
				}
			}
		}
	}
}

// TestForEachFirstErrorStops fails one index and checks the error comes
// back and no index is claimed after the failure is seen: with one
// worker nothing past the failing index runs, and with several the
// indices run stay far below n.
func TestForEachFirstErrorStops(t *testing.T) {
	boom := errors.New("boom")
	const n, fail = 10000, 5
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := ForEach(context.Background(), n, workers, &ran, func(ran *atomic.Int64, _, i int) error {
			ran.Add(1)
			if i == fail {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: got %v, want the failing index's error", workers, err)
		}
		if workers == 1 && ran.Load() != fail+1 {
			t.Fatalf("serial: %d indices ran, want %d", ran.Load(), fail+1)
		}
		if ran.Load() >= n {
			t.Fatalf("workers=%d: all %d indices ran after a failure", workers, n)
		}
	}
}

// TestForEachCancelled checks that a cancelled ctx is returned, before
// any index when it is cancelled up front and midway otherwise.
func TestForEachCancelled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		ran := 0
		var mu sync.Mutex
		err := ForEach(ctx, 100, workers, &mu, func(mu *sync.Mutex, _, _ int) error {
			mu.Lock()
			ran++
			mu.Unlock()
			return nil
		})
		if !errors.Is(err, context.Canceled) || ran != 0 {
			t.Fatalf("workers=%d: pre-cancelled ctx gave %v after %d indices", workers, err, ran)
		}

		ctx, cancel = context.WithCancel(context.Background())
		err = ForEach(ctx, 1000, workers, cancel, func(cancel context.CancelFunc, _, i int) error {
			if i == 10 {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: cancelled midway gave %v", workers, err)
		}
	}
}

type sumState struct {
	xs  []int
	out *int
}

// TestForEachSerialZeroAlloc is the allocation gate of the inline path
// with the two state shapes the callers pass: a pointer and a small
// struct by value, each with a literal that captures nothing.
func TestForEachSerialZeroAlloc(t *testing.T) {
	ctx := context.Background()
	xs := make([]int, 64)
	var total int
	allocs := testing.AllocsPerRun(100, func() {
		_ = ForEach(ctx, len(xs), 1, sumState{xs: xs, out: &total}, func(s sumState, _, i int) error {
			*s.out += s.xs[i]
			return nil
		})
	})
	if allocs != 0 {
		t.Fatalf("serial ForEach with struct state allocates %.1f times per call, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		_ = ForEach(ctx, len(xs), 1, &total, func(out *int, _, i int) error {
			*out += i
			return nil
		})
	})
	if allocs != 0 {
		t.Fatalf("serial ForEach with pointer state allocates %.1f times per call, want 0", allocs)
	}
}
