package core

import (
	"context"
	"math"
	"runtime"
	"sync"
	"time"
)

// BatchResult pairs one batch item's selection with its error. Errors
// are per item (a degenerate vector fails its item, not the batch) and
// match what SelectSector would return for the same probes.
type BatchResult struct {
	Selection Selection
	Err       error
}

// BatchItem is one independent selection of a batch: a probe vector plus
// an optional warm-start hint (the Cell of the item's previous
// selection; NoCell runs the full search). Hints follow the same
// contract as SelectSectorWarm — they can only change cost, never the
// selection beyond the equivalence budget — and are ignored entirely by
// the float64 kernel.
type BatchItem struct {
	Probes []Probe
	Hint   Cell
}

// BatchOf wraps plain probe vectors as hintless batch items, for callers
// without warm-start state.
func BatchOf(batch [][]Probe) []BatchItem {
	items := make([]BatchItem, len(batch))
	for i, probes := range batch {
		items[i].Probes = probes
	}
	return items
}

// SelectSectorBatch runs the full CSS pipeline over a batch of
// independent probe vectors, amortizing the per-call scratch churn of
// calling SelectSector in a loop. The batch is split into contiguous
// chunks, one per worker; on the quantized kernel each chunk shares one
// tiled sweep of the coarse dictionary (see tile.go), on the float64
// oracle a chunk is a plain loop over SelectSector. workers <= 0 picks
// GOMAXPROCS; any value is capped at GOMAXPROCS and at the batch size.
// Per-item results are deterministic and identical to SelectSector (or,
// for hinted items, SelectSectorWarm) at any worker count: the split
// only decides which items share a sweep.
//
// ctx is observed between items and inside each item's grid search; on
// cancellation the batch returns ctx.Err() and the results are
// discarded.
func (e *Estimator) SelectSectorBatch(ctx context.Context, batch []BatchItem, workers int) ([]BatchResult, error) {
	n := len(batch)
	if n == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	metBatches.Inc()
	metBatchEstimates.Add(int64(n))
	metBatchSize.Set(int64(n))
	start := time.Now() //lint:allow determinism -- batch-latency histogram reads the wall clock by design
	defer metBatchSeconds.ObserveSince(start)
	if procs := runtime.GOMAXPROCS(0); workers <= 0 || workers > procs {
		workers = procs
	}
	if workers > n {
		workers = n
	}
	rounds := math.Ceil(float64(n) / float64(workers))
	metBatchOccupancy.Set(float64(n) / (float64(workers) * rounds))

	out := make([]BatchResult, n)
	if workers == 1 {
		if err := e.selectChunk(ctx, batch, out); err != nil {
			return nil, err
		}
		return out, nil
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			// Cancellation is surfaced via ctx.Err() below.
			_ = e.selectChunk(ctx, batch[lo:hi], out[lo:hi])
		}(lo, hi)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// selectChunk fills out[i] with exactly what SelectSector (or
// SelectSectorWarm) would produce for batch[i], on the serving kernel.
// It returns non-nil only on context cancellation.
func (e *Estimator) selectChunk(ctx context.Context, batch []BatchItem, out []BatchResult) error {
	if e.en.quant() {
		return e.quantChunk(ctx, batch, out)
	}
	for i := range batch {
		if err := ctx.Err(); err != nil {
			return err
		}
		sel, err := e.SelectSector(ctx, batch[i].Probes)
		out[i] = BatchResult{Selection: sel, Err: err}
	}
	return nil
}
