package core

import (
	"context"
	"runtime"
	"time"

	"talon/internal/par"
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
	start := time.Now() //lint:allow determinism -- batch-latency histogram reads the wall clock by design
	defer metBatchSeconds.ObserveSince(start)
	if procs := runtime.GOMAXPROCS(0); workers <= 0 || workers > procs {
		workers = procs
	}
	chunks := min(workers, n)
	out := make([]BatchResult, n)
	if err := par.ForEach(ctx, chunks, chunks, batchJob{e, ctx, batch, out, chunks}, batchJob.run); err != nil {
		return nil, err
	}
	return out, nil
}

// batchJob is one SelectSectorBatch call, split into chunks contiguous
// item ranges; it travels to par.ForEach by value so the serial path
// allocates nothing beyond the results.
type batchJob struct {
	e      *Estimator
	ctx    context.Context
	batch  []BatchItem
	out    []BatchResult
	chunks int
}

// run selects chunk c of the batch.
func (j batchJob) run(_, c int) error {
	n := len(j.batch)
	lo, hi := c*n/j.chunks, (c+1)*n/j.chunks
	return j.e.selectChunk(j.ctx, j.batch[lo:hi], j.out[lo:hi])
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
