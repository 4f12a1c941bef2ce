package core

import "context"

// Batch-major quantized selection.
//
// The per-item batch path walks the whole coarse dictionary once per
// item: with 64 items the dictionary is streamed from memory 64 times.
// The batch-major pass inverts the loops — dictionary tile outer, batch
// item inner — so one L1-resident tile of int16 codes serves every item
// of a worker's chunk before the next tile is touched (the access shape
// of a blocked GEMM, with coarseTopKQ's int32 accumulation as the inner
// product). Tiles are contiguous row-major point ranges and coarseTopKQ
// folds them in ascending order, so each item's top-K is identical to
// the single-item row-major scan: per-item results are bit-identical to
// SelectSector, preserving the batch contract at any worker count.

// tileBytes is the dictionary tile budget: half a typical 32 KiB L1D,
// leaving room for the probe vectors and top-K state of the items
// sharing the tile.
const tileBytes = 16 << 10

// tilePoints returns how many grid points of stride int16 codes fit one
// tile.
func tilePoints(stride int) int {
	pts := tileBytes / (2 * stride)
	if pts < 8 {
		pts = 8
	}
	return pts
}

// quantItem is the per-item state of one batch-major selection.
type quantItem struct {
	g    gatherScratch
	sc   *hierScratch
	used int
	kept int
	done bool // result already written in phase 1 (gather error or warm hit)
}

// quantBatchScratch holds one worker chunk's items; pooled on the engine
// so steady-state batches allocate nothing.
type quantBatchScratch struct {
	items []quantItem
}

// grow ensures capacity for n items with top-K candidate scratch.
func (bs *quantBatchScratch) grow(n int) {
	for len(bs.items) < n {
		bs.items = append(bs.items, quantItem{sc: newHierScratch()})
	}
}

func (en *engine) getBatchScratch() *quantBatchScratch {
	metScratchGets.Inc()
	return en.batchScratch.Get().(*quantBatchScratch)
}

func (en *engine) putBatchScratch(bs *quantBatchScratch) { en.batchScratch.Put(bs) }

// quantChunk runs one contiguous chunk: gather and quantize every item,
// resolve warm-hinted items from their local windows, sweep the coarse
// dictionary tiles once for the remainder of the chunk, then refine and
// finish each remaining item.
//
//talon:noalloc
func (e *Estimator) quantChunk(ctx context.Context, batch []BatchItem, out []BatchResult) error {
	en := e.en
	n := len(batch)
	snrOnly := e.opts.SNROnly
	bs := en.getBatchScratch()
	defer en.putBatchScratch(bs)
	bs.grow(n)
	items := bs.items[:n]

	// Phase 1: gather + quantize each item's probe vector. Items that
	// fail the gather — and hinted items whose local window passes the
	// warm guards (see warm.go) — are finished here and skip the shared
	// sweep entirely.
	live := 0
	for i := range items {
		it := &items[i]
		metSelectEngine.Inc()
		metEstimates.Inc()
		metQuantEstimates.Inc()
		it.kept, it.done = 0, false
		var err error
		it.used, err = e.gather(&it.g, batch[i].Probes)
		if err != nil {
			sel, serr := e.finishSelection(batch[i].Probes, AoAEstimate{}, err)
			out[i] = BatchResult{Selection: sel, Err: serr}
			it.done = true
			continue
		}
		quantizeGather(&it.g, en.fullQ)
		if bestA, bestE, _, ok := e.tryWarm(&it.g.qv, batch[i].Hint); ok {
			aoa := e.epilogue(&it.g, bestA, bestE, it.used)
			sel, serr := e.finishSelection(batch[i].Probes, aoa, nil)
			out[i] = BatchResult{Selection: sel, Err: serr}
			it.done = true
			continue
		}
		live++
	}

	// Phase 2: shared tiled coarse sweep — every live item folds the
	// current tile into its top-K while the tile is cache-hot.
	if live > 0 {
		nPts := len(en.cAzIdx) * len(en.cElIdx)
		for lo := 0; lo < nPts; lo += en.tilePts {
			if err := ctx.Err(); err != nil {
				return err
			}
			metQuantBatchTiles.Inc()
			hi := min(lo+en.tilePts, nPts)
			for i := range items {
				it := &items[i]
				if it.done {
					continue
				}
				it.kept = en.coarseTopKQ(lo, hi, &it.g.qv, snrOnly, it.sc.cells, it.sc.scores, it.kept)
			}
		}
	}

	// Phase 3: per-item dense refinement (or exhaustive fallback) and
	// sector selection. Items finished in phase 1 already wrote out[i].
	for i := range items {
		it := &items[i]
		if it.done {
			continue
		}
		var bestA, bestE int
		var bestW float64
		var err error
		if it.kept == 0 {
			if len(en.coarseQ) > 0 {
				metQuantFallbacks.Inc()
			}
			bestA, bestE, bestW, err = en.denseArgmaxQ(ctx, &it.g.qv, snrOnly)
		} else {
			bestA, bestE, bestW, err = en.refineQ(ctx, it.sc, it.kept, &it.g.qv, snrOnly)
		}
		if err != nil {
			return err
		}
		if bestW <= 0 {
			metDegenerate.Inc()
			sel, serr := e.finishSelection(batch[i].Probes, AoAEstimate{}, errDegenerate)
			out[i] = BatchResult{Selection: sel, Err: serr}
			continue
		}
		aoa := e.epilogue(&it.g, bestA, bestE, it.used)
		sel, serr := e.finishSelection(batch[i].Probes, aoa, nil)
		out[i] = BatchResult{Selection: sel, Err: serr}
	}
	return nil
}
