package core

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"talon/internal/pattern"
	"talon/internal/sector"
)

// engine is the precomputed correlation engine behind EstimateAoA: a
// flat, cache-friendly [gridPoint][sector] dictionary of linear pattern
// amplitudes, built once per Estimator. The serial reference path
// locates every grid point and runs a bilinear Pattern.AtPoint plus
// math.Pow for every probed sector there, on every estimate; the engine
// pays that cost exactly once at construction, so the grid search
// reduces to centered dot products over contiguous slices. Grid rows
// (elevations) are sharded across a GOMAXPROCS-sized worker pool, and
// per-call scratch (correlation surface, probe column map) is recycled
// through sync.Pools.
type engine struct {
	az, el []float64
	stride int        // dense dictionary columns per grid point
	cols   [256]int16 // sector ID -> dense column, -1 when absent
	// dict holds the linear amplitude of every sector at every grid
	// point, laid out [(ei*numAz+ai)*stride + col]; NaN marks points the
	// pattern does not cover. Values are amp(Pattern.AtPoint(pt)) — the
	// exact quantity the serial reference computes per call — so both
	// paths agree bit for bit.
	dict []float64

	// Hierarchical coarse-to-fine search (see hier.go). coarse is a
	// contiguous decimated copy of dict covering only the grid points
	// (cElIdx[ci], cAzIdx[cj]), laid out [(ci*len(cAzIdx)+cj)*stride +
	// col]. Empty when the hierarchy is disabled (ExactSearch, tiny
	// grids, decimation < 2), in which case every estimate runs the
	// exhaustive dense search.
	coarse []float64
	cAzIdx []int32 // dense az index of each coarse grid column
	cElIdx []int32 // dense el index of each coarse grid row
	winAz  int     // dense az radius refined around a candidate cell
	winEl  int     // dense el radius refined around a candidate cell
	topK   int     // coarse candidate cells refined per estimate

	// Quantized int16 kernel (see quant.go / tile.go). dictQ and coarseQ
	// are fixed-point twins of dict and coarse ([0, quantOne] amplitude
	// codes, quantMissing for NaN); empty when the options pin the
	// float64 kernel or the dictionary has no finite entry. tilePts is
	// the L1 tile size of the coarse sweeps, in grid points; fullQ marks
	// a dictionary with no missing entries, enabling the fused
	// hoisted-moment sweep (jointQFast).
	dictQ   []int16
	coarseQ []int16
	tilePts int
	fullQ   bool

	surfaces     sync.Pool // *[]float64 of len numAz*numEl
	colBufs      sync.Pool // *[]int16 probe->column scratch
	hierScratch  sync.Pool // *hierScratch (see hier.go)
	batchScratch sync.Pool // *quantBatchScratch (see tile.go)
}

// newEngine precomputes the dictionary from the pattern set. Returns nil
// when the set is empty (the estimator then has nothing to search).
func newEngine(set *pattern.Set, opts Options) *engine {
	grid := set.Grid()
	if grid == nil {
		return nil
	}
	buildStart := time.Now() //lint:allow determinism -- dictionary-build histogram reads the wall clock by design
	defer metDictBuildSeconds.ObserveSince(buildStart)
	ids := set.IDs()
	en := &engine{
		az:     grid.Az(),
		el:     grid.El(),
		stride: len(ids),
	}
	for i := range en.cols {
		en.cols[i] = -1
	}
	for col, id := range ids {
		en.cols[id] = int16(col)
	}
	numAz, numEl := len(en.az), len(en.el)
	en.dict = make([]float64, numAz*numEl*en.stride)
	pats := make([]*pattern.Pattern, len(ids))
	for col, id := range ids {
		pats[col] = set.Get(id)
	}
	for ei, el := range en.el {
		for ai, az := range en.az {
			pt := pattern.Locate(grid, az, el)
			row := en.dict[(ei*numAz+ai)*en.stride:][:en.stride]
			for col, p := range pats {
				row[col] = math.NaN()
				if g := p.AtPoint(pt); !math.IsNaN(g) {
					row[col] = amp(g)
				}
			}
		}
	}
	size := numAz * numEl
	en.surfaces.New = func() any {
		metScratchMisses.Inc()
		s := make([]float64, size)
		return &s
	}
	en.colBufs.New = func() any {
		metScratchMisses.Inc()
		s := make([]int16, 0, 64)
		return &s
	}
	en.batchScratch.New = func() any {
		metScratchMisses.Inc()
		return &quantBatchScratch{}
	}
	en.buildCoarse(opts)
	en.buildQuant(opts)
	return en
}

// buildCoarse precomputes the decimated coarse dictionary of the
// hierarchical search (hier.go) by copying every decim-th grid point out
// of the dense dictionary. The last dense index of each axis is always
// included so the refinement windows (radius (decim+1)/2) of the coarse
// samples tile the whole dense grid. The hierarchy is skipped entirely —
// leaving every estimate on the exhaustive dense search — when the
// options demand exactness or the coarse grid would not actually be
// smaller than the dense one.
func (en *engine) buildCoarse(opts Options) {
	if opts.ExactSearch {
		return
	}
	decim := opts.CoarseDecim
	if decim == 0 {
		decim = DefaultCoarseDecim
	}
	topK := opts.TopK
	if topK == 0 {
		topK = DefaultTopK
	}
	if decim < 2 || topK < 1 {
		return
	}
	numAz, numEl := len(en.az), len(en.el)
	cAz := decimateIndices(numAz, decim)
	cEl := decimateIndices(numEl, decim)
	if len(cAz)*len(cEl) >= numAz*numEl {
		return
	}
	en.cAzIdx, en.cElIdx = cAz, cEl
	en.winAz = (decim + 1) / 2
	en.winEl = (decim + 1) / 2
	en.topK = topK
	en.coarse = make([]float64, len(cAz)*len(cEl)*en.stride)
	pos := 0
	for _, ei := range cEl {
		for _, ai := range cAz {
			src := (int(ei)*numAz + int(ai)) * en.stride
			copy(en.coarse[pos:pos+en.stride], en.dict[src:src+en.stride])
			pos += en.stride
		}
	}
	en.hierScratch.New = func() any {
		metScratchMisses.Inc()
		return newHierScratch(topK)
	}
}

// hier reports whether the hierarchical coarse-to-fine search is built.
func (en *engine) hier() bool { return len(en.coarse) > 0 }

// decimateIndices returns every decim-th index of [0, n) plus the last
// index, so consecutive selected indices are at most decim apart and the
// axis endpoints are always sampled.
func decimateIndices(n, decim int) []int32 {
	out := make([]int32, 0, n/decim+2)
	for i := 0; i < n; i += decim {
		out = append(out, int32(i))
	}
	if last := int32(n - 1); len(out) == 0 || out[len(out)-1] != last {
		out = append(out, last)
	}
	return out
}

// getSurface returns a pooled numAz*numEl correlation surface. Contents
// are stale; fill overwrites every entry, other users must zero it.
func (en *engine) getSurface() *[]float64 {
	metScratchGets.Inc()
	return en.surfaces.Get().(*[]float64)
}

func (en *engine) putSurface(s *[]float64) { en.surfaces.Put(s) }

// probeCols maps probe sector IDs to dense dictionary columns (-1 for
// sectors absent from the set, mirroring the serial path's nil-pattern
// skip). The returned slice comes from a pool; release with putCols.
func (en *engine) probeCols(ids []sector.ID) *[]int16 {
	metScratchGets.Inc()
	buf := en.colBufs.Get().(*[]int16)
	cols := (*buf)[:0]
	for _, id := range ids {
		cols = append(cols, en.cols[id])
	}
	*buf = cols
	return buf
}

func (en *engine) putCols(buf *[]int16) { en.colBufs.Put(buf) }

// jointIn evaluates the joint Eq. 5 correlation at one base offset of a
// dictionary (the dense dict or the decimated coarse copy). Every
// engine search scores through it, so the grid points they share score
// bit-identically. It is Estimator.correlate on SNR times on RSSI, with
// a dictionary read for the pattern lookup. The components
// (present columns with a non-NaN entry, at most 64) depend only on the
// dictionary, so both factors share one selection, x̄ and Σdx²; the
// second walk re-reads them instead of buffering. Every accumulator
// keeps the serial order, so each factor is bit-identical to its own
// correlate call; an exactly-0 SNR factor makes the RSSI one moot.
func jointIn(dict []float64, base int, cols []int16, snrLin, rssiLin []float64, snrOnly bool) float64 {
	used := 0
	var sumS, sumR, sumX float64
	for i, c := range cols {
		if c < 0 {
			continue
		}
		x := dict[base+int(c)]
		if x != x {
			continue
		}
		if used == 64 {
			break
		}
		sumS += snrLin[i]
		sumR += rssiLin[i]
		sumX += x
		used++
	}
	if used < 3 {
		return 0
	}
	n := float64(used)
	meanS, meanR, meanX := sumS/n, sumR/n, sumX/n
	var dotS, nmS, dotR, nmR, nx float64
	for i, k := 0, 0; k < used; i++ {
		c := cols[i]
		if c < 0 {
			continue
		}
		x := dict[base+int(c)]
		if x != x {
			continue
		}
		ds, dr, dx := snrLin[i]-meanS, rssiLin[i]-meanR, x-meanX
		dotS += ds * dx
		nmS += ds * ds
		nx += dx * dx
		dotR += dr * dx
		nmR += dr * dr
		k++
	}
	v := pearsonSq(dotS, nmS, nx)
	if v != 0 && !snrOnly {
		v *= pearsonSq(dotR, nmR, nx)
	}
	return v
}

// pearsonSq is Eq. 2 from its centered sums; 0 if flat or anti-correlated.
func pearsonSq(dot, nm, nx float64) float64 {
	if nm == 0 || nx == 0 || dot < 0 {
		return 0
	}
	return dot * dot / (nm * nx)
}

// fillRow computes one elevation row of the joint correlation surface.
func (en *engine) fillRow(w []float64, ei int, cols []int16, snrLin, rssiLin []float64, snrOnly bool) {
	numAz := len(en.az)
	row := w[ei*numAz : (ei+1)*numAz]
	base := ei * numAz * en.stride
	for ai := range row {
		row[ai] = jointIn(en.dict, base+ai*en.stride, cols, snrLin, rssiLin, snrOnly)
	}
}

// fill computes the whole surface, sharding elevation rows across a
// worker pool sized to GOMAXPROCS (further bounded by SetMaxShards and,
// when maxW > 0, by maxW — the batch path passes 1 so batch workers are
// the only parallelism). Rows are independent, so the result is
// identical to the serial row order regardless of scheduling. Workers
// observe ctx between rows; on cancellation the surface contents are
// unspecified and ctx.Err() is returned.
func (en *engine) fill(ctx context.Context, w []float64, cols []int16, snrLin, rssiLin []float64, snrOnly bool, maxW int) error {
	numEl := len(en.el)
	workers := runtime.GOMAXPROCS(0)
	if ms := MaxShards(); ms > 0 && workers > ms {
		workers = ms
	}
	if maxW > 0 && workers > maxW {
		workers = maxW
	}
	if workers > numEl {
		workers = numEl
	}
	if workers <= 1 {
		for ei := 0; ei < numEl; ei++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			en.fillRow(w, ei, cols, snrLin, rssiLin, snrOnly)
		}
		return nil
	}
	metRowsSharded.Add(int64(numEl))
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ei := int(next.Add(1)) - 1
				if ei >= numEl || ctx.Err() != nil {
					return
				}
				en.fillRow(w, ei, cols, snrLin, rssiLin, snrOnly)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// argmax scans the flat surface in the serial path's row-major order
// (elevation outer, azimuth inner, strictly-greater update) so ties
// break identically.
func (en *engine) argmax(w []float64) (bestA, bestE int, bestW float64) {
	numAz := len(en.az)
	bestW = -1.0
	for idx, v := range w {
		if v > bestW {
			bestA, bestE, bestW = idx%numAz, idx/numAz, v
		}
	}
	return bestA, bestE, bestW
}
