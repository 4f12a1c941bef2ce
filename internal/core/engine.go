package core

import (
	"context"
	"math"
	"sync"
	"time"

	"talon/internal/pattern"
)

// engine is the precomputed correlation engine behind EstimateAoA: a
// flat, cache-friendly [gridPoint][sector] dictionary of linear pattern
// amplitudes, built once per Estimator. The serial reference path
// locates every grid point and runs a bilinear Pattern.AtPoint plus
// math.Pow for every probed sector there, on every estimate; the engine
// pays that cost exactly once at construction, so the grid search
// reduces to centered dot products over contiguous slices.
//
// Two kernels search it. The production one is the quantized int16
// kernel (quant.go, tile.go, warm.go); the float64 dictionary itself
// serves the exhaustive oracle (KernelFloat64, one single-threaded
// row-major scan that agrees bit for bit with EstimateAoASerial), the
// float epilogue of both kernels and the multipath search.
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

	// Quantized int16 kernel (see quant.go / tile.go). dictQ is the
	// fixed-point twin of dict ([0, quantOne] amplitude codes,
	// quantMissing for NaN); empty when the options pin the float64
	// kernel or the dictionary has no finite entry. tilePts is the L1
	// tile size of the coarse sweeps, in grid points; fullQ marks a
	// dictionary with no missing entries, enabling the fused
	// hoisted-moment sweep (jointQFast).
	dictQ   []int16
	tilePts int
	fullQ   bool

	// Coarse-to-fine search of the quantized kernel (see quant.go).
	// coarseQ is a contiguous copy of the dictQ rows at the grid points
	// (cElIdx[ci], cAzIdx[cj]), laid out [(ci*len(cAzIdx)+cj)*stride +
	// col]. Empty on grids too small for the coarse pass to save work,
	// in which case every quantized estimate scans the dense grid.
	coarseQ []int16
	cAzIdx  []int32 // dense az index of each coarse grid column
	cElIdx  []int32 // dense el index of each coarse grid row

	hierScratch  sync.Pool // *hierScratch (see quant.go)
	batchScratch sync.Pool // *quantBatchScratch (see tile.go)
}

// newEngine precomputes the dictionary from the pattern set, which
// NewEstimator has checked to hold at least two patterns.
func newEngine(set *pattern.Set, opts Options) *engine {
	buildStart := time.Now() //lint:allow determinism -- dictionary-build histogram reads the wall clock by design
	defer metDictBuildSeconds.ObserveSince(buildStart)
	grid := set.Grid()
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
	en.batchScratch.New = func() any {
		metScratchMisses.Inc()
		return &quantBatchScratch{}
	}
	en.buildQuant(opts)
	return en
}

// jointIn evaluates the joint Eq. 5 correlation at one base offset of
// the float64 dictionary. The oracle scan, the float epilogue and the
// multipath search all score through it, so the grid points they share
// score bit-identically. It is Estimator.correlate on SNR times on
// RSSI, with a dictionary read for the pattern lookup. The components
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

// denseArgmax is the exhaustive float64 oracle: every dense grid point
// scored with jointIn in the serial path's row-major order (elevation
// outer, azimuth inner, strictly-greater update), so the argmax and its
// tie-breaks match EstimateAoASerial bit for bit. No surface is
// materialized — the epilogue re-evaluates the few neighbours the
// refinement needs. ctx is observed between grid rows.
func (en *engine) denseArgmax(ctx context.Context, cols []int16, snrLin, rssiLin []float64, snrOnly bool) (bestA, bestE int, bestW float64, err error) {
	numAz, numEl := len(en.az), len(en.el)
	bestW = -1.0
	for ei := 0; ei < numEl; ei++ {
		if err := ctx.Err(); err != nil {
			return 0, 0, 0, err
		}
		base := ei * numAz * en.stride
		for ai := 0; ai < numAz; ai++ {
			v := jointIn(en.dict, base+ai*en.stride, cols, snrLin, rssiLin, snrOnly)
			if v > bestW {
				bestA, bestE, bestW = ai, ei, v
			}
		}
	}
	return bestA, bestE, bestW, nil
}
