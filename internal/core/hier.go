package core

import (
	"context"
	"time"
)

// Hierarchical coarse-to-fine grid search.
//
// The exhaustive search scores every dense grid point (numAz × numEl
// correlations per estimate). Following the coarse-to-fine idea Rasekh
// et al. (HotMobile'17) use to make compressive path tracking tractable,
// the hierarchical search first scores a decimated coarse grid, keeps
// the top-K positively-correlated cells, and rescans only the dense
// windows around those cells. The window radius (decim+1)/2 is chosen so
// the windows of the coarse samples tile the dense grid: consecutive
// coarse indices are at most decim apart (decimateIndices forces the
// last index in), so every dense point lies within (decim+1)/2 of some
// coarse sample. Whenever the true dense argmax sits in a window that
// ranks among the top-K coarse cells — which the equivalence suite shows
// holds for essentially all realistic probe vectors — the result is bit
// identical to the exhaustive search: both paths score shared points via
// jointIn, scan candidates in the dense row-major order, and
// break ties by the same strictly-greater rule.
//
// When the coarse pass finds no positive cell at all (degenerate or
// adversarial surfaces), the caller falls back to the exhaustive dense
// search, so hierarchical mode never loses the disaster-guard semantics
// of the exact path.

// Defaults of the hierarchical search. DefaultTopK is sized so the
// seeded hierarchical-vs-exhaustive equivalence suite passes while the
// refined point count stays a small fraction of the dense grid (on the
// default 91×9 campaign grid: 72 coarse points + ≤6 windows of ≤5×5
// points ≈ 1/4 of the 819 dense points).
const (
	// DefaultCoarseDecim decimates the coarse grid 4× per axis.
	DefaultCoarseDecim = 4
	// DefaultTopK refines the 6 best coarse cells.
	DefaultTopK = 6
)

// hierScratch is the pooled per-estimate scratch of the hierarchical
// search: the top-K candidate heap and the per-row interval buffers of
// the refinement scan. All slices are allocated once at full capacity.
type hierScratch struct {
	cells  []int32   // candidate coarse flat indices, descending score
	scores []float64 // candidate scores, parallel to cells
	azLo   []int32   // candidate dense windows
	azHi   []int32
	elLo   []int32
	elHi   []int32
	iv     []ivSpan // az interval merge buffer for one dense row
}

// ivSpan is one inclusive dense-az interval of the refinement scan.
type ivSpan struct{ lo, hi int32 }

func newHierScratch(topK int) *hierScratch {
	return &hierScratch{
		cells:  make([]int32, topK),
		scores: make([]float64, topK),
		azLo:   make([]int32, topK),
		azHi:   make([]int32, topK),
		elLo:   make([]int32, topK),
		elHi:   make([]int32, topK),
		iv:     make([]ivSpan, 0, topK),
	}
}

func (en *engine) getHierScratch() *hierScratch {
	metScratchGets.Inc()
	return en.hierScratch.Get().(*hierScratch)
}

func (en *engine) putHierScratch(sc *hierScratch) { en.hierScratch.Put(sc) }

// searchHier runs the two-level search and returns the dense argmax. ok
// is false — with the other results unspecified — when the coarse pass
// found no positively-correlated cell and the caller must fall back to
// the exhaustive dense search. ctx is observed between grid rows.
func (en *engine) searchHier(ctx context.Context, cols []int16, snrLin, rssiLin []float64, snrOnly bool) (bestA, bestE int, bestW float64, ok bool, err error) {
	sc := en.getHierScratch()
	defer en.putHierScratch(sc)

	// Coarse pass: score every decimated grid point, keeping the top-K
	// positive cells sorted by descending score (ties keep the earlier
	// row-major cell first, for determinism).
	coarseStart := time.Now() //lint:allow determinism -- coarse-pass latency histogram reads the wall clock by design
	nCAz, nCEl := len(en.cAzIdx), len(en.cElIdx)
	cells, scores := sc.cells, sc.scores
	kept := 0
	pos := 0
	for ci := 0; ci < nCEl; ci++ {
		if err := ctx.Err(); err != nil {
			return 0, 0, 0, false, err
		}
		for cj := 0; cj < nCAz; cj++ {
			v := jointIn(en.coarse, pos, cols, snrLin, rssiLin, snrOnly)
			pos += en.stride
			if v <= 0 {
				continue
			}
			if kept == en.topK && v <= scores[kept-1] {
				continue
			}
			if kept < en.topK {
				kept++
			}
			at := kept - 1
			for at > 0 && v > scores[at-1] {
				scores[at], cells[at] = scores[at-1], cells[at-1]
				at--
			}
			scores[at], cells[at] = v, int32(ci*nCAz+cj)
		}
	}
	metHierCoarseSeconds.ObserveSince(coarseStart)
	if kept == 0 {
		return 0, 0, 0, false, nil
	}

	// Refinement: rescan the dense windows around the candidates in
	// row-major order. Overlapping windows are merged per row so no
	// point is scored twice and the scan order stays strictly row-major.
	refineStart := time.Now() //lint:allow determinism -- refinement latency histogram reads the wall clock by design
	metHierCellsRefined.Add(int64(kept))
	numAz, numEl := len(en.az), len(en.el)
	for k := 0; k < kept; k++ {
		cell := int(cells[k])
		ai, ei := int(en.cAzIdx[cell%nCAz]), int(en.cElIdx[cell/nCAz])
		sc.azLo[k] = clampIdx(ai-en.winAz, numAz)
		sc.azHi[k] = clampIdx(ai+en.winAz, numAz)
		sc.elLo[k] = clampIdx(ei-en.winEl, numEl)
		sc.elHi[k] = clampIdx(ei+en.winEl, numEl)
	}
	bestA, bestE, bestW = 0, 0, -1.0
	scored := 0
	for ei := 0; ei < numEl; ei++ {
		iv := sc.iv[:0]
		for k := 0; k < kept; k++ {
			if sc.elLo[k] <= int32(ei) && int32(ei) <= sc.elHi[k] {
				iv = append(iv, ivSpan{sc.azLo[k], sc.azHi[k]})
			}
		}
		if len(iv) == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return 0, 0, 0, false, err
		}
		// Insertion-sort the handful of spans by lower bound.
		for i := 1; i < len(iv); i++ {
			for j := i; j > 0 && iv[j].lo < iv[j-1].lo; j-- {
				iv[j], iv[j-1] = iv[j-1], iv[j]
			}
		}
		base := ei * numAz * en.stride
		cursor := -1 // last dense az index scanned in this row
		for _, s := range iv {
			lo := int(s.lo)
			if lo <= cursor {
				lo = cursor + 1
			}
			for ai := lo; ai <= int(s.hi); ai++ {
				v := jointIn(en.dict, base+ai*en.stride, cols, snrLin, rssiLin, snrOnly)
				scored++
				if v > bestW {
					bestA, bestE, bestW = ai, ei, v
				}
			}
			if int(s.hi) > cursor {
				cursor = int(s.hi)
			}
		}
	}
	metHierRefineSeconds.ObserveSince(refineStart)
	if total := numAz * numEl; total > 0 {
		metHierPruningRatio.Set(1 - float64(scored)/float64(total))
	}
	// Every candidate window contains its own coarse sample, so bestW is
	// at least the best (positive) coarse score: the hierarchical path
	// never reports a degenerate surface of its own.
	return bestA, bestE, bestW, true, nil
}

// clampIdx clamps i into [0, n).
func clampIdx(i, n int) int32 {
	if i < 0 {
		return 0
	}
	if i >= n {
		return int32(n - 1)
	}
	return int32(i)
}
