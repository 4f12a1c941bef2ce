package core

import "context"

// Warm-start incremental re-estimation.
//
// A tracked station's angle of arrival moves at most a grid cell or two
// between retrains, so repeating the full coarse-to-fine search on every
// round re-derives what the previous round already knew. Following the
// in-sector compressive tracking of Masoumi et al. (arXiv:2308.13268)
// and the SLS-based local tracking of Grossi et al. (arXiv:1904.12835),
// the warm path skips the coarse pass entirely and scores only the dense
// neighbourhood around the previous argmax cell on the quantized int16
// dictionary: (2R+1)² jointQ evaluations against the full search's
// coarse sweep plus top-K window refinement.
//
// Correctness contract: warm-start may only change cost, never the
// reported selection beyond the quant-vs-float equivalence budget. Three
// guards enforce it, and any failure falls back to the full quantized
// search bit for bit:
//
//   - The hint must unpack to a cell inside the engine's grid (stale
//     hints from a differently-shaped estimator are rejected, not
//     clamped).
//   - The local winner must be strictly interior to the scanned window —
//     an argmax on the window rim means the surface is still rising
//     toward a peak outside the neighbourhood, exactly the case where a
//     local search would track a side lobe. Window edges clamped at the
//     grid boundary count as interior: the dense grid itself ends there.
//   - The winner's score must clear the correlation margin
//     (DefaultWarmMargin × the FallbackCorr threshold): scores between
//     the fallback threshold and the margin are kept on the full search,
//     so warm-start cannot convert a borderline estimate into a
//     different borderline estimate unseen.
//
// The float64 kernel ignores hints entirely — SelectSectorWarm degrades
// to SelectSector — so pinned float golden artifacts are untouched by
// warm-start plumbing.

// Cell names one dense grid cell of an estimator's correlation surface,
// used as the warm-start hint chained from a previous estimate. The zero
// value (NoCell) means "no usable hint"; any other value packs the
// argmax (azimuth, elevation) indices of the estimate that produced it.
// Cells are only meaningful to estimators over the same pattern grid.
type Cell int32

// NoCell is the absent hint: estimation runs the full search.
const NoCell Cell = 0

// cellOf packs dense grid indices into a non-zero Cell.
//
//talon:noalloc
func cellOf(ai, ei int) Cell { return Cell(ei<<16|ai) + 1 }

// split unpacks a Cell into grid indices; ok is false for NoCell.
// Callers must still bounds-check against their own grid.
//
//talon:noalloc
func (c Cell) split() (ai, ei int, ok bool) {
	if c == NoCell {
		return 0, 0, false
	}
	v := int32(c - 1)
	return int(v & 0xffff), int(v >> 16), true
}

// Warm-start defaults.
const (
	// DefaultWarmRadius is the half-width, in dense grid cells per axis,
	// of the warm-start scan window. 4 covers the coarse-to-fine
	// search's refinement window (radius coarseWin = 2) plus two cells of
	// inter-round drift.
	DefaultWarmRadius = 4
	// DefaultWarmMargin scales the FallbackCorr threshold into the
	// warm acceptance margin: local winners below
	// DefaultWarmMargin × FallbackCorr are re-derived by the full
	// search. 1.6 (correlation 0.40 at the default fallback threshold)
	// sits just above the band where the impaired-channel equivalence
	// suite shows local windows capturing side lobes — the one way a
	// local search loses a moving station — while keeping about two
	// thirds of fleet-sim hints on the fast path; every rejection costs
	// a wasted window scan on top of the full sweep, so margins much
	// higher than this make warm-start slower than running cold.
	DefaultWarmMargin = 1.6
)

// warmThreshold is the acceptance bar of the local winner's quantized
// score. It scales with the fallback threshold so disabling the fallback
// (FallbackCorr < 0) also relaxes the warm guard to bare positivity.
func (e *Estimator) warmThreshold() float64 {
	return DefaultWarmMargin * e.opts.fallbackCorr()
}

// warmArgmaxQ scans the dense (2·DefaultWarmRadius+1)² window centred
// on the hint cell on the quantized dictionary and returns its argmax.
// ok is false —
// and the caller must run the full search — when the hint does not fit
// the grid, the window's best score is not positive, fails the margin
// threshold, or sits on a non-grid-edge window rim (see the file comment
// for why rim winners are rejected). The scan is strictly row-major with
// the strictly-greater update, matching every other quantized scan's
// tie-break order.
//
//talon:noalloc
func (en *engine) warmArgmaxQ(qv *quantVec, hint Cell, snrOnly bool, thresh float64) (bestA, bestE int, bestW float64, ok bool) {
	const radius = DefaultWarmRadius
	numAz, numEl := len(en.az), len(en.el)
	ha, he, valid := hint.split()
	if !valid || ha >= numAz || he >= numEl {
		return 0, 0, 0, false
	}
	aLo, aHi := int(clampIdx(ha-radius, numAz)), int(clampIdx(ha+radius, numAz))
	eLo, eHi := int(clampIdx(he-radius, numEl)), int(clampIdx(he+radius, numEl))
	bestW = -1.0
	for ei := eLo; ei <= eHi; ei++ {
		base := ei * numAz * en.stride
		for ai := aLo; ai <= aHi; ai++ {
			v := jointQ(en.dictQ, base+ai*en.stride, qv, snrOnly)
			if v > bestW {
				bestA, bestE, bestW = ai, ei, v
			}
		}
	}
	if bestW <= 0 || bestW < thresh {
		return bestA, bestE, bestW, false
	}
	if (bestA == aLo && aLo > 0) || (bestA == aHi && aHi < numAz-1) ||
		(bestE == eLo && eLo > 0) || (bestE == eHi && eHi < numEl-1) {
		return bestA, bestE, bestW, false
	}
	return bestA, bestE, bestW, true
}

// SelectSectorWarm is SelectSector seeded with the grid cell of a
// previous selection (Selection.AoA.Cell): when the quantized kernel is
// serving estimates and the local window around the hint passes the
// warm guards, the coarse pass is skipped entirely. On any guard failure
// — or with hint == NoCell, or on the float64 kernel — the call is
// bit-identical to SelectSector.
func (e *Estimator) SelectSectorWarm(ctx context.Context, probes []Probe, hint Cell) (Selection, error) {
	metSelectEngine.Inc()
	aoa, err := e.estimate(ctx, probes, hint)
	if err != nil && isCtxErr(err) {
		return Selection{}, err
	}
	return e.finishSelection(probes, aoa, err)
}

// tryWarm runs the warm-start window scan for a hinted estimate and
// counts the hint and its outcome; ok is false for NoCell and on any
// guard failure, leaving the caller to run the full search.
//
//talon:noalloc
func (e *Estimator) tryWarm(qv *quantVec, hint Cell) (bestA, bestE int, bestW float64, ok bool) {
	if hint == NoCell {
		return 0, 0, 0, false
	}
	metWarmHints.Inc()
	bestA, bestE, bestW, ok = e.en.warmArgmaxQ(qv, hint, e.opts.SNROnly, e.warmThreshold())
	if ok {
		metWarmHits.Inc()
	} else {
		metWarmFallbacks.Inc()
	}
	return bestA, bestE, bestW, ok
}

// searchHinted is the quantized search of one gathered estimate: the
// hint's local window first, the full coarse-to-fine search on any guard
// failure.
//
//talon:noalloc
func (e *Estimator) searchHinted(ctx context.Context, g *gatherScratch, hint Cell) (bestA, bestE int, bestW float64, err error) {
	metQuantEstimates.Inc()
	en := e.en
	quantizeGather(g, en.fullQ)
	if bestA, bestE, bestW, ok := e.tryWarm(&g.qv, hint); ok {
		return bestA, bestE, bestW, nil
	}
	var sc *hierScratch
	if len(en.coarseQ) > 0 {
		sc = en.getHierScratch()
		defer en.putHierScratch(sc)
	}
	return en.searchQuant(ctx, sc, &g.qv, e.opts.SNROnly)
}
