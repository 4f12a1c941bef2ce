package core

import (
	"context"
	"math"

	"talon/internal/radio"
)

// Quantized int16 correlation kernel.
//
// The firmware only ever reports quarter-dB SNR clamped to the −7…12 dB
// window (radio.SNRMinDB/SNRMaxDB), so the float64 dictionary carries
// far more precision than any measurement it is correlated against.
// This file quantizes both sides of the Eq. 2 correlation to int16
// fixed-point and replaces the two-pass centered dot product with a
// single pass of int32 moment accumulation:
//
//   - Probe readings are encoded on a sub-quarter-dB lattice
//     (QuantizeProbe: probeStepDB = SNRQuantumDB/4 steps across the
//     hardware window, so every value the hardware can report round-trips
//     exactly) and mapped to linear-amplitude codes through a
//     precomputed table — the per-probe math.Pow of the float path
//     disappears entirely.
//   - Dictionary amplitudes are scaled to [0, quantOne] codes once at
//     newEngine time; NaN (uncovered grid point) becomes the quantMissing
//     sentinel, mirroring the float path's NaN skip.
//   - The Pearson correlation is computed from raw integer moments
//     (n, Σp, Σx, Σpx, Σp², Σx²) accumulated in int32. quantOne is 4095
//     (12 bits) precisely so the moments cannot overflow: with at most
//     quantMaxComponents = 64 components, Σpx ≤ 64·4095² = 1 073 217 600
//     < 2³¹−1 (at the paper's M = 14 operating point the bound is
//     14·4095² ≈ 2.3·10⁸, an order of magnitude of headroom). The final
//     cov²/(varP·varX) combination runs in int64/float64 — the int64
//     cross terms n·Σpx − Σp·Σx are exact.
//
// Pearson correlation is invariant under positive affine maps of either
// vector, so the per-vector dB offset (quantizeVec) and the global
// dictionary scale change nothing but rounding noise. The search — the
// O(grid·M) part — runs entirely on int16 codes; the final estimate is
// then produced by a float epilogue (quantEpilogue) that re-evaluates
// the winning cell and its refinement neighbourhood on the float64
// dictionary, so rounding noise can only move the argmax cell, never the
// reported values at a given cell. The equivalence suite
// (quant_equiv_test.go) gates the residual argmax noise to ≤1% sector
// divergence and one coarse-cell diagonal of AoA drift against the
// exhaustive float64 oracle.
//
// The float64 dictionary always stays resident: it serves the epilogue,
// the exhaustive oracle (KernelFloat64) and the multipath / backup
// searches.
//
// The search is coarse-to-fine, after the idea Rasekh et al. use to make
// compressive path tracking tractable (arXiv:1801.06608): a tiled sweep
// of a decimated coarse grid keeps the top-K positively-correlated
// cells, and only the dense windows around them are rescanned. The
// window radius coarseWin = (DefaultCoarseDecim+1)/2 makes the windows
// of the coarse samples tile the dense grid: consecutive coarse indices
// are at most DefaultCoarseDecim apart (decimateIndices forces the last
// index in), so every dense point lies within coarseWin of some coarse
// sample. When the coarse pass keeps no positive cell at all
// (degenerate or adversarial surfaces) the search falls back to the
// exhaustive quantized scan, keeping the oracle's disaster-guard
// semantics. hier_test.go gates the hierarchy against that exhaustive
// scan.

// Kernel names a correlation-kernel implementation. The name is part of
// the compatibility surface: golden artifacts record which kernel
// produced them, and pinning Options.Kernel reproduces old artifacts
// byte for byte across kernel-default changes.
type Kernel string

const (
	// KernelAuto picks the default kernel (currently KernelQuantInt16).
	KernelAuto Kernel = ""
	// KernelQuantInt16 is the cache-tiled coarse-to-fine int16
	// fixed-point kernel of this file. Estimates are equivalence-gated —
	// not bit-identical — against KernelFloat64.
	KernelQuantInt16 Kernel = "quant-int16-v1"
	// KernelFloat64 is the exhaustive float64 oracle (engine.denseArgmax):
	// a single-threaded scan of every grid point that agrees bit for bit
	// with the serial reference (EstimateAoASerial).
	KernelFloat64 Kernel = "float64-v1"
)

// Defaults of the coarse-to-fine search. DefaultTopK is sized so the
// seeded hierarchical-vs-exhaustive equivalence suite passes while the
// refined point count stays a small fraction of the dense grid (on the
// default 91×9 campaign grid: 72 coarse points + ≤6 windows of ≤5×5
// points ≈ 1/4 of the 819 dense points).
const (
	// DefaultCoarseDecim decimates the coarse grid 4× per axis.
	DefaultCoarseDecim = 4
	// DefaultTopK refines the 6 best coarse cells.
	DefaultTopK = 6
	// coarseWin is the dense radius, per axis, refined around a coarse
	// candidate cell.
	coarseWin = (DefaultCoarseDecim + 1) / 2
)

// Fixed-point geometry.
const (
	// quantBits is the amplitude code width. 12 bits is the largest width
	// whose raw second moments fit int32 at 64 components (see the
	// overflow argument in the file comment).
	quantBits = 12
	// quantOne is the full-scale amplitude code.
	quantOne = 1<<quantBits - 1
	// quantMissing marks dictionary entries the pattern does not cover
	// (the float dictionary's NaN).
	quantMissing = int16(-1)
	// quantMaxComponents caps the correlation components per grid point,
	// mirroring the float kernel's fixed 64-component gather capacity.
	quantMaxComponents = 64

	// probeStepDB subdivides the firmware's quarter-dB reporting quantum
	// 4×, so hardware reports encode losslessly and off-lattice synthetic
	// inputs round-trip within half a sub-step (1/32 dB, well inside the
	// half quarter-dB bound the property suite enforces).
	probeStepDB = radio.SNRQuantumDB / 4
	// ProbeCodeMax is the largest probe code: the top of the −7…12 dB
	// hardware window on the probeStepDB lattice.
	ProbeCodeMax = int16((radio.SNRMaxDB - radio.SNRMinDB) / probeStepDB)
)

// ampCodes maps a probe code to its linear-amplitude fixed-point code:
// round(quantOne · 10^((dB(code) − SNRMaxDB)/20)), so the top of the
// window is full scale and the bottom (19 dB down) is ≈ quantOne/9.
// Precomputed once; the hot path pays one table load per probe instead
// of a math.Pow.
var ampCodes = func() [ProbeCodeMax + 1]int16 {
	var t [ProbeCodeMax + 1]int16
	for c := range t {
		db := radio.SNRMinDB + float64(c)*probeStepDB
		t[c] = int16(math.Round(quantOne * math.Pow(10, (db-radio.SNRMaxDB)/20)))
	}
	return t
}()

// QuantizeProbe encodes a dB reading as a fixed-point code on the
// probeStepDB lattice spanning the firmware's −7…12 dB reporting window,
// saturating at the clamp bounds (exactly like the hardware does). NaN
// encodes as the floor. The codec is monotone: db1 <= db2 implies
// QuantizeProbe(db1) <= QuantizeProbe(db2).
//
//talon:noalloc
func QuantizeProbe(db float64) int16 {
	c := math.Round((db - radio.SNRMinDB) / probeStepDB)
	switch {
	case math.IsNaN(c), c < 0:
		return 0
	case c > float64(ProbeCodeMax):
		return ProbeCodeMax
	}
	return int16(c)
}

// DequantizeProbe decodes a probe code back to dB. Out-of-range codes
// clamp to the window bounds. Round-tripping any in-window dB value
// through QuantizeProbe changes it by at most probeStepDB/2.
//
//talon:noalloc
func DequantizeProbe(code int16) float64 {
	switch {
	case code < 0:
		code = 0
	case code > ProbeCodeMax:
		code = ProbeCodeMax
	}
	return radio.SNRMinDB + float64(code)*probeStepDB
}

// quantizeVec encodes one measurement vector (raw dB readings) as
// amplitude codes, appending to dst. The vector is shifted so its
// maximum lands at the top of the quantization window — Pearson
// correlation is invariant under the shift (a dB offset is a linear
// scale), and the shift is what keeps RSSI vectors (≈ −70 dBm) and
// imputed floor values inside the window. The offset is rounded up to
// the code lattice so lattice-aligned inputs (everything real firmware
// reports) stay lattice-aligned and encode losslessly. Components more
// than 19 dB below the vector maximum saturate at the window floor;
// their linear amplitude is ≤ 1.2% of the maximum, which is also where
// the float kernel's own sensitivity ends.
//
// Components whose sector is absent from the dictionary (cols[i] < 0)
// are excluded from the maximum: the correlation skips them at every
// grid point, but a rogue reading among them (e.g. a probe for an
// unknown sector) would otherwise shift the window and saturate every
// real component to the floor. Their codes still occupy a slot to keep
// dst parallel to cols.
//
//talon:noalloc
func quantizeVec(dst []int16, db []float64, cols []int16) []int16 {
	maxDB := math.Inf(-1)
	for i, v := range db {
		if cols[i] >= 0 && v > maxDB {
			maxDB = v
		}
	}
	off := math.Ceil((maxDB-radio.SNRMaxDB)/probeStepDB) * probeStepDB
	for _, v := range db {
		//lint:allow noalloc -- dst arrives resliced to [:0] from the scratch pool; growth amortizes there
		dst = append(dst, ampCodes[QuantizeProbe(v-off)])
	}
	return dst
}

// buildQuant quantizes the dictionary to int16 codes and builds the
// coarse grid of the hierarchical search; a no-op when the options pin
// the float64 oracle. The global scale maps the loudest dictionary
// amplitude to full scale — Pearson invariance makes the choice free —
// and the coarse codes are row copies of the dense ones, so a grid point
// shared by both quantized dictionaries scores bit-identically. The
// coarse grid is skipped when it would not be smaller than the dense
// one.
func (en *engine) buildQuant(opts Options) {
	if opts.Kernel == KernelFloat64 {
		return
	}
	maxAmp := 0.0
	for _, v := range en.dict {
		if !math.IsNaN(v) && v > maxAmp {
			maxAmp = v
		}
	}
	if maxAmp <= 0 || math.IsInf(maxAmp, 1) {
		// Nothing finite to quantize; estimates stay on the float kernel.
		return
	}
	scale := quantOne / maxAmp
	en.dictQ = make([]int16, len(en.dict))
	en.fullQ = true
	for i, v := range en.dict {
		if math.IsNaN(v) {
			en.dictQ[i] = quantMissing
			en.fullQ = false
			continue
		}
		c := math.Round(v * scale)
		if c > quantOne {
			c = quantOne
		}
		en.dictQ[i] = int16(c)
	}
	numAz, numEl := len(en.az), len(en.el)
	cAz := decimateIndices(numAz, DefaultCoarseDecim)
	cEl := decimateIndices(numEl, DefaultCoarseDecim)
	if len(cAz)*len(cEl) < numAz*numEl {
		en.cAzIdx, en.cElIdx = cAz, cEl
		en.coarseQ = make([]int16, len(cAz)*len(cEl)*en.stride)
		pos := 0
		for _, ei := range cEl {
			for _, ai := range cAz {
				src := (int(ei)*numAz + int(ai)) * en.stride
				copy(en.coarseQ[pos:pos+en.stride], en.dictQ[src:src+en.stride])
				pos += en.stride
			}
		}
		en.hierScratch.New = func() any {
			metScratchMisses.Inc()
			return newHierScratch()
		}
	}
	en.tilePts = tilePoints(en.stride)
	metQuantDictBytes.Set(int64(2 * (len(en.dictQ) + len(en.coarseQ))))
	metQuantTilePoints.Set(int64(en.tilePts))
}

// quant reports whether the quantized kernel is built and serving
// estimates.
func (en *engine) quant() bool { return len(en.dictQ) > 0 }

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

// hierScratch is the pooled per-estimate scratch of the coarse-to-fine
// search: the top-K candidate list and the per-row interval buffers of
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

func newHierScratch() *hierScratch {
	return &hierScratch{
		cells:  make([]int32, DefaultTopK),
		scores: make([]float64, DefaultTopK),
		azLo:   make([]int32, DefaultTopK),
		azHi:   make([]int32, DefaultTopK),
		elLo:   make([]int32, DefaultTopK),
		elHi:   make([]int32, DefaultTopK),
		iv:     make([]ivSpan, 0, DefaultTopK),
	}
}

func (en *engine) getHierScratch() *hierScratch {
	metScratchGets.Inc()
	return en.hierScratch.Get().(*hierScratch)
}

func (en *engine) putHierScratch(sc *hierScratch) { en.hierScratch.Put(sc) }

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

// correlateQ is the quantized twin of one jointIn factor: Eq. 2 over one
// dictionary row, computed from single-pass int32 raw moments instead of
// the float path's two-pass centered form. Component selection mirrors
// the float kernel exactly — skip absent columns, skip quantMissing
// (NaN) entries, cap at quantMaxComponents, fewer than three usable
// components yield 0 — so the two kernels disagree only by rounding.
//
//talon:noalloc
func correlateQ(dictQ []int16, base int, cols []int16, pq []int16) float64 {
	var n, sp, sx, spx, spp, sxx int32
	for i, c := range cols {
		if c < 0 {
			continue
		}
		x := int32(dictQ[base+int(c)])
		if x < 0 {
			continue
		}
		if n >= quantMaxComponents {
			break
		}
		p := int32(pq[i])
		n++
		sp += p
		sx += x
		spx += p * x
		spp += p * p
		sxx += x * x
	}
	if n < 3 {
		return 0
	}
	// n·Σpx − Σp·Σx = n²·cov(p,x); the int64 products are exact.
	cov := int64(n)*int64(spx) - int64(sp)*int64(sx)
	varP := int64(n)*int64(spp) - int64(sp)*int64(sp)
	varX := int64(n)*int64(sxx) - int64(sx)*int64(sx)
	if varP == 0 || varX == 0 {
		return 0
	}
	if cov < 0 {
		// Anti-correlated shapes are no evidence, as in the float kernel.
		return 0
	}
	return float64(cov) * float64(cov) / (float64(varP) * float64(varX))
}

// quantVec is the quantized view of one gathered measurement: the full
// code vectors parallel to the column map (the always-correct path) and,
// when the dictionary has no missing entries, a compacted copy with the
// grid-point-invariant probe moments hoisted out of the sweep.
type quantVec struct {
	cols        []int16 // dictionary column per component; < 0 = absent sector
	snrQ, rssiQ []int16 // amplitude codes, parallel to cols

	// Fast-path view (full dictionaries only): the cols >= 0 components,
	// truncated at quantMaxComponents. With no missing entries the
	// component set is identical at every grid point, so n, Σp and
	// n·Σp² − (Σp)² are per-estimate constants. pack[i] carries both
	// probe codes SWAR-style — SNR in the low half, RSSI in the high
	// half — so one 64-bit multiply-accumulate per component produces
	// both cross moments (see jointQFast).
	full              bool
	colsC             []int32
	pack              []int64
	n                 int32
	snrSp, rssiSp     int32
	snrVarP, rssiVarP int64
}

// compact builds the fast-path view from the full vectors. The
// truncation matches the slow path's component cap: with a full
// dictionary the first quantMaxComponents usable components are the same
// at every grid point.
//
//talon:noalloc
func (qv *quantVec) compact() {
	qv.colsC, qv.pack = qv.colsC[:0], qv.pack[:0]
	var spS, sppS, spR, sppR int32
	for i, c := range qv.cols {
		if c < 0 {
			continue
		}
		if len(qv.colsC) == quantMaxComponents {
			break
		}
		ps, pr := int32(qv.snrQ[i]), int32(qv.rssiQ[i])
		qv.colsC = append(qv.colsC, int32(c))
		qv.pack = append(qv.pack, int64(ps)|int64(pr)<<32)
		spS += ps
		sppS += ps * ps
		spR += pr
		sppR += pr * pr
	}
	n := int32(len(qv.colsC))
	qv.n, qv.snrSp, qv.rssiSp = n, spS, spR
	qv.snrVarP = int64(n)*int64(sppS) - int64(spS)*int64(spS)
	qv.rssiVarP = int64(n)*int64(sppR) - int64(spR)*int64(spR)
}

// jointQ evaluates the joint Eq. 5 correlation at one dictionary base
// offset on the quantized kernel. The w = cov²/(varP·varX) form is
// dimensionless, so quantized scores live on the same [0, 1] scale as
// float ones and the FallbackCorr threshold applies unchanged.
//
//talon:noalloc
func jointQ(dictQ []int16, pt int, qv *quantVec, snrOnly bool) float64 {
	if qv.full {
		return jointQFast(dictQ, pt, qv, snrOnly)
	}
	v := correlateQ(dictQ, pt, qv.cols, qv.snrQ)
	if v != 0 && !snrOnly {
		v *= correlateQ(dictQ, pt, qv.cols, qv.rssiQ)
	}
	return v
}

// jointQFast is jointQ over a full dictionary: one fused sweep of the
// row accumulates the dictionary moments (Σx, Σx²) and both cross
// moments (Σpx for SNR and RSSI), so each int16 code is loaded once for
// the whole Eq. 5 product; the probe-side moments come precomputed from
// compact(). Value-identical to the slow path — same component set,
// same exact int64 centered moments, same float combining order — just
// without the per-component branches and the second pass.
//
// Both accumulators are SWAR pairs: every partial sum that lands in a
// low half is bounded by quantMaxComponents·quantOne² = 64·4095² < 2³¹,
// so the low half can never carry into the high half and the two packed
// running sums stay exact. mom packs Σx² (low) with Σx (high); cross
// packs Σ snr·x (low) with Σ rssi·x (high) via the precomputed pack
// codes. Two 64-bit multiplies per component replace the scalar path's
// three multiplies and four separate accumulators.
//
//talon:noalloc
func jointQFast(dictQ []int16, pt int, qv *quantVec, snrOnly bool) float64 {
	n := qv.n
	if n < 3 {
		return 0
	}
	colsC, pack := qv.colsC, qv.pack
	var mom, cross int64
	for i, c := range colsC {
		x := int64(dictQ[pt+int(c)])
		mom += x * (x | 1<<32)
		cross += x * pack[i]
	}
	sx := int32(mom >> 32)
	sxx := int32(uint32(mom))
	spxS := int32(uint32(cross))
	spxR := int32(cross >> 32)
	varX := int64(n)*int64(sxx) - int64(sx)*int64(sx)
	if varX == 0 || qv.snrVarP == 0 {
		return 0
	}
	cov := int64(n)*int64(spxS) - int64(qv.snrSp)*int64(sx)
	if cov < 0 {
		return 0
	}
	v := float64(cov) * float64(cov) / (float64(qv.snrVarP) * float64(varX))
	if v == 0 || snrOnly {
		return v
	}
	if qv.rssiVarP == 0 {
		return 0
	}
	cov = int64(n)*int64(spxR) - int64(qv.rssiSp)*int64(sx)
	if cov < 0 {
		return 0
	}
	return v * (float64(cov) * float64(cov) / (float64(qv.rssiVarP) * float64(varX)))
}

// coarseTopKQ scores the coarse points [lo, hi) for one probe vector and
// folds the positive ones into the caller's descending top-K
// (cells/scores, kept entries), returning the new kept count. Ties keep
// the earlier row-major cell, and because callers sweep tiles in
// ascending point order the final top-K matches a straight row-major
// scan, whatever the tile geometry. This is the kernel the batch-major
// pass (tile.go) shares across a whole batch per dictionary tile.
//
//talon:noalloc
func (en *engine) coarseTopKQ(lo, hi int, qv *quantVec, snrOnly bool, cells []int32, scores []float64, kept int) int {
	pos := lo * en.stride
	for pt := lo; pt < hi; pt++ {
		v := jointQ(en.coarseQ, pos, qv, snrOnly)
		pos += en.stride
		if v <= 0 {
			continue
		}
		if kept == DefaultTopK && v <= scores[kept-1] {
			continue
		}
		if kept < DefaultTopK {
			kept++
		}
		at := kept - 1
		for at > 0 && v > scores[at-1] {
			scores[at], cells[at] = scores[at-1], cells[at-1]
			at--
		}
		scores[at], cells[at] = v, int32(pt)
	}
	return kept
}

// refineQ rescans the dense windows around the kept coarse candidates on
// the quantized dictionary. Overlapping windows are merged per row, so
// no point is scored twice and the walk stays strictly row-major with
// the strictly-greater update: tie-breaks match the exhaustive scans.
//
//talon:noalloc
func (en *engine) refineQ(ctx context.Context, sc *hierScratch, kept int, qv *quantVec, snrOnly bool) (bestA, bestE int, bestW float64, err error) {
	numAz, numEl := len(en.az), len(en.el)
	nCAz := len(en.cAzIdx)
	for k := 0; k < kept; k++ {
		cell := int(sc.cells[k])
		ai, ei := int(en.cAzIdx[cell%nCAz]), int(en.cElIdx[cell/nCAz])
		sc.azLo[k] = clampIdx(ai-coarseWin, numAz)
		sc.azHi[k] = clampIdx(ai+coarseWin, numAz)
		sc.elLo[k] = clampIdx(ei-coarseWin, numEl)
		sc.elHi[k] = clampIdx(ei+coarseWin, numEl)
	}
	bestA, bestE, bestW = 0, 0, -1.0
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
			return 0, 0, 0, err
		}
		// Insertion-sort the handful of spans by lower bound.
		for i := 1; i < len(iv); i++ {
			for j := i; j > 0 && iv[j].lo < iv[j-1].lo; j-- {
				iv[j], iv[j-1] = iv[j-1], iv[j]
			}
		}
		base := ei * numAz * en.stride
		cursor := -1
		for _, s := range iv {
			lo := int(s.lo)
			if lo <= cursor {
				lo = cursor + 1
			}
			for ai := lo; ai <= int(s.hi); ai++ {
				v := jointQ(en.dictQ, base+ai*en.stride, qv, snrOnly)
				if v > bestW {
					bestA, bestE, bestW = ai, ei, v
				}
			}
			if int(s.hi) > cursor {
				cursor = int(s.hi)
			}
		}
	}
	return bestA, bestE, bestW, nil
}

// searchHierQ runs the coarse-to-fine search on the quantized
// dictionaries: tiled coarse top-K pass, then dense window refinement.
// ok is false when no coarse cell scored positive and the caller must
// fall back to the exhaustive quantized scan (denseArgmaxQ).
//
//talon:noalloc
func (en *engine) searchHierQ(ctx context.Context, sc *hierScratch, qv *quantVec, snrOnly bool) (bestA, bestE int, bestW float64, ok bool, err error) {
	n := len(en.cAzIdx) * len(en.cElIdx)
	kept := 0
	for lo := 0; lo < n; lo += en.tilePts {
		if err := ctx.Err(); err != nil {
			return 0, 0, 0, false, err
		}
		hi := lo + en.tilePts
		if hi > n {
			hi = n
		}
		kept = en.coarseTopKQ(lo, hi, qv, snrOnly, sc.cells, sc.scores, kept)
	}
	if kept == 0 {
		return 0, 0, 0, false, nil
	}
	bestA, bestE, bestW, err = en.refineQ(ctx, sc, kept, qv, snrOnly)
	if err != nil {
		return 0, 0, 0, false, err
	}
	return bestA, bestE, bestW, true, nil
}

// denseArgmaxQ is the exhaustive quantized scan: every dense grid point
// in row-major order with the strictly-greater update, so tie-breaks
// match the float oracle's denseArgmax.
//
//talon:noalloc
func (en *engine) denseArgmaxQ(ctx context.Context, qv *quantVec, snrOnly bool) (bestA, bestE int, bestW float64, err error) {
	numAz, numEl := len(en.az), len(en.el)
	bestW = -1.0
	for ei := 0; ei < numEl; ei++ {
		if err := ctx.Err(); err != nil {
			return 0, 0, 0, err
		}
		base := ei * numAz * en.stride
		for ai := 0; ai < numAz; ai++ {
			v := jointQ(en.dictQ, base+ai*en.stride, qv, snrOnly)
			if v > bestW {
				bestA, bestE, bestW = ai, ei, v
			}
		}
	}
	return bestA, bestE, bestW, nil
}

// searchQuant picks the quantized search for one probe vector:
// hierarchical when the coarse dictionary exists (with the exhaustive
// fallback on an all-nonpositive coarse pass), exhaustive otherwise.
// sc may be nil when the grid is too small for a coarse pass.
//
//talon:noalloc
func (en *engine) searchQuant(ctx context.Context, sc *hierScratch, qv *quantVec, snrOnly bool) (bestA, bestE int, bestW float64, err error) {
	if len(en.coarseQ) > 0 {
		var ok bool
		bestA, bestE, bestW, ok, err = en.searchHierQ(ctx, sc, qv, snrOnly)
		if err != nil || ok {
			return bestA, bestE, bestW, err
		}
		metQuantFallbacks.Inc()
	}
	return en.denseArgmaxQ(ctx, qv, snrOnly)
}

// quantizeGather encodes the gathered dB vectors into the scratch's
// quantVec and, over full dictionaries, builds its compacted fast-path
// view.
//
//talon:noalloc
func quantizeGather(g *gatherScratch, full bool) {
	qv := &g.qv
	qv.cols = g.cols
	qv.snrQ = quantizeVec(qv.snrQ[:0], g.snrDB, g.cols)
	qv.rssiQ = quantizeVec(qv.rssiQ[:0], g.rssiDB, g.cols)
	qv.full = full
	if full {
		qv.compact()
	}
}

// ampTab spans [-120, 40] dB on the quarter-dB lattice — every SNR or
// RSSI value real firmware reports, plus their minus-one imputations.
const (
	ampTabLoDB = -120.0
	ampTabN    = 641 // (40 − (−120)) × 4 + 1 quarter-dB steps
)

// ampTab caches amp() on the lattice. Entries are computed with amp()
// itself, so a table hit is bit-identical to the live call.
var ampTab = func() [ampTabN]float64 {
	var t [ampTabN]float64
	for i := range t {
		t[i] = amp(ampTabLoDB + float64(i)*0.25)
	}
	return t
}()

// ampCached is amp() with the lattice served from ampTab. Quarter-dB
// multiples subtract and scale exactly in binary (0.25 = 2⁻²), so the
// lattice test is an exact float comparison and off-lattice or
// out-of-range values fall through to the live math.Pow.
//
//talon:noalloc
func ampCached(db float64) float64 {
	i := (db - ampTabLoDB) * 4
	if i >= 0 && i <= ampTabN-1 {
		if j := int(i); i == float64(j) {
			return ampTab[j]
		}
	}
	return amp(db)
}
