// Package pattern represents measured antenna radiation patterns: gain (or
// SNR) values sampled on an azimuth × elevation grid, exactly as produced by
// the paper's anechoic-chamber campaign.
//
// Samples may be missing (encoded as NaN) where no frame was decodable; the
// package provides the same post-processing the paper applies before using
// patterns: outlier removal, gap interpolation and averaging over repeated
// measurement runs. Lookup between grid points uses bilinear interpolation.
package pattern

import (
	"fmt"
	"math"

	"talon/internal/geom"
)

// Pattern is a gain map over a geom.Grid. Values are in dB (the paper
// stores SNR in dB; only relative shape matters for correlation). Missing
// samples are NaN.
type Pattern struct {
	grid *geom.Grid
	// gain[e][a] holds the value at elevation index e, azimuth index a.
	gain [][]float64
}

// New creates a pattern on grid with all samples missing (NaN).
func New(grid *geom.Grid) *Pattern {
	p := &Pattern{grid: grid, gain: make([][]float64, grid.NumEl())}
	for e := range p.gain {
		row := make([]float64, grid.NumAz())
		for a := range row {
			row[a] = math.NaN()
		}
		p.gain[e] = row
	}
	return p
}

// FromFunc samples f(az, el) on every grid point.
func FromFunc(grid *geom.Grid, f func(az, el float64) float64) *Pattern {
	p := New(grid)
	for e, el := range grid.El() {
		for a, az := range grid.Az() {
			p.gain[e][a] = f(az, el)
		}
	}
	return p
}

// Grid returns the sampling grid.
func (p *Pattern) Grid() *geom.Grid { return p.grid }

// Set stores v at the grid indices (azIdx, elIdx).
func (p *Pattern) Set(azIdx, elIdx int, v float64) { p.gain[elIdx][azIdx] = v }

// AtIndex returns the raw sample at the grid indices (azIdx, elIdx).
func (p *Pattern) AtIndex(azIdx, elIdx int) float64 { return p.gain[elIdx][azIdx] }

// Flat returns a copy of the samples in elevation-major order: the sample
// at (azIdx, elIdx) lands at index elIdx*NumAz()+azIdx. Missing samples
// stay NaN. The flat layout feeds precomputed correlation dictionaries.
func (p *Pattern) Flat() []float64 {
	numAz := p.grid.NumAz()
	out := make([]float64, numAz*p.grid.NumEl())
	for e, row := range p.gain {
		copy(out[e*numAz:], row)
	}
	return out
}

// Point is a direction located on a grid: the indices of the grid
// sample at its lower corner and its fractional position toward the
// next sample on each axis. Locate brackets the direction once; AtPoint
// then evaluates any pattern on that grid there, so a scan over a whole
// codebook toward one direction pays for one bracket instead of one per
// sector.
type Point struct {
	a, e   int
	at, et float64
}

// Locate brackets the direction (az, el) degrees on grid. Coordinates
// outside the grid are clamped to its edges.
//
//talon:noalloc
func Locate(grid *geom.Grid, az, el float64) Point {
	a, at := geom.Bracket(grid.Az(), az)
	e, et := geom.Bracket(grid.El(), el)
	return Point{a: a, e: e, at: at, et: et}
}

// At returns the bilinearly interpolated value at (az, el) degrees.
// Coordinates outside the grid are clamped to its edges. If any of the four
// surrounding samples is missing, the nearest valid neighbour among them is
// used; if all are missing the result is NaN.
func (p *Pattern) At(az, el float64) float64 { return p.AtPoint(Locate(p.grid, az, el)) }

// AtPoint is At at a direction already located on the pattern's grid (or
// on an equal one, such as the shared grid of a Set).
//
//talon:noalloc
func (p *Pattern) AtPoint(pt Point) float64 {
	// On a single-sample axis Bracket returns index 0, and the upper
	// corner collapses onto the lower one.
	lo, hi := p.gain[pt.e], p.gain[min(pt.e+1, len(p.gain)-1)]
	a1 := min(pt.a+1, len(lo)-1)
	v00, v01 := lo[pt.a], lo[a1]
	v10, v11 := hi[pt.a], hi[a1]
	if hasNaN(v00, v01, v10, v11) {
		return nearestValid(pt.at, pt.et, v00, v01, v10, v11)
	}
	l := v00*(1-pt.at) + v01*pt.at
	h := v10*(1-pt.at) + v11*pt.at
	return l*(1-pt.et) + h*pt.et
}

func hasNaN(v00, v01, v10, v11 float64) bool {
	return v00 != v00 || v01 != v01 || v10 != v10 || v11 != v11
}

// nearestValid picks the valid corner closest (in parameter space) to the
// query point (at, et).
func nearestValid(at, et float64, v00, v01, v10, v11 float64) float64 {
	type corner struct {
		a, e float64
		v    float64
	}
	corners := []corner{
		{0, 0, v00}, {1, 0, v01}, {0, 1, v10}, {1, 1, v11},
	}
	best, bestDist := math.NaN(), math.Inf(1)
	for _, c := range corners {
		if math.IsNaN(c.v) {
			continue
		}
		d := (c.a-at)*(c.a-at) + (c.e-et)*(c.e-et)
		if d < bestDist {
			best, bestDist = c.v, d
		}
	}
	return best
}

// Peak returns the grid point with the maximum valid sample, and its value.
// It returns NaN coordinates if the pattern has no valid sample.
func (p *Pattern) Peak() (az, el, gain float64) {
	az, el, gain = math.NaN(), math.NaN(), math.Inf(-1)
	found := false
	for e, elv := range p.grid.El() {
		for a, azv := range p.grid.Az() {
			v := p.gain[e][a]
			if !math.IsNaN(v) && v > gain {
				az, el, gain = azv, elv, v
				found = true
			}
		}
	}
	if !found {
		return math.NaN(), math.NaN(), math.NaN()
	}
	return az, el, gain
}

// Missing returns the number of missing (NaN) samples.
func (p *Pattern) Missing() int {
	n := 0
	for _, row := range p.gain {
		for _, v := range row {
			if math.IsNaN(v) {
				n++
			}
		}
	}
	return n
}

// Clone returns a deep copy of the pattern (sharing the immutable grid).
func (p *Pattern) Clone() *Pattern {
	q := &Pattern{grid: p.grid, gain: make([][]float64, len(p.gain))}
	for e, row := range p.gain {
		q.gain[e] = append([]float64(nil), row...)
	}
	return q
}

// MaxGain returns the maximum valid sample value, or NaN when empty.
func (p *Pattern) MaxGain() float64 {
	_, _, g := p.Peak()
	return g
}

// MeanGain returns the mean over valid samples, or NaN when empty.
func (p *Pattern) MeanGain() float64 {
	sum, n := 0.0, 0
	for _, row := range p.gain {
		for _, v := range row {
			if !math.IsNaN(v) {
				sum += v
				n++
			}
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Directivity is a crude shape metric: peak minus mean gain in dB. High
// values indicate a strongly directional sector, values near zero a flat
// (quasi-omni) one.
func (p *Pattern) Directivity() float64 { return p.MaxGain() - p.MeanGain() }

// AzimuthCut returns the gain row at the elevation sample nearest to el.
// The returned slice must not be modified.
func (p *Pattern) AzimuthCut(el float64) []float64 {
	return p.gain[geom.Nearest(p.grid.El(), el)]
}

// String implements fmt.Stringer with a short summary.
func (p *Pattern) String() string {
	az, el, g := p.Peak()
	return fmt.Sprintf("pattern %dx%d peak %.1f dB @ (%.1f°, %.1f°), %d missing",
		p.grid.NumAz(), p.grid.NumEl(), g, az, el, p.Missing())
}
