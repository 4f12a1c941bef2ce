package geom

import (
	"fmt"
	"math"
)

// Grid is a rectangular sampling grid over azimuth × elevation, in degrees.
// Both axes are strictly ascending. Grids are immutable after construction.
type Grid struct {
	az []float64
	el []float64
}

// NewGrid builds a grid from explicit axis samples. Axes must be non-empty
// and strictly ascending.
func NewGrid(az, el []float64) (*Grid, error) {
	if err := checkAxis("azimuth", az); err != nil {
		return nil, err
	}
	if err := checkAxis("elevation", el); err != nil {
		return nil, err
	}
	g := &Grid{az: append([]float64(nil), az...), el: append([]float64(nil), el...)}
	return g, nil
}

// UniformGrid builds a grid with uniform steps covering [azMin, azMax] and
// [elMin, elMax] inclusive. Steps must be positive. The maxima are included
// when they land on a step boundary (within a small tolerance).
func UniformGrid(azMin, azMax, azStep, elMin, elMax, elStep float64) (*Grid, error) {
	az, err := axisRange(azMin, azMax, azStep)
	if err != nil {
		return nil, fmt.Errorf("azimuth axis: %w", err)
	}
	el, err := axisRange(elMin, elMax, elStep)
	if err != nil {
		return nil, fmt.Errorf("elevation axis: %w", err)
	}
	return NewGrid(az, el)
}

func axisRange(lo, hi, step float64) ([]float64, error) {
	if step <= 0 {
		return nil, fmt.Errorf("step %v must be positive", step)
	}
	if hi < lo {
		return nil, fmt.Errorf("range [%v, %v] is empty", lo, hi)
	}
	n := int(math.Floor((hi-lo)/step + 1e-9))
	out := make([]float64, 0, n+1)
	for i := 0; i <= n; i++ {
		out = append(out, lo+float64(i)*step)
	}
	return out, nil
}

func checkAxis(name string, v []float64) error {
	if len(v) == 0 {
		return fmt.Errorf("%s axis is empty", name)
	}
	for i := 1; i < len(v); i++ {
		if v[i] <= v[i-1] {
			return fmt.Errorf("%s axis not strictly ascending at index %d (%v then %v)", name, i, v[i-1], v[i])
		}
	}
	return nil
}

// Az returns the azimuth axis samples. The returned slice must not be
// modified.
func (g *Grid) Az() []float64 { return g.az }

// El returns the elevation axis samples. The returned slice must not be
// modified.
func (g *Grid) El() []float64 { return g.el }

// NumAz returns the number of azimuth samples.
func (g *Grid) NumAz() int { return len(g.az) }

// NumEl returns the number of elevation samples.
func (g *Grid) NumEl() int { return len(g.el) }

// Size returns the total number of grid points.
func (g *Grid) Size() int { return len(g.az) * len(g.el) }

// Equal reports whether two grids have identical axes.
func (g *Grid) Equal(o *Grid) bool {
	if g == o {
		return true
	}
	if o == nil || len(g.az) != len(o.az) || len(g.el) != len(o.el) {
		return false
	}
	for i := range g.az {
		if g.az[i] != o.az[i] {
			return false
		}
	}
	for i := range g.el {
		if g.el[i] != o.el[i] {
			return false
		}
	}
	return true
}

// Bracket locates v on axis. It returns the lower index i and the fraction
// t in [0, 1] such that v ≈ axis[i]*(1-t) + axis[i+1]*t. Values outside the
// axis are clamped to the ends.
//
// The search is O(1) on uniform axes: linear interpolation between the
// axis ends guesses i, and a walk corrects the guess to the largest
// i ≤ n-2 with axis[i] ≤ v — the index a binary search would find, so
// any strictly ascending axis gets the same (i, t), only more slowly
// the further it is from uniform.
func Bracket(axis []float64, v float64) (i int, t float64) {
	n := len(axis)
	if n == 1 || v <= axis[0] {
		return 0, 0
	}
	if v >= axis[n-1] {
		return n - 2, 1
	}
	// Clamp the guess as a float: converting NaN (a NaN v) or an
	// out-of-range value to int is implementation-defined.
	g := (v - axis[0]) / (axis[n-1] - axis[0]) * float64(n-1)
	switch {
	case !(g > 0):
		g = 0
	case g > float64(n-2):
		g = float64(n - 2)
	}
	i = int(g)
	for i > 0 && axis[i] > v {
		i--
	}
	for i < n-2 && axis[i+1] <= v {
		i++
	}
	den := axis[i+1] - axis[i]
	if den == 0 {
		return i, 0
	}
	return i, (v - axis[i]) / den
}

// Nearest returns the index of the axis sample closest to v.
func Nearest(axis []float64, v float64) int {
	i, t := Bracket(axis, v)
	if len(axis) == 1 {
		return 0
	}
	if t > 0.5 {
		return i + 1
	}
	return i
}
