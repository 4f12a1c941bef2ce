package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUniformGrid(t *testing.T) {
	g, err := UniformGrid(-180, 179.1, 0.9, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumAz() != 400 {
		t.Fatalf("NumAz = %d, want 400", g.NumAz())
	}
	if g.NumEl() != 1 {
		t.Fatalf("NumEl = %d, want 1", g.NumEl())
	}
	if g.Az()[0] != -180 || !almostEq(g.Az()[399], 179.1, 1e-9) {
		t.Fatalf("axis ends: %v .. %v", g.Az()[0], g.Az()[399])
	}
	if g.Size() != 400 {
		t.Fatalf("Size = %d", g.Size())
	}
}

func TestUniformGridPaperCampaigns(t *testing.T) {
	// The 3D campaign: azimuth ±90° at 1.8°, elevation 0–32.4° at 3.6°.
	g, err := UniformGrid(-90, 90, 1.8, 0, 32.4, 3.6)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumAz() != 101 {
		t.Fatalf("NumAz = %d, want 101", g.NumAz())
	}
	if g.NumEl() != 10 {
		t.Fatalf("NumEl = %d, want 10", g.NumEl())
	}
}

func TestUniformGridErrors(t *testing.T) {
	if _, err := UniformGrid(0, 10, 0, 0, 0, 1); err == nil {
		t.Error("zero azimuth step accepted")
	}
	if _, err := UniformGrid(0, 10, 1, 0, 0, -1); err == nil {
		t.Error("negative elevation step accepted")
	}
	if _, err := UniformGrid(10, 0, 1, 0, 0, 1); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(nil, []float64{0}); err == nil {
		t.Error("empty azimuth axis accepted")
	}
	if _, err := NewGrid([]float64{0, 0}, []float64{0}); err == nil {
		t.Error("non-ascending azimuth axis accepted")
	}
	if _, err := NewGrid([]float64{1, 0}, []float64{0}); err == nil {
		t.Error("descending azimuth axis accepted")
	}
}

func TestGridEqual(t *testing.T) {
	a, _ := NewGrid([]float64{0, 1}, []float64{0})
	b, _ := NewGrid([]float64{0, 1}, []float64{0})
	c, _ := NewGrid([]float64{0, 2}, []float64{0})
	if !a.Equal(b) || !a.Equal(a) {
		t.Error("equal grids not Equal")
	}
	if a.Equal(c) || a.Equal(nil) {
		t.Error("unequal grids reported Equal")
	}
}

func TestBracket(t *testing.T) {
	axis := []float64{0, 1, 3, 7}
	cases := []struct {
		v     float64
		wantI int
		wantT float64
	}{
		{-1, 0, 0}, {0, 0, 0}, {0.5, 0, 0.5}, {1, 1, 0}, {2, 1, 0.5},
		{5, 2, 0.5}, {7, 2, 1}, {9, 2, 1},
	}
	for _, c := range cases {
		i, tt := Bracket(axis, c.v)
		if i != c.wantI || !almostEq(tt, c.wantT, 1e-12) {
			t.Errorf("Bracket(%v) = (%d, %v), want (%d, %v)", c.v, i, tt, c.wantI, c.wantT)
		}
	}
}

func TestBracketSingleton(t *testing.T) {
	i, tt := Bracket([]float64{5}, 99)
	if i != 0 || tt != 0 {
		t.Fatalf("Bracket singleton = (%d, %v)", i, tt)
	}
}

func TestBracketReconstructionProperty(t *testing.T) {
	axis := []float64{-10, -4, 0, 0.5, 2, 8, 33}
	f := func(v float64) bool {
		if v < axis[0] {
			v = axis[0]
		}
		if v > axis[len(axis)-1] {
			v = axis[len(axis)-1]
		}
		i, tt := Bracket(axis, v)
		rec := axis[i]*(1-tt) + axis[i+1]*tt
		return almostEq(rec, v, 1e-9) && tt >= 0 && tt <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNearest(t *testing.T) {
	axis := []float64{0, 1, 3}
	cases := []struct {
		v    float64
		want int
	}{{-5, 0}, {0.4, 0}, {0.6, 1}, {1.9, 1}, {2.5, 2}, {10, 2}}
	for _, c := range cases {
		if got := Nearest(axis, c.v); got != c.want {
			t.Errorf("Nearest(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	if got := Nearest([]float64{7}, -3); got != 0 {
		t.Errorf("Nearest singleton = %d", got)
	}
}

// bracketBinary is the binary-search Bracket the interpolated search
// replaced, kept as the oracle of TestBracketMatchesBinarySearch.
func bracketBinary(axis []float64, v float64) (int, float64) {
	n := len(axis)
	if n == 1 || v <= axis[0] {
		return 0, 0
	}
	if v >= axis[n-1] {
		return n - 2, 1
	}
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if axis[mid] <= v {
			lo = mid
		} else {
			hi = mid
		}
	}
	den := axis[hi] - axis[lo]
	if den == 0 {
		return lo, 0
	}
	return lo, (v - axis[lo]) / den
}

// TestBracketMatchesBinarySearch checks that the interpolated search
// returns the binary search's (i, t) bit for bit on strictly ascending
// axes of every shape — uniform (the grids the code uses), uniform
// built by accumulation (rounding drift), geometric and randomly
// clustered — at and around every node, between nodes, outside the
// axis and at NaN and ±Inf.
func TestBracketMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	axes := [][]float64{{5}, {-1, 2}}
	for _, n := range []int{2, 3, 10, 101, 400} {
		uni, acc, geo, clu := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		x, c := -90.0, -3.0
		for i := range uni {
			uni[i] = -90 + float64(i)*1.8
			acc[i] = x
			x += 1.8
			geo[i] = math.Pow(1.3, float64(i))
			clu[i] = c
			c += math.Pow(10, -6+8*rng.Float64())
		}
		axes = append(axes, uni, acc, geo, clu)
	}
	check := func(axis []float64, v float64) {
		gi, gt := Bracket(axis, v)
		wi, wt := bracketBinary(axis, v)
		if gi != wi || math.Float64bits(gt) != math.Float64bits(wt) {
			t.Fatalf("Bracket(len %d axis [%v..%v], %v) = (%d, %v), binary search gives (%d, %v)",
				len(axis), axis[0], axis[len(axis)-1], v, gi, gt, wi, wt)
		}
	}
	for _, axis := range axes {
		lo, hi := axis[0], axis[len(axis)-1]
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), lo - 1, hi + 1} {
			check(axis, v)
		}
		for _, a := range axis {
			check(axis, a)
			check(axis, math.Nextafter(a, math.Inf(1)))
			check(axis, math.Nextafter(a, math.Inf(-1)))
		}
		span := hi - lo
		for k := 0; k < 2000; k++ {
			check(axis, lo-0.1*span+1.2*span*rng.Float64())
		}
	}
}
