package pattern

import (
	"math"
	"math/rand"
	"testing"

	"talon/internal/geom"
	"talon/internal/sector"
)

// bracketOracle is geom.Bracket as it was before the interpolated
// search: a plain binary search.
func bracketOracle(axis []float64, v float64) (int, float64) {
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

// atOracle is the Pattern.At body from before Locate/AtPoint existed:
// the reference every located-point lookup must match bit for bit.
func atOracle(p *Pattern, az, el float64) float64 {
	ai, at := bracketOracle(p.grid.Az(), az)
	ei, et := bracketOracle(p.grid.El(), el)
	a2, e2 := ai, ei
	if p.grid.NumAz() > 1 {
		a2 = ai + 1
	}
	if p.grid.NumEl() > 1 {
		e2 = ei + 1
	}
	v00 := p.gain[ei][ai]
	v01 := p.gain[ei][a2]
	v10 := p.gain[e2][ai]
	v11 := p.gain[e2][a2]
	if math.IsNaN(v00) || math.IsNaN(v01) || math.IsNaN(v10) || math.IsNaN(v11) {
		return nearestValid(at, et, v00, v01, v10, v11)
	}
	lo := v00*(1-at) + v01*at
	hi := v10*(1-at) + v11*at
	return lo*(1-et) + hi*et
}

// bestOracle is the Set.BestSector scan from before the TX lookup: per
// sector, in ascending ID order, one full At (and bracket) each.
func bestOracle(s *Set, az, el float64) (sector.ID, float64) {
	best, bestGain := sector.RX, math.Inf(-1)
	found := false
	for _, id := range s.TXIDs() {
		g := atOracle(s.Get(id), az, el)
		if math.IsNaN(g) {
			continue
		}
		if g > bestGain {
			best, bestGain = id, g
			found = true
		}
	}
	if !found {
		return sector.RX, math.NaN()
	}
	return best, bestGain
}

// holeySet builds a TX codebook on grid whose NaN holes give grid cells
// with one, two and four missing corners, plus an exact duplicate
// pattern (a tie Best must resolve to the lower ID) and an all-missing
// pattern. Holes are placed only where the grid has room for them.
func holeySet(t testing.TB, grid *geom.Grid) *Set {
	t.Helper()
	nA, nE := grid.NumAz(), grid.NumEl()
	hole := func(p *Pattern, a, e int) {
		if a < nA && e < nE {
			p.Set(a, e, math.NaN())
		}
	}
	s := NewSet()
	put := func(id sector.ID, p *Pattern) {
		if err := s.Put(id, p); err != nil {
			t.Fatal(err)
		}
	}
	one := FromFunc(grid, func(az, el float64) float64 { return 10 - math.Abs(az-3)/4 - el/5 })
	hole(one, 1, 1)
	two := FromFunc(grid, func(az, el float64) float64 { return 9 - math.Abs(az+4)/3 + el/7 })
	hole(two, 3, 2)
	hole(two, 4, 2)
	four := FromFunc(grid, func(az, el float64) float64 { return 11 - math.Hypot(az, el-4)/2 })
	for _, c := range [][2]int{{5, 0}, {6, 0}, {5, 1}, {6, 1}, {0, 3}, {0, 4}} {
		hole(four, c[0], c[1])
	}
	put(sector.RX, FromFunc(grid, func(az, el float64) float64 { return 0 }))
	put(2, one)
	put(5, two)
	put(7, four)
	put(9, one.Clone()) // ties sector 2 everywhere
	put(12, New(grid))  // all missing
	return s
}

// probeDirections returns every grid node, the quarter points between
// nodes, clamped out-of-grid directions and the non-finite ones.
func probeDirections(grid *geom.Grid) [][2]float64 {
	quarters := func(axis []float64) []float64 {
		out := append([]float64(nil), axis...)
		for i := 1; i < len(axis); i++ {
			for _, f := range []float64{0.25, 0.5, 0.75} {
				out = append(out, axis[i-1]+f*(axis[i]-axis[i-1]))
			}
		}
		lo, hi := axis[0], axis[len(axis)-1]
		return append(out, lo-7, hi+7, math.Nextafter(hi, math.Inf(1)),
			math.NaN(), math.Inf(1), math.Inf(-1))
	}
	var dirs [][2]float64
	for _, az := range quarters(grid.Az()) {
		for _, el := range quarters(grid.El()) {
			dirs = append(dirs, [2]float64{az, el})
		}
	}
	return dirs
}

func lookupGrids(t testing.TB) map[string]*geom.Grid {
	mk := func(az, el []float64) *geom.Grid {
		g, err := geom.NewGrid(az, el)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	return map[string]*geom.Grid{
		"9x5":     mustGrid(t, -10, 10, 2.5, 0, 8, 2),
		"1xN":     mk([]float64{4}, []float64{0, 2, 4, 6, 8}),
		"Nx1":     mk([]float64{-10, -7.5, -5, 0, 2.5, 5, 10}, []float64{3}),
		"1x1":     mk([]float64{0}, []float64{0}),
		"uneven":  mk([]float64{-9, -8.5, -3, 0, 0.25, 7}, []float64{-1, 0, 5, 5.5, 9}),
		"2x2":     mk([]float64{-1, 1}, []float64{0, 1}),
		"wide1.8": mustGrid(t, -90, 90, 1.8, 0, 32.4, 3.6),
	}
}

// checkLookup compares AtPoint(Locate), At and Best against the oracles
// at one direction, bit for bit.
func checkLookup(t *testing.T, s *Set, az, el float64) {
	t.Helper()
	bits := math.Float64bits
	pt := Locate(s.Grid(), az, el)
	samePoint := func(a, b Point) bool {
		return a.a == b.a && a.e == b.e && bits(a.at) == bits(b.at) && bits(a.et) == bits(b.et)
	}
	if tp := s.TX().Locate(az, el); !samePoint(tp, pt) {
		t.Fatalf("(%v, %v): TXLookup.Locate %+v != Locate %+v", az, el, tp, pt)
	}
	for _, id := range s.IDs() {
		p := s.Get(id)
		want := atOracle(p, az, el)
		if got := p.AtPoint(pt); bits(got) != bits(want) {
			t.Fatalf("sector %v at (%v, %v): AtPoint = %v, oracle %v", id, az, el, got, want)
		}
		if got := p.At(az, el); bits(got) != bits(want) {
			t.Fatalf("sector %v at (%v, %v): At = %v, oracle %v", id, az, el, got, want)
		}
	}
	wantID, wantGain := bestOracle(s, az, el)
	if id, g := s.TX().Best(pt); id != wantID || bits(g) != bits(wantGain) {
		t.Fatalf("(%v, %v): Best = (%v, %v), oracle (%v, %v)", az, el, id, g, wantID, wantGain)
	}
	if id, g := s.BestSector(az, el); id != wantID || bits(g) != bits(wantGain) {
		t.Fatalf("(%v, %v): BestSector = (%v, %v), oracle (%v, %v)", az, el, id, g, wantID, wantGain)
	}
}

// TestLocatedLookupMatchesOracle pins the located-point lookup to the
// pre-change Pattern.At and BestSector bit for bit: on grid nodes and
// between them, clamped outside the grid, at cells with one, two and
// four missing corners, on 1×N, N×1 and non-uniform grids, and at NaN
// and ±Inf directions.
func TestLocatedLookupMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for name, grid := range lookupGrids(t) {
		t.Run(name, func(t *testing.T) {
			s := holeySet(t, grid)
			for _, d := range probeDirections(grid) {
				checkLookup(t, s, d[0], d[1])
			}
			az, el := grid.Az(), grid.El()
			for k := 0; k < 500; k++ {
				checkLookup(t, s,
					az[0]-5+(az[len(az)-1]-az[0]+10)*rng.Float64(),
					el[0]-5+(el[len(el)-1]-el[0]+10)*rng.Float64())
			}
		})
	}
}

// TestLocatedLookupCornerCounts makes sure the holey codebook really
// exercises the NaN-corner branches it claims to: some direction sees
// exactly one, two and four missing corners of some pattern.
func TestLocatedLookupCornerCounts(t *testing.T) {
	grid := lookupGrids(t)["9x5"]
	s := holeySet(t, grid)
	seen := map[int]bool{}
	for _, d := range probeDirections(grid) {
		pt := Locate(grid, d[0], d[1])
		for _, id := range []sector.ID{2, 5, 7} {
			p := s.Get(id)
			n := 0
			for _, v := range []float64{p.gain[pt.e][pt.a], p.gain[pt.e][pt.a+1], p.gain[pt.e+1][pt.a], p.gain[pt.e+1][pt.a+1]} {
				if math.IsNaN(v) {
					n++
				}
			}
			seen[n] = true
		}
	}
	for _, n := range []int{1, 2, 4} {
		if !seen[n] {
			t.Errorf("no direction sees exactly %d missing corners", n)
		}
	}
}

func TestTXLookupView(t *testing.T) {
	s := holeySet(t, lookupGrids(t)["9x5"])
	tx := s.TX()
	want := []sector.ID{2, 5, 7, 9, 12}
	if len(tx.IDs()) != len(want) || len(tx.Patterns()) != len(want) {
		t.Fatalf("TX view holds %v (%d patterns), want %v", tx.IDs(), len(tx.Patterns()), want)
	}
	for i, id := range want {
		if tx.IDs()[i] != id || tx.Patterns()[i] != s.Get(id) {
			t.Fatalf("TX view entry %d = (%v, %p), want (%v, %p)", i, tx.IDs()[i], tx.Patterns()[i], id, s.Get(id))
		}
	}
	// Sector 9 duplicates sector 2: the tie goes to the lower ID.
	if id, g := s.BestSector(0, 0); id != 2 || g != 9.25 {
		t.Fatalf("BestSector(0, 0) = (%v, %v), want (2, 9.25)", id, g)
	}
	clone := s.Clone()
	if clone.TX().Patterns()[0] == tx.Patterns()[0] {
		t.Fatal("clone's TX view points at the original's patterns")
	}
	if id, g := NewSet().BestSector(0, 0); id != sector.RX || !math.IsNaN(g) {
		t.Fatalf("empty set BestSector = (%v, %v), want (RX, NaN)", id, g)
	}
}

// TestLookupZeroAlloc guards the Eq. 4 scan's allocation contract.
func TestLookupZeroAlloc(t *testing.T) {
	s := holeySet(t, lookupGrids(t)["wide1.8"])
	tx := s.TX()
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		pt := tx.Locate(12.3, 7.7)
		_, g := tx.Best(pt)
		sink += g + s.Get(5).AtPoint(pt)
		_, g = s.BestSector(-40, 3)
		sink += g
	})
	if allocs != 0 {
		t.Fatalf("Locate/AtPoint/Best allocate %.1f times per call, want 0", allocs)
	}
	_ = sink
}

// FuzzLocate checks AtPoint(Locate) and Best against the oracles at
// arbitrary directions, non-finite ones included.
func FuzzLocate(f *testing.F) {
	for _, seed := range [][2]float64{{0, 0}, {-10, 8}, {1.25, 3}, {-3.75, 1}, {-50, 50}, {math.NaN(), 2}, {3, math.Inf(-1)}} {
		f.Add(seed[0], seed[1], uint8(0))
	}
	grids := lookupGrids(f)
	names := []string{"9x5", "1xN", "Nx1", "1x1", "uneven", "2x2", "wide1.8"}
	sets := make([]*Set, len(names))
	for i, name := range names {
		sets[i] = holeySet(f, grids[name])
	}
	f.Fuzz(func(t *testing.T, az, el float64, which uint8) {
		checkLookup(t, sets[int(which)%len(sets)], az, el)
	})
}
