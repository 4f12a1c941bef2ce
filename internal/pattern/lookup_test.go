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

// bestFullScan is TXLookup.Best from before the candidate index: every
// TX pattern read at pt, in ascending ID order.
func bestFullScan(l *TXLookup, pt Point) (sector.ID, float64) {
	best, bestGain := sector.RX, math.Inf(-1)
	found := false
	for i, p := range l.pats {
		g := p.AtPoint(pt)
		if g > bestGain { // false for NaN
			best, bestGain = l.ids[i], g
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
	if id, g := bestFullScan(s.TX(), pt); id != wantID || bits(g) != bits(wantGain) {
		t.Fatalf("(%v, %v): full scan = (%v, %v), oracle (%v, %v)", az, el, id, g, wantID, wantGain)
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

// edgeSet is holeySet plus the cases the candidate index must not
// break: sectors one ulp above and below sector 2 everywhere (near-ties
// on both sides of the winner), a +Inf and a -Inf sample, and a sector
// that is missing except for one sample.
func edgeSet(t testing.TB, grid *geom.Grid) *Set {
	t.Helper()
	s := holeySet(t, grid)
	nudge := func(p *Pattern, to float64) *Pattern {
		out := p.Clone()
		for _, row := range out.gain {
			for i, v := range row {
				row[i] = math.Nextafter(v, to)
			}
		}
		return out
	}
	put := func(id sector.ID, p *Pattern) {
		if err := s.Put(id, p); err != nil {
			t.Fatal(err)
		}
	}
	nA, nE := grid.NumAz(), grid.NumEl()
	put(14, nudge(s.Get(2), math.Inf(1)))
	put(15, nudge(s.Get(2), math.Inf(-1)))
	posInf := s.Get(7).Clone()
	posInf.Set(nA/2, nE/2, math.Inf(1))
	put(20, posInf)
	negInf := s.Get(5).Clone()
	negInf.Set(nA-1, 0, math.Inf(-1))
	put(21, negInf)
	lone := New(grid)
	lone.Set(0, nE-1, 30)
	put(22, lone)
	return s
}

// TestTXBestMatchesFullScan pins the candidate-indexed Best and
// BestSector to the full ascending scan bit for bit: on grid nodes, cell edges and between
// them, clamped outside the grid, at NaN and ±Inf directions, on cells
// with one, two and four missing corners, with all-missing sectors,
// ±Inf samples, exact ties and ties within one ulp, on 1×N and N×1
// grids.
func TestTXBestMatchesFullScan(t *testing.T) {
	bits := math.Float64bits
	rng := rand.New(rand.NewSource(5))
	for name, grid := range lookupGrids(t) {
		t.Run(name, func(t *testing.T) {
			s := edgeSet(t, grid)
			tx := s.TX()
			check := func(az, el float64) {
				pt := tx.Locate(az, el)
				wantID, wantGain := bestFullScan(tx, pt)
				if id, g := tx.Best(pt); id != wantID || bits(g) != bits(wantGain) {
					t.Fatalf("(%v, %v): Best = (%v, %v), full scan (%v, %v)", az, el, id, g, wantID, wantGain)
				}
				if id, g := s.BestSector(az, el); id != wantID || bits(g) != bits(wantGain) {
					t.Fatalf("(%v, %v): BestSector = (%v, %v), full scan (%v, %v)", az, el, id, g, wantID, wantGain)
				}
			}
			for _, d := range probeDirections(grid) {
				check(d[0], d[1])
			}
			az, el := grid.Az(), grid.El()
			for k := 0; k < 500; k++ {
				check(az[0]-5+(az[len(az)-1]-az[0]+10)*rng.Float64(),
					el[0]-5+(el[len(el)-1]-el[0]+10)*rng.Float64())
			}
		})
	}
}

// TestTXBestRoundingTie pins the candidate margin: over a 2×2 grid,
// sector 3 is flat at x and sector 4 flat one ulp higher, so 3's corners
// all lie below 4's, yet at this point the rounded bilinear blends tie
// and the full scan's first-of-equal-maxima rule picks sector 3. An
// index without slack would have dropped it.
func TestTXBestRoundingTie(t *testing.T) {
	const x = 7.093205759592392
	const az, el = 0.9405090880450124, 0.6645600532184904
	grid := lookupGrids(t)["2x2"]
	s := NewSet()
	for id, v := range map[sector.ID]float64{3: x, 4: math.Nextafter(x, 8)} {
		if err := s.Put(id, FromFunc(grid, func(float64, float64) float64 { return v })); err != nil {
			t.Fatal(err)
		}
	}
	tx := s.TX()
	pt := tx.Locate(az, el)
	if g3, g4 := s.Get(3).AtPoint(pt), s.Get(4).AtPoint(pt); g3 != g4 {
		t.Fatalf("blends %v and %v no longer tie; pick another point", g3, g4)
	}
	if id, g := tx.Best(pt); id != 3 || g != s.Get(3).AtPoint(pt) {
		t.Fatalf("Best = (%v, %v), want sector 3 on the tie", id, g)
	}
}

// TestTXCandidateIndex checks the index's shape: every list ascending,
// no all-missing sector listed, every sector listed in a cell with an
// infinite corner, and on a smooth codebook of overlapping beams far
// fewer candidates per cell than sectors.
func TestTXCandidateIndex(t *testing.T) {
	grid := lookupGrids(t)["wide1.8"]
	s := edgeSet(t, grid)
	tx := s.TX()
	nA, nE := grid.NumAz(), grid.NumEl()
	for e := 0; e < nE-1; e++ {
		for a := 0; a < nA-1; a++ {
			cand := tx.candidates(Point{a: a, e: e})
			for k, i := range cand {
				if k > 0 && i <= cand[k-1] {
					t.Fatalf("cell (%d, %d): candidates %v not ascending", a, e, cand)
				}
				if tx.ids[i] == 12 {
					t.Fatalf("cell (%d, %d): all-missing sector 12 is a candidate", a, e)
				}
			}
			if a <= nA/2 && nA/2 <= a+1 && e <= nE/2 && nE/2 <= e+1 {
				sampled := 0
				for _, p := range tx.pats {
					if !math.IsNaN(nearestValid(0, 0, p.gain[e][a], p.gain[e][a+1], p.gain[e+1][a], p.gain[e+1][a+1])) {
						sampled++
					}
				}
				if len(cand) != sampled {
					t.Fatalf("cell (%d, %d) has a +Inf corner but lists %d of its %d sampled sectors", a, e, len(cand), sampled)
				}
			}
		}
	}

	beams := NewSet()
	for id := sector.ID(1); id <= 34; id++ {
		center := -90 + float64(id)*5.3
		p := FromFunc(grid, func(az, el float64) float64 { return 12 - (az-center)*(az-center)/80 - el/6 })
		if err := beams.Put(id, p); err != nil {
			t.Fatal(err)
		}
	}
	tx = beams.TX()
	total := len(tx.cand)
	if cells := len(tx.off) - 1; float64(total) > 6*float64(cells) {
		t.Fatalf("beam codebook: %d candidates over %d cells, want at most 6 per cell", total, cells)
	}
}

// TestLookupZeroAlloc guards the Eq. 4 scan's allocation contract,
// candidate index included, once the lookup is built.
func TestLookupZeroAlloc(t *testing.T) {
	s := edgeSet(t, lookupGrids(t)["wide1.8"])
	tx := s.TX()
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		pt := tx.Locate(12.3, 7.7)
		_, g := tx.Best(pt)
		sink += g + s.Get(5).AtPoint(pt) + float64(len(tx.candidates(pt)))
		_, g = s.BestSector(-40, 3)
		sink += g
		_, g = s.TX().Best(s.TX().Locate(80, 30))
		sink += g
	})
	if allocs != 0 {
		t.Fatalf("Locate/AtPoint/Best allocate %.1f times per call, want 0", allocs)
	}
	_ = sink
}

// TestTXLookupGenerations checks that Put retires the built lookup: the
// next TX call indexes the new pattern, while a lookup held from before
// keeps answering for the patterns it was built over.
func TestTXLookupGenerations(t *testing.T) {
	grid := lookupGrids(t)["9x5"]
	s := holeySet(t, grid)
	old := s.TX()
	if s.TX() != old {
		t.Fatal("TX rebuilt the lookup without a Put")
	}
	if err := s.Put(30, FromFunc(grid, func(az, el float64) float64 { return 50 })); err != nil {
		t.Fatal(err)
	}
	if id, g := s.BestSector(0, 0); id != 30 || g != 50 {
		t.Fatalf("after Put, BestSector(0, 0) = (%v, %v), want (30, 50)", id, g)
	}
	if id, _ := old.Best(old.Locate(0, 0)); id != 2 {
		t.Fatalf("held lookup's Best(0, 0) = %v, want 2", id)
	}
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

// randomFuzzSet draws a small TX codebook whose samples come from a
// short palette, so exact ties, one-ulp near-ties, missing samples, ±Inf
// and extreme magnitudes meet in the same cells.
func randomFuzzSet(t *testing.T, rng *rand.Rand, grid *geom.Grid) *Set {
	palette := []float64{
		0, 1, -3, 7.5, math.Nextafter(7.5, 8), math.Nextafter(7.5, 7), 12,
		math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, 5e-324,
	}
	s := NewSet()
	for n := 2 + rng.Intn(7); n > 0; n-- {
		p := New(grid)
		smooth := rng.Float64() * 3
		for e := range p.gain {
			for a := range p.gain[e] {
				switch v := palette[rng.Intn(len(palette))]; {
				case rng.Intn(4) == 0 || math.IsNaN(v) || math.IsInf(v, 0):
					p.gain[e][a] = v
				default:
					p.gain[e][a] = 7.5 - smooth*float64(a+e)/4
				}
			}
		}
		if err := s.Put(sector.ID(1+rng.Intn(40)), p); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// FuzzTXBest checks the candidate-indexed Best against the full scan on
// random palette codebooks, at every probe direction of the grid and at
// the fuzzed one.
func FuzzTXBest(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, 1 << 40} {
		f.Add(seed, 0.3, 0.7, uint8(seed))
	}
	f.Add(int64(9), math.NaN(), math.Inf(1), uint8(1))
	grids := lookupGrids(f)
	names := []string{"9x5", "1xN", "Nx1", "1x1", "uneven", "2x2"}
	f.Fuzz(func(t *testing.T, seed int64, az, el float64, which uint8) {
		grid := grids[names[int(which)%len(names)]]
		tx := randomFuzzSet(t, rand.New(rand.NewSource(seed)), grid).TX()
		bits := math.Float64bits
		for _, d := range append(probeDirections(grid), [2]float64{az, el}) {
			pt := tx.Locate(d[0], d[1])
			wantID, wantGain := bestFullScan(tx, pt)
			if id, g := tx.Best(pt); id != wantID || bits(g) != bits(wantGain) {
				t.Fatalf("(%v, %v): Best = (%v, %v), full scan (%v, %v)", d[0], d[1], id, g, wantID, wantGain)
			}
		}
	})
}
