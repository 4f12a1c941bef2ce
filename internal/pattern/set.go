package pattern

import (
	"fmt"
	"math"
	"sync/atomic"

	"talon/internal/geom"
	"talon/internal/sector"
)

// Set maps sector IDs to their measured patterns. All patterns in a set
// share one grid. A Set is the "codebook knowledge" the compressive
// selection algorithm consumes.
type Set struct {
	// patterns is indexed by sector ID; nil marks an absent sector.
	patterns [256]*Pattern
	n        int
	grid     *geom.Grid
	// tx is the TX view: dropped by Put, built by the next TX call.
	tx atomic.Pointer[TXLookup]
}

// NewSet returns an empty pattern set.
func NewSet() *Set { return &Set{} }

// Put stores the pattern for id, replacing any previous one. The first
// pattern fixes the grid; later patterns must share it.
func (s *Set) Put(id sector.ID, p *Pattern) error {
	if p == nil {
		return fmt.Errorf("pattern: nil pattern for sector %v", id)
	}
	if g := s.Grid(); g != nil && !g.Equal(p.grid) {
		return fmt.Errorf("pattern: sector %v grid differs from set grid", id)
	}
	if s.patterns[id] == nil {
		s.n++
	}
	s.patterns[id] = p
	s.grid = p.grid
	s.tx.Store(nil)
	return nil
}

// Get returns the pattern for id, or nil if absent.
func (s *Set) Get(id sector.ID) *Pattern { return s.patterns[id] }

// Grid returns the sampling grid shared by every pattern in the set, or
// nil when the set is empty.
func (s *Set) Grid() *geom.Grid { return s.grid }

// Len returns the number of stored patterns.
func (s *Set) Len() int { return s.n }

// IDs returns the stored sector IDs in ascending numeric order.
func (s *Set) IDs() []sector.ID { return s.ids(sector.RX) }

// TXIDs returns the stored transmit sector IDs (everything except the RX
// pseudo-sector), ascending.
func (s *Set) TXIDs() []sector.ID { return s.ids(sector.RX + 1) }

func (s *Set) ids(from sector.ID) []sector.ID {
	out := make([]sector.ID, 0, s.n)
	for id := int(from); id < len(s.patterns); id++ {
		if s.patterns[id] != nil {
			out = append(out, sector.ID(id))
		}
	}
	return out
}

// TX returns the set's transmit-sector lookup, built with its candidate
// index by the first call after a Put. A held lookup keeps describing
// the patterns it was built over; their samples must not be modified
// while it is in use.
func (s *Set) TX() *TXLookup {
	l := s.tx.Load()
	if l == nil {
		l = newTXLookup(s)
		s.tx.Store(l)
	}
	return l
}

// GainVector evaluates the patterns of ids at direction (az, el) and
// returns the gains, in the order of ids. Missing patterns or samples yield
// NaN entries.
func (s *Set) GainVector(ids []sector.ID, az, el float64) []float64 {
	out := make([]float64, len(ids))
	pt := s.TX().Locate(az, el)
	for i, id := range ids {
		p := s.patterns[id]
		if p == nil {
			out[i] = math.NaN()
			continue
		}
		out[i] = p.AtPoint(pt)
	}
	return out
}

// BestSector returns the stored transmit sector whose pattern has the
// highest gain toward (az, el), implementing Eq. 4 of the paper, along with
// that gain. It returns (sector.RX, NaN) if the set holds no usable TX
// pattern.
func (s *Set) BestSector(az, el float64) (sector.ID, float64) {
	tx := s.TX()
	return tx.Best(tx.Locate(az, el))
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	out := &Set{n: s.n, grid: s.grid}
	for id, p := range s.patterns {
		if p != nil {
			out.patterns[id] = p.Clone()
		}
	}
	return out
}

// TXLookup is the transmit-sector view of a Set: its TX patterns in
// ascending sector-ID order over the set's shared grid. It points at
// the set's patterns and copies no samples. Best is the one Eq. 4 scan
// of the code base; every per-direction codebook query locates the
// direction once and reads each pattern with AtPoint.
//
// AtPoint blends a cell's four corners convexly or returns one of them,
// so a sector whose largest corner is below another sector's smallest
// loses everywhere in the cell; Best scans only the other sectors.
type TXLookup struct {
	grid *geom.Grid
	ids  []sector.ID
	pats []*Pattern
	// cand[off[c]:off[c+1]] lists cell c's candidates (pats positions).
	cellsAz int
	off     []int32
	cand    []uint8
}

// candMargin is the candidate bound's slack relative to the cell's
// largest magnitude, far above the blend's few-ulp rounding.
const candMargin = 1e-9

// newTXLookup builds the TX view of s and its per-cell candidate index.
func newTXLookup(s *Set) *TXLookup {
	l := &TXLookup{grid: s.grid, cellsAz: 1, off: []int32{0, 0}}
	for id := sector.RX + 1; id != 0; id++ { // ends when the byte wraps
		if p := s.patterns[id]; p != nil {
			l.ids = append(l.ids, id)
			l.pats = append(l.pats, p)
		}
	}
	if l.grid == nil {
		return l
	}
	nA, nE := l.grid.NumAz(), l.grid.NumEl()
	l.cellsAz = max(nA-1, 1)
	cellsEl := max(nE-1, 1)
	l.off = make([]int32, 1, l.cellsAz*cellsEl+1)
	lo, hi := make([]float64, len(l.pats)), make([]float64, len(l.pats))
	for e := 0; e < cellsEl; e++ {
		e1 := min(e+1, nE-1)
		for a := 0; a < l.cellsAz; a++ {
			a1 := min(a+1, nA-1)
			floor, scale, inf := math.Inf(-1), 0.0, false
			for i, p := range l.pats {
				lo[i], hi[i] = math.Inf(1), math.Inf(-1)
				for _, v := range [4]float64{p.gain[e][a], p.gain[e][a1], p.gain[e1][a], p.gain[e1][a1]} {
					if v == v { // NaN marks a missing corner
						lo[i], hi[i] = min(lo[i], v), max(hi[i], v)
						scale, inf = max(scale, math.Abs(v)), inf || math.IsInf(v, 0)
					}
				}
				if lo[i] <= hi[i] {
					floor = max(floor, lo[i])
				}
			}
			// An infinite corner leaves no margin (and Inf·0 in the
			// blend is NaN): keep every sector that has a sample.
			bound := floor - candMargin*(1+scale)
			for i := range l.pats {
				if lo[i] <= hi[i] && (inf || hi[i] >= bound) {
					l.cand = append(l.cand, uint8(i))
				}
			}
			l.off = append(l.off, int32(len(l.cand)))
		}
	}
	return l
}

// IDs returns the TX sector IDs, ascending. The slice must not be
// modified.
func (l *TXLookup) IDs() []sector.ID { return l.ids }

// Patterns returns the TX patterns, parallel to IDs. The slice must not
// be modified.
func (l *TXLookup) Patterns() []*Pattern { return l.pats }

// Locate brackets (az, el) on the set's grid; the zero Point when the
// set is empty.
//
//talon:noalloc
func (l *TXLookup) Locate(az, el float64) Point {
	if l.grid == nil {
		return Point{}
	}
	return Locate(l.grid, az, el)
}

// Best returns the TX sector with the highest gain at pt and that gain
// (Eq. 4): an ascending-ID scan of the cell's candidates that skips
// missing (NaN) gains and keeps the first of equal maxima, which is the
// full scan's answer bit for bit. It returns (sector.RX, NaN) when no TX
// pattern has a usable gain there. pt must be located on the set's
// grid.
//
//talon:noalloc
func (l *TXLookup) Best(pt Point) (sector.ID, float64) {
	best, bestGain := -1, math.Inf(-1)
	for _, i := range l.candidates(pt) {
		if g := l.pats[i].AtPoint(pt); g > bestGain { // false for NaN
			best, bestGain = int(i), g
		}
	}
	if best < 0 {
		return sector.RX, math.NaN()
	}
	return l.ids[best], bestGain
}

// candidates returns the positions in pats of the sectors that can win
// Eq. 4 in pt's grid cell, ascending.
//
//talon:noalloc
func (l *TXLookup) candidates(pt Point) []uint8 {
	c := pt.e*l.cellsAz + pt.a
	return l.cand[l.off[c]:l.off[c+1]]
}
