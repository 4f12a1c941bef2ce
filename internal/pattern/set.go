package pattern

import (
	"fmt"
	"math"

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
	// tx is the TX view, rebuilt by every Put.
	tx TXLookup
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
	s.reindex()
	return nil
}

// reindex rebuilds the TX view after the stored patterns changed.
func (s *Set) reindex() {
	s.tx = TXLookup{}
	for id, p := range s.patterns {
		if p == nil {
			continue
		}
		s.tx.grid = p.grid
		if sector.ID(id) != sector.RX {
			s.tx.ids = append(s.tx.ids, sector.ID(id))
			s.tx.pats = append(s.tx.pats, p)
		}
	}
}

// Get returns the pattern for id, or nil if absent.
func (s *Set) Get(id sector.ID) *Pattern { return s.patterns[id] }

// Grid returns the sampling grid shared by every pattern in the set, or
// nil when the set is empty.
func (s *Set) Grid() *geom.Grid { return s.tx.grid }

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

// TX returns the set's transmit-sector lookup. It is rebuilt by Put, so
// a caller holding it must not mutate the set afterwards.
func (s *Set) TX() *TXLookup { return &s.tx }

// GainVector evaluates the patterns of ids at direction (az, el) and
// returns the gains, in the order of ids. Missing patterns or samples yield
// NaN entries.
func (s *Set) GainVector(ids []sector.ID, az, el float64) []float64 {
	out := make([]float64, len(ids))
	pt := s.tx.Locate(az, el)
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
	return s.tx.Best(s.tx.Locate(az, el))
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	out := &Set{n: s.n}
	for id, p := range s.patterns {
		if p != nil {
			out.patterns[id] = p.Clone()
		}
	}
	out.reindex()
	return out
}

// TXLookup is the transmit-sector view of a Set: its TX patterns in
// ascending sector-ID order over the set's shared grid. It points at
// the set's patterns and copies no samples. Best is the one Eq. 4 scan
// of the code base; every per-direction codebook query locates the
// direction once and reads each pattern with AtPoint.
type TXLookup struct {
	grid *geom.Grid
	ids  []sector.ID
	pats []*Pattern
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
// (Eq. 4): an ascending-ID scan that skips missing (NaN) gains and keeps
// the first of equal maxima. It returns (sector.RX, NaN) when no TX
// pattern has a usable gain there.
//
//talon:noalloc
func (l *TXLookup) Best(pt Point) (sector.ID, float64) {
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
