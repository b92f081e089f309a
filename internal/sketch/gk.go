// Package sketch implements mergeable quantile sketches used to propose
// split candidates for every feature (the paper's CREATE_SKETCH /
// PULL_SKETCH phases, §4.4). The primary algorithm is the Greenwald–Khanna
// (GK) ε-approximate quantile summary [GK01], the same family the paper
// cites for distributed quantile computation; a weighted wrapper supports
// XGBoost-style hessian-weighted candidates.
package sketch

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// tuple is one GK summary entry: a stored value v, the number of observations
// it absorbs (g), and the uncertainty of its rank (delta). The minimum rank
// of v is the running sum of g up to and including the entry; the maximum
// rank adds delta.
type tuple struct {
	v     float64
	g     uint64
	delta uint64
}

// GK is a Greenwald–Khanna quantile summary with additive rank error εN.
// The zero value is not usable; construct with NewGK. GK is not safe for
// concurrent use.
type GK struct {
	eps     float64
	n       uint64
	tuples  []tuple
	buf     []float64
	bufSize int
	// spare is the tuple array the previous flush merged out of, kept as
	// the next flush's destination so a hot feature's flushes stop
	// allocating once the summary has reached its size.
	spare []tuple
}

// NewGK returns an empty summary with rank error ε (0 < ε < 1). Typical ε
// for split-candidate proposal is 1/(2K) for K candidates.
func NewGK(eps float64) *GK {
	if eps <= 0 || eps >= 1 {
		panic("sketch: eps must be in (0,1)")
	}
	bs := int(1.0/(2.0*eps)) + 1
	if bs < 16 {
		bs = 16
	}
	return &GK{eps: eps, bufSize: bs}
}

// Eps returns the configured rank error.
func (s *GK) Eps() float64 { return s.eps }

// Count returns the number of inserted observations, including those still
// in the insertion buffer.
func (s *GK) Count() uint64 { return s.n + uint64(len(s.buf)) }

// Insert adds one observation. NaN values are rejected silently (GBDT treats
// missing as zero at a higher layer, so NaN never reaches the sketch in
// normal operation).
func (s *GK) Insert(v float64) {
	if math.IsNaN(v) {
		return
	}
	s.buf = append(s.buf, v)
	if len(s.buf) >= s.bufSize {
		s.flush()
	}
}

// flush merges the buffered values into the summary and compresses it in
// the same pass. Each merged tuple is held back one step, until the next one
// shows whether it can absorb it: compress's rule with a lookahead of one,
// so the summary is exactly what merging and then compressing would leave.
func (s *GK) flush() {
	if len(s.buf) == 0 {
		return
	}
	sort.Float64s(s.buf)
	n := s.n + uint64(len(s.buf))
	limit := uint64(2 * s.eps * float64(n))
	out := s.spare[:0]
	if need := len(s.tuples) + len(s.buf); cap(out) < need {
		out = make([]tuple, 0, need)
	}
	var cur tuple // the last merged tuple, not yet emitted
	merged := 0   // tuples merged so far, cur included
	i, j := 0, 0
	for i < len(s.tuples) || j < len(s.buf) {
		var next tuple
		if j >= len(s.buf) || (i < len(s.tuples) && s.tuples[i].v <= s.buf[j]) {
			next = s.tuples[i]
			i++
		} else {
			v := s.buf[j]
			j++
			next = tuple{v: v, g: 1}
			// New elements inserted strictly inside the summary get
			// delta = floor(2εn) - 1; extremes are exact.
			if merged > 0 && i < len(s.tuples) {
				if d := uint64(2 * s.eps * float64(s.n+uint64(j))); d > 0 {
					next.delta = d - 1
				}
			}
		}
		switch {
		case merged == 0:
		case merged > 1 && cur.g+next.g+next.delta <= limit:
			// cur is interior: next absorbs it.
			next.g += cur.g
		default:
			out = append(out, cur)
		}
		cur = next
		merged++
	}
	s.n = n
	s.buf = s.buf[:0]
	s.spare, s.tuples = s.tuples, append(out, cur)
}

// compress removes tuples whose neighbour can absorb them without violating
// the g + delta <= 2εn invariant. Merge runs it; flush applies the same rule
// while it merges.
func (s *GK) compress() {
	if len(s.tuples) < 3 {
		return
	}
	limit := uint64(2 * s.eps * float64(s.n))
	out := s.tuples[:0]
	out = append(out, s.tuples[0])
	for i := 1; i < len(s.tuples)-1; i++ {
		t := s.tuples[i]
		next := s.tuples[i+1]
		if t.g+next.g+next.delta <= limit {
			// merge t into next
			s.tuples[i+1].g += t.g
			continue
		}
		out = append(out, t)
	}
	out = append(out, s.tuples[len(s.tuples)-1])
	s.tuples = out
}

// Query returns an ε-approximate φ-quantile (0 ≤ φ ≤ 1). It returns an error
// on an empty sketch.
func (s *GK) Query(phi float64) (float64, error) {
	s.flush()
	if s.n == 0 {
		return 0, errors.New("sketch: empty summary")
	}
	if phi <= 0 {
		return s.tuples[0].v, nil
	}
	if phi >= 1 {
		return s.tuples[len(s.tuples)-1].v, nil
	}
	target := phi * float64(s.n)
	// Return the tuple whose rank interval midpoint is closest to the
	// target rank. Under the GK invariant (g+delta <= 2εn) the best tuple
	// is within εn ranks of the exact quantile.
	best := s.tuples[0].v
	bestDist := math.Inf(1)
	var rmin uint64
	for _, t := range s.tuples {
		rmin += t.g
		mid := float64(rmin) + float64(t.delta)/2
		if d := math.Abs(mid - target); d < bestDist {
			bestDist = d
			best = t.v
		}
	}
	return best, nil
}

// Merge folds other into s. Both sketches keep operating afterwards; the
// merged summary's error is bounded by max(ε_s, ε_other) + small constant,
// which is why the system constructs worker-local sketches with half the
// target ε. Merging is what the parameter server does in CREATE_SKETCH.
func (s *GK) Merge(other *GK) {
	other.flush()
	s.flush()
	if other.n == 0 {
		return
	}
	// Standard mergeable-summary construction: concatenate tuple lists in
	// value order; deltas of foreign tuples inherit their own uncertainty.
	merged := make([]tuple, 0, len(s.tuples)+len(other.tuples))
	i, j := 0, 0
	for i < len(s.tuples) || j < len(other.tuples) {
		if j >= len(other.tuples) || (i < len(s.tuples) && s.tuples[i].v <= other.tuples[j].v) {
			merged = append(merged, s.tuples[i])
			i++
		} else {
			merged = append(merged, other.tuples[j])
			j++
		}
	}
	s.tuples = merged
	s.n += other.n
	s.compress()
}

// Summary returns the stored values, in ascending order, and their (g, Δ)
// counts as arrays: Restore's input.
func (s *GK) Summary() (values []float64, gs, deltas []uint64) {
	s.flush()
	values = make([]float64, len(s.tuples))
	gs = make([]uint64, len(s.tuples))
	deltas = make([]uint64, len(s.tuples))
	for i, t := range s.tuples {
		values[i] = t.v
		gs[i] = t.g
		deltas[i] = t.delta
	}
	return
}

// ErrInvalidSummary is what Restore returns, wrapped with the offending
// entry, for arrays no GK summary can be: of different lengths, holding a
// NaN or infinite value, a value below its predecessor, a tuple that absorbs
// no observation (g == 0), or counts whose sum overflows.
var ErrInvalidSummary = errors.New("sketch: invalid summary")

// Restore rebuilds a sketch from Summary output, which may have crossed the
// wire, so the values and counts candidate proposal relies on are checked
// first (ErrInvalidSummary). The restored count is the sum of gs; eps must
// match the producer's eps for the error bound to hold.
func Restore(eps float64, values []float64, gs, deltas []uint64) (*GK, error) {
	if len(values) != len(gs) || len(values) != len(deltas) {
		return nil, fmt.Errorf("%w: %d values, %d gs, %d deltas", ErrInvalidSummary, len(values), len(gs), len(deltas))
	}
	s := NewGK(eps)
	s.tuples = make([]tuple, len(values))
	for i, v := range values {
		s.tuples[i] = tuple{v: v, g: gs[i], delta: deltas[i]}
	}
	if err := s.restore(); err != nil {
		return nil, err
	}
	return s, nil
}

// restore checks tuples that may have crossed the wire against the rules
// ErrInvalidSummary lists and sets the count from them: Restore's and
// ReadSummary's validation.
func (s *GK) restore() error {
	var n uint64
	for i, t := range s.tuples {
		switch {
		case math.IsNaN(t.v) || math.IsInf(t.v, 0):
			return fmt.Errorf("%w: value %d is %v", ErrInvalidSummary, i, t.v)
		case i > 0 && t.v < s.tuples[i-1].v:
			return fmt.Errorf("%w: value %d (%v) is below value %d (%v)", ErrInvalidSummary, i, t.v, i-1, s.tuples[i-1].v)
		case t.g == 0:
			return fmt.Errorf("%w: tuple %d absorbs no observation", ErrInvalidSummary, i)
		case n+t.g < n:
			return fmt.Errorf("%w: counts overflow at tuple %d", ErrInvalidSummary, i)
		}
		n += t.g
	}
	s.n = n
	return nil
}
