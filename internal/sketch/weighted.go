package sketch

import (
	"cmp"
	"errors"
	"math"
	"slices"
)

// WeightedGK is a Greenwald–Khanna-style quantile summary over weighted
// observations: ranks are cumulative weights rather than counts. It backs
// hessian-weighted split candidates (the "weighted quantile sketch" of
// XGBoost, which the paper cites as WOS in §2.2): each instance
// contributes its second-order gradient h_i as weight, so buckets hold
// equal hessian mass instead of equal instance counts.
type WeightedGK struct {
	eps    float64
	weight float64 // total inserted weight
	tuples []wtuple
	buf    []wpair
	bufCap int
	// spare is the tuple array the previous flush merged out of, reused as
	// the next flush's destination.
	spare []wtuple
}

type wtuple struct {
	v     float64
	g     float64 // absorbed weight
	delta float64 // rank uncertainty (weight units)
}

type wpair struct {
	v, w float64
}

// NewWeightedGK returns an empty weighted summary with relative rank error
// ε (in weight units).
func NewWeightedGK(eps float64) *WeightedGK {
	if eps <= 0 || eps >= 1 {
		panic("sketch: eps must be in (0,1)")
	}
	bc := int(1.0/(2.0*eps)) + 1
	if bc < 16 {
		bc = 16
	}
	return &WeightedGK{eps: eps, bufCap: bc}
}

// Insert adds an observation with the given positive weight. Non-finite
// values and non-positive weights are ignored.
func (s *WeightedGK) Insert(v, w float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) || !(w > 0) || math.IsInf(w, 0) {
		return
	}
	s.buf = append(s.buf, wpair{v, w})
	if len(s.buf) >= s.bufCap {
		s.flush()
	}
}

// Weight returns the total inserted weight.
func (s *WeightedGK) Weight() float64 {
	w := s.weight
	for _, p := range s.buf {
		w += p.w
	}
	return w
}

// flush merges the buffered pairs into the summary and compresses it in one
// pass, into the array the previous flush merged out of — GK.flush's scheme.
// slices.SortFunc runs the same pattern-defeating quicksort as sort.Slice
// did, comparison for comparison, so equal values keep their order and the
// summary its bits.
func (s *WeightedGK) flush() {
	if len(s.buf) == 0 {
		return
	}
	slices.SortFunc(s.buf, func(a, b wpair) int { return cmp.Compare(a.v, b.v) })
	var pending float64
	for _, p := range s.buf {
		pending += p.w
	}
	newTotal := s.weight + pending
	// band is both the rank uncertainty of an interior insertion and
	// compress's absorption limit.
	band := 2 * s.eps * newTotal
	out := s.spare[:0]
	if need := len(s.tuples) + len(s.buf); cap(out) < need {
		out = make([]wtuple, 0, need)
	}
	var cur wtuple // the last merged tuple, not yet emitted
	merged := 0    // tuples merged so far, cur included
	i, j := 0, 0
	for i < len(s.tuples) || j < len(s.buf) {
		var next wtuple
		if j >= len(s.buf) || (i < len(s.tuples) && s.tuples[i].v <= s.buf[j].v) {
			next = s.tuples[i]
			i++
		} else {
			p := s.buf[j]
			j++
			next = wtuple{v: p.v, g: p.w}
			if merged > 0 && i < len(s.tuples) && band > p.w {
				next.delta = band - p.w
			}
		}
		switch {
		case merged == 0:
		case merged > 1 && cur.g+next.g+next.delta <= band:
			next.g += cur.g
		default:
			out = append(out, cur)
		}
		cur = next
		merged++
	}
	s.weight = newTotal
	s.buf = s.buf[:0]
	s.spare, s.tuples = s.tuples, append(out, cur)
}

func (s *WeightedGK) compress() {
	if len(s.tuples) < 3 {
		return
	}
	limit := 2 * s.eps * s.weight
	out := s.tuples[:0]
	out = append(out, s.tuples[0])
	for i := 1; i < len(s.tuples)-1; i++ {
		t := s.tuples[i]
		next := s.tuples[i+1]
		if t.g+next.g+next.delta <= limit {
			s.tuples[i+1].g += t.g
			continue
		}
		out = append(out, t)
	}
	out = append(out, s.tuples[len(s.tuples)-1])
	s.tuples = out
}

// Query returns a value whose weighted rank is within εW of φ·W.
func (s *WeightedGK) Query(phi float64) (float64, error) {
	s.flush()
	if s.weight == 0 {
		return 0, errors.New("sketch: empty weighted summary")
	}
	if phi <= 0 {
		return s.tuples[0].v, nil
	}
	if phi >= 1 {
		return s.tuples[len(s.tuples)-1].v, nil
	}
	target := phi * s.weight
	best := s.tuples[0].v
	bestDist := math.Inf(1)
	var rmin float64
	for _, t := range s.tuples {
		rmin += t.g
		mid := rmin + t.delta/2
		if d := math.Abs(mid - target); d < bestDist {
			bestDist = d
			best = t.v
		}
	}
	return best, nil
}

// Merge folds other into s.
func (s *WeightedGK) Merge(other *WeightedGK) {
	other.flush()
	s.flush()
	if other.weight == 0 {
		return
	}
	merged := make([]wtuple, 0, len(s.tuples)+len(other.tuples))
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
	s.weight += other.weight
	s.compress()
}

// ProposeWeighted extracts at most k cut points from the weighted sketch as
// equal-weight quantiles, always including the zero cut.
func ProposeWeighted(s *WeightedGK, k int) Candidates {
	if s == nil || s.Weight() == 0 {
		return newCandidates(nil)
	}
	cuts := make([]float64, 0, k+1) // room for the zero cut
	for i := 1; i <= k; i++ {
		q, err := s.Query(float64(i) / float64(k))
		if err != nil {
			break
		}
		cuts = append(cuts, q)
	}
	return newCandidates(cuts)
}
