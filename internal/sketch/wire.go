package sketch

import (
	"errors"
	"fmt"
	"math"

	"dimboost/internal/wire"
)

// Wire forms of a summary and of a cut list, as CREATE_SKETCH and
// PULL_SKETCH carry them behind their feature ids (internal/ps). Both are
// written straight from a GK's tuples and a Candidates' cuts and read back
// without intermediate arrays. A summary is
//
//	head uvarint | n values | n × (g uvarint, Δ uvarint)
//
// with head = n<<2 | flags. summaryFloat32 says every value travels as the
// float32 it equals bit for bit, and otherwise they are float64.
// summaryCounts says the (g, Δ) pairs follow. Without it every tuple is
// (1, 0): a summary that never compressed is just its sorted values. A cut
// list is
//
//	head uvarint | n cuts
//
// with head = n<<1 | cutsFloat32, the same float32 rule.
const (
	summaryFloat32 = 1 << iota
	summaryCounts
	summaryFlagBits = 2

	cutsFloat32 = 1
)

// exact32 reports whether v is a float32 value, bit for bit.
func exact32(v float64) bool { return math.Float64bits(float64(float32(v))) == math.Float64bits(v) }

// valuesSize is the wire size of n values.
func valuesSize(n int, f32 bool) int {
	if f32 {
		return 4 * n
	}
	return 8 * n
}

func putValue(w *wire.Writer, v float64, f32 bool) {
	if f32 {
		w.Float32(float32(v))
	} else {
		w.Float64(v)
	}
}

func getValue(r *wire.Reader, f32 bool) float64 {
	if f32 {
		return float64(r.Float32())
	}
	return r.Float64()
}

// wireHead returns the head of the flushed summary's wire form.
func (s *GK) wireHead() uint64 {
	head := uint64(len(s.tuples))<<summaryFlagBits | summaryFloat32
	for _, t := range s.tuples {
		if !exact32(t.v) {
			head &^= summaryFloat32
		}
		if t.g != 1 || t.delta != 0 {
			head |= summaryCounts
		}
	}
	return head
}

// WireSize flushes the summary and returns the exact number of bytes
// WriteWire appends — what a serializer sizes its buffer from.
func (s *GK) WireSize() int {
	s.flush()
	head := s.wireHead()
	size := wire.UvarintLen(head) + valuesSize(len(s.tuples), head&summaryFloat32 != 0)
	if head&summaryCounts != 0 {
		for _, t := range s.tuples {
			size += wire.UvarintLen(t.g) + wire.UvarintLen(t.delta)
		}
	}
	return size
}

// WriteWire flushes the summary and appends its wire form.
func (s *GK) WriteWire(w *wire.Writer) {
	s.flush()
	head := s.wireHead()
	w.Uvarint(head)
	for _, t := range s.tuples {
		putValue(w, t.v, head&summaryFloat32 != 0)
	}
	if head&summaryCounts != 0 {
		for _, t := range s.tuples {
			w.Uvarint(t.g)
			w.Uvarint(t.delta)
		}
	}
}

// ReadSummary consumes a summary written by WriteWire and rebuilds the
// sketch with rank error eps under Restore's checks (ErrInvalidSummary).
// A truncated summary is wire.ErrTruncated.
func ReadSummary(r *wire.Reader, eps float64) (*GK, error) {
	head := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	f32 := head&summaryFloat32 != 0
	n := head >> summaryFlagBits
	if n > uint64(r.Remaining()/4) {
		return nil, fmt.Errorf("%w: a summary of %d values in %d bytes", wire.ErrTruncated, n, r.Remaining())
	}
	s := NewGK(eps)
	s.tuples = make([]tuple, n)
	for i := range s.tuples {
		s.tuples[i] = tuple{v: getValue(r, f32), g: 1}
	}
	if head&summaryCounts != 0 {
		for i := range s.tuples {
			s.tuples[i].g = r.Uvarint()
			s.tuples[i].delta = r.Uvarint()
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := s.restore(); err != nil {
		return nil, err
	}
	return s, nil
}

// ErrInvalidCuts is what ReadCuts returns, wrapped with the offending cut,
// for a list Propose cannot produce: holding a NaN or infinite cut, not
// strictly ascending, or without the zero cut (an empty list included).
var ErrInvalidCuts = errors.New("sketch: invalid cut list")

func (c Candidates) wireHead() uint64 {
	head := uint64(len(c.Cuts))<<1 | cutsFloat32
	for _, v := range c.Cuts {
		if !exact32(v) {
			return head &^ cutsFloat32
		}
	}
	return head
}

// WireSize returns the exact number of bytes WriteWire appends.
func (c Candidates) WireSize() int {
	head := c.wireHead()
	return wire.UvarintLen(head) + valuesSize(len(c.Cuts), head&cutsFloat32 != 0)
}

// WriteWire appends the cut list's wire form.
func (c Candidates) WriteWire(w *wire.Writer) {
	head := c.wireHead()
	w.Uvarint(head)
	for _, v := range c.Cuts {
		putValue(w, v, head&cutsFloat32 != 0)
	}
}

// ReadCuts consumes a cut list written by WriteWire. It must be finite,
// strictly ascending and hold the zero cut (ErrInvalidCuts); a truncated
// list is wire.ErrTruncated.
func ReadCuts(r *wire.Reader) (Candidates, error) {
	head := r.Uvarint()
	if err := r.Err(); err != nil {
		return Candidates{}, err
	}
	f32 := head&cutsFloat32 != 0
	n := head >> 1
	if n > uint64(r.Remaining()/4) {
		return Candidates{}, fmt.Errorf("%w: %d cuts in %d bytes", wire.ErrTruncated, n, r.Remaining())
	}
	cuts := make([]float64, n)
	for i := range cuts {
		cuts[i] = getValue(r, f32)
	}
	if err := r.Err(); err != nil {
		return Candidates{}, err
	}
	zero := false
	for i, v := range cuts {
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			return Candidates{}, fmt.Errorf("%w: cut %d is %v", ErrInvalidCuts, i, v)
		case i > 0 && !(v > cuts[i-1]):
			return Candidates{}, fmt.Errorf("%w: cut %d (%v) is not above cut %d (%v)", ErrInvalidCuts, i, v, i-1, cuts[i-1])
		}
		zero = zero || v == 0
	}
	if !zero {
		return Candidates{}, fmt.Errorf("%w: no zero cut among %d", ErrInvalidCuts, len(cuts))
	}
	return FromCuts(cuts), nil
}
