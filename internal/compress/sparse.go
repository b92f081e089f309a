package compress

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Span widths beyond the fixed-point set: raw span values are IEEE floats
// verbatim, so span data can be lossless (RawFloat64 backs the ExactWire
// modes) or match the paper's float32 "full precision" format.
const (
	// RawFloat32 stores span values as float32 (lossy narrowing).
	RawFloat32 uint = 0
	// RawFloat64 stores span values as float64 (bit-exact).
	RawFloat64 uint = 64
)

// Span is one dense run of nonzero buckets: Count values starting at
// bucket index Start. Buckets outside every span are exactly zero.
type Span struct {
	Start, Count uint32
}

// Sparse is a run-length encoding of a mostly-zero histogram vector: the
// zero buckets are elided entirely and only the dense spans carry data,
// packed back to back in Data at the declared width. Bits 2–16 reuse the
// fixed-point quantizer (MaxAbs scaling); RawFloat32/RawFloat64 store the
// span values as IEEE floats and ignore MaxAbs for decoding.
type Sparse struct {
	Bits   uint
	N      int
	MaxAbs float64
	Spans  []Span
	Data   []byte
}

func validSparseBits(bits uint) bool {
	return bits == RawFloat32 || bits == RawFloat64 || validBits(bits)
}

// dataSize returns the exact Data length for nnz values at the given width.
func dataSize(nnz int, bits uint) int {
	switch bits {
	case RawFloat32:
		return 4 * nnz
	case RawFloat64:
		return 8 * nnz
	default:
		return PackedSize(nnz, bits)
	}
}

// WireSize returns the payload's size on a wire that frames it as a width
// byte, the element count, MaxAbs, the length-prefixed span array
// (start/count pairs) and the length-prefixed data.
func (s *Sparse) WireSize() int {
	return 1 + 4 + 8 + 4 + 8*len(s.Spans) + 4 + len(s.Data)
}

// EncodeSparse run-length encodes values at the given width: one span per
// maximal run of nonzeros (a −0 counts as zero) and their values packed back
// to back. Fixed-point widths draw one rounding decision per nonzero, in
// order, from enc (required); raw widths never consume randomness and accept
// a nil encoder. Inputs must be finite.
func EncodeSparse(enc *Encoder, values []float64, bits uint) (*Sparse, error) {
	if !validSparseBits(bits) {
		return nil, fmt.Errorf("%w: %d", ErrBadWidth, bits)
	}
	maxAbs, finite := MaxAbs(values)
	if !finite {
		return nil, ErrNonFinite
	}
	if bits != RawFloat32 && bits != RawFloat64 && enc == nil {
		return nil, fmt.Errorf("compress: nil encoder for %d-bit sparse encode", bits)
	}
	nnz := 0
	for _, v := range values {
		if v != 0 {
			nnz++
		}
	}
	s := &Sparse{Bits: bits, N: len(values), MaxAbs: maxAbs, Data: make([]byte, dataSize(nnz, bits))}
	at := 0
	for i := 0; i < len(values); {
		if values[i] == 0 {
			i++
			continue
		}
		j := i + 1
		for j < len(values) && values[j] != 0 {
			j++
		}
		s.Spans = append(s.Spans, Span{Start: uint32(i), Count: uint32(j - i)})
		enc.putValues(s.Data, at, values[i:j], bits, maxAbs)
		at += j - i
		i = j
	}
	return s, nil
}

// SpanDataSize returns the data bytes n span values occupy at a sparse width
// (RawFloat32, RawFloat64 or a fixed-point width).
func SpanDataSize(n int, bits uint) int { return dataSize(n, bits) }

// PackSpans writes the concatenation of parts as span data at a sparse width
// into data, which must be zeroed and SpanDataSize(total, bits) long: the data
// of a payload whose spans its receiver derives itself instead of reading a
// span table. Zeros are written like any other value.
// Raw widths store IEEE floats and accept a nil receiver; fixed-point widths
// scale by maxAbs (the parts' largest absolute value) and draw one rounding
// decision per value in order, none when maxAbs is zero.
func (e *Encoder) PackSpans(data []byte, bits uint, maxAbs float64, parts ...[]float64) {
	at := 0
	for _, part := range parts {
		e.putValues(data, at, part, bits, maxAbs)
		at += len(part)
	}
}

// PackPresent is PackSpans for a payload that leaves values out: only the
// values whose bit in present is set — bit k, little-endian within each
// byte, stands for value k of the concatenation of parts — are written, in
// order, into data, which must be zeroed and SpanDataSize(set bits, bits)
// long. Absent values must be zero. Fixed-point widths still draw one
// rounding decision per value, absent ones included, and discard the absent
// ones' (a zero rounds to zero whatever the draw), so every written value and
// the stream's end are what PackSpans would give.
func (e *Encoder) PackPresent(data []byte, bits uint, maxAbs float64, present []byte, parts ...[]float64) {
	k, at := 0, 0 // values walked, values written
	switch {
	case bits == RawFloat32:
		for _, part := range parts {
			for _, v := range part {
				if bitSet(present, k) {
					binary.LittleEndian.PutUint32(data[4*at:], math.Float32bits(float32(v)))
					at++
				}
				k++
			}
		}
	case bits == RawFloat64:
		for _, part := range parts {
			for _, v := range part {
				if bitSet(present, k) {
					binary.LittleEndian.PutUint64(data[8*at:], math.Float64bits(v))
					at++
				}
				k++
			}
		}
	case maxAbs != 0: // every level is 0 otherwise, and nothing is drawn
		levels := float64(int64(1)<<(bits-1) - 1)
		rng := e.rng
		for _, part := range parts {
			for _, v := range part {
				if !bitSet(present, k) {
					rng.Float64()
					k++
					continue
				}
				t := v / maxAbs * levels
				f := math.Floor(t)
				q := int64(f)
				if rng.Float64() < t-f {
					q++
				}
				switch bits {
				case 8:
					data[at] = byte(q)
				case 16:
					binary.LittleEndian.PutUint16(data[2*at:], uint16(q))
				default:
					putBits(data, at, bits, uint64(q)&(1<<bits-1))
				}
				at++
				k++
			}
		}
	}
}

// bitSet reports whether bit k of a little-endian bitmap is set.
func bitSet(bitmap []byte, k int) bool { return bitmap[k>>3]>>(k&7)&1 != 0 }

// UnpackSpan stores the first len(dst) span values of data at a sparse
// width into dst, overwriting it: the inverse of PackSpans, for a receiver
// that places the values itself. A −0 sent on a raw width arrives as −0,
// where DecodeInto, which adds, leaves +0. data must hold the values.
func UnpackSpan(dst []float64, data []byte, bits uint, maxAbs float64) {
	switch bits {
	case RawFloat32:
		for i := range dst {
			dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:])))
		}
	case RawFloat64:
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
	default:
		clear(dst) // a level decodes to q·step, never −0
		addPacked(dst, data, 0, bits, maxAbs)
	}
}

// putValues writes vals as span values [at, at+len(vals)) at a sparse width.
func (e *Encoder) putValues(data []byte, at int, vals []float64, bits uint, maxAbs float64) {
	switch bits {
	case RawFloat32:
		for k, v := range vals {
			binary.LittleEndian.PutUint32(data[4*(at+k):], math.Float32bits(float32(v)))
		}
	case RawFloat64:
		for k, v := range vals {
			binary.LittleEndian.PutUint64(data[8*(at+k):], math.Float64bits(v))
		}
	default:
		e.pack(data, at, vals, bits, maxAbs)
	}
}
