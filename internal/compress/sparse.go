package compress

import (
	"encoding/binary"
	"fmt"
	"math"

	"dimboost/internal/wire"
)

// Sparse widths beyond the fixed-point set: raw spans carry IEEE floats
// verbatim, so a sparse payload can be lossless (RawFloat64 backs the
// ExactWire modes) or match the paper's float32 "full precision" format
// while still eliding the zero buckets that dominate high-dimensional
// histograms.
const (
	// RawFloat32 stores span values as float32 (lossy narrowing).
	RawFloat32 uint = 0
	// RawFloat64 stores span values as float64 (bit-exact).
	RawFloat64 uint = 64
)

// Typed sparse decode errors, additional to ErrBadWidth / ErrBadHeader /
// ErrSizeMismatch which sparse validation shares with the dense codec.
var (
	// ErrSpanOrder reports spans that are out of order or overlapping.
	ErrSpanOrder = fmt.Errorf("%w: spans out of order", ErrBadHeader)
	// ErrSpanRange reports a span extending past the declared vector length.
	ErrSpanRange = fmt.Errorf("%w: span out of range", ErrBadHeader)
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

// NNZ returns the total number of values stored across all spans.
func (s *Sparse) NNZ() int {
	n := 0
	for _, sp := range s.Spans {
		n += int(sp.Count)
	}
	return n
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

// SparseWireSize predicts the WriteTo size of a sparse payload with the
// given shape: header (bits, N, MaxAbs), span array, length-prefixed data.
func SparseWireSize(nnz, spans int, bits uint) int {
	return 1 + 4 + 8 + 4 + 8*spans + 4 + dataSize(nnz, bits)
}

// WireSize returns the exact number of bytes WriteTo will append.
func (s *Sparse) WireSize() int {
	return 1 + 4 + 8 + 4 + 8*len(s.Spans) + 4 + len(s.Data)
}

// EncodeSparse run-length encodes values at the given width. Fixed-point
// widths draw rounding decisions from enc (required); raw widths never
// consume randomness and accept a nil encoder. Inputs must be finite.
func EncodeSparse(enc *Encoder, values []float64, bits uint) (*Sparse, error) {
	st := Scan(values)
	w := wire.NewWriter(SparseWireSize(st.NNZ, st.Runs, bits))
	if err := enc.WriteSparse(w, st, bits, values); err != nil {
		return nil, err
	}
	return ReadSparse(wire.NewReader(w.Bytes()))
}

// WriteSparse appends the sparse wire form of a vector — the bytes
// EncodeSparse followed by WriteTo would produce — without materializing a
// Sparse: the span table and the packed span values are written in place in
// one pass over the nonzeros. The vector is the concatenation of parts and
// st must be Scan(parts...). Fixed-point widths draw one rounding decision
// per nonzero in order; raw widths draw none and accept a nil receiver.
func (e *Encoder) WriteSparse(w *wire.Writer, st Stats, bits uint, parts ...[]float64) error {
	if !validSparseBits(bits) {
		return fmt.Errorf("%w: %d", ErrBadWidth, bits)
	}
	if !st.Finite {
		return ErrNonFinite
	}
	raw := bits == RawFloat32 || bits == RawFloat64
	if !raw && e == nil {
		return fmt.Errorf("compress: nil encoder for %d-bit sparse encode", bits)
	}
	w.Uint8(uint8(bits))
	w.Uint32(uint32(st.N))
	w.Float64(st.MaxAbs)
	// The span table (length-prefixed start/count pairs) and the
	// length-prefixed data are reserved together: both sizes follow from
	// st, and a second Extend could move the first region.
	tabLen, dataLen := 8*st.Runs, dataSize(st.NNZ, bits)
	region := w.Extend(4 + tabLen + 4 + dataLen)
	binary.LittleEndian.PutUint32(region, uint32(2*st.Runs))
	tab := region[4 : 4+tabLen]
	binary.LittleEndian.PutUint32(region[4+tabLen:], uint32(dataLen))
	data := region[4+tabLen+4:]

	run, runStart, runEnd := -1, 0, -1 // the open run: its slot in tab and its extent
	written := 0                       // span values stored so far
	base := 0
	for _, part := range parts {
		for i := 0; i < len(part); {
			if part[i] == 0 {
				i++
				continue
			}
			j := i + 1
			for j < len(part) && part[j] != 0 {
				j++
			}
			vals := part[i:j]
			if base+i != runEnd { // else the run continues from the previous part
				run++
				runStart = base + i
				binary.LittleEndian.PutUint32(tab[8*run:], uint32(runStart))
			}
			runEnd = base + j
			binary.LittleEndian.PutUint32(tab[8*run+4:], uint32(runEnd-runStart))
			e.putValues(data, written, vals, bits, st.MaxAbs)
			written += len(vals)
			i = j
		}
		base += len(part)
	}
	return nil
}

// SpanDataSize returns the data bytes n span values occupy at a sparse width
// (RawFloat32, RawFloat64 or a fixed-point width).
func SpanDataSize(n int, bits uint) int { return dataSize(n, bits) }

// PackSpans writes the concatenation of parts as span data at a sparse width
// into data, which must be zeroed and SpanDataSize(total, bits) long: the data
// half of WriteSparse, for a payload whose spans its receiver derives itself
// instead of reading a span table. Zeros are written like any other value.
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
					if rng != nil {
						rng.Float64()
					}
					k++
					continue
				}
				t := v / maxAbs * levels
				var q int64
				if rng != nil {
					f := math.Floor(t)
					q = int64(f)
					if rng.Float64() < t-f {
						q++
					}
				} else {
					q = int64(math.Round(t))
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

// Validate checks an untrusted sparse payload: supported width, in-range
// header, ordered non-overlapping spans inside [0, N), and a data length
// that exactly matches the span population. Decode and DecodeInto assume a
// validated receiver; ReadSparse and UnmarshalSparse validate for you.
func (s *Sparse) Validate() error {
	if !validSparseBits(s.Bits) {
		return fmt.Errorf("%w: %d", ErrBadWidth, s.Bits)
	}
	if s.N < 0 || s.N > math.MaxUint32 {
		return fmt.Errorf("%w: element count %d", ErrBadHeader, s.N)
	}
	if math.IsNaN(s.MaxAbs) || math.IsInf(s.MaxAbs, 0) || s.MaxAbs < 0 {
		return fmt.Errorf("%w: MaxAbs %v", ErrBadHeader, s.MaxAbs)
	}
	var nnz, next int64
	for i, sp := range s.Spans {
		if sp.Count == 0 {
			return fmt.Errorf("%w: empty span %d", ErrSpanOrder, i)
		}
		if int64(sp.Start) < next {
			return fmt.Errorf("%w: span %d starts at %d, previous ends at %d", ErrSpanOrder, i, sp.Start, next)
		}
		next = int64(sp.Start) + int64(sp.Count)
		if next > int64(s.N) {
			return fmt.Errorf("%w: span %d ends at %d, vector has %d", ErrSpanRange, i, next, s.N)
		}
		nnz += int64(sp.Count)
	}
	if want := dataSize(int(nnz), s.Bits); len(s.Data) != want {
		return fmt.Errorf("%w: %d data bytes for %d %d-bit span values (want %d)",
			ErrSizeMismatch, len(s.Data), nnz, s.Bits, want)
	}
	return nil
}

// Decode reconstructs the full vector with zeros outside the spans.
func (s *Sparse) Decode() []float64 {
	out := make([]float64, s.N)
	s.DecodeInto(out)
	return out
}

// DecodeInto adds the decoded span values onto dst — the merge operation a
// parameter server applies for incoming shards. Buckets outside every span
// contribute nothing, so dst is untouched there. dst must have length N and
// the receiver must have passed Validate.
func (s *Sparse) DecodeInto(dst []float64) error {
	if len(dst) != s.N {
		return fmt.Errorf("compress: decode into %d values, payload has %d", len(dst), s.N)
	}
	switch s.Bits {
	case RawFloat32:
		r := wire.NewReader(s.Data)
		for _, sp := range s.Spans {
			for i := sp.Start; i < sp.Start+sp.Count; i++ {
				dst[i] += float64(r.Float32())
			}
		}
		return r.Err()
	case RawFloat64:
		r := wire.NewReader(s.Data)
		for _, sp := range s.Spans {
			for i := sp.Start; i < sp.Start+sp.Count; i++ {
				dst[i] += r.Float64()
			}
		}
		return r.Err()
	default:
		j := 0
		for _, sp := range s.Spans {
			addPacked(dst[sp.Start:sp.Start+sp.Count], s.Data, j, s.Bits, s.MaxAbs)
			j += int(sp.Count)
		}
		return nil
	}
}

// WriteTo appends the wire form: width byte, element count, MaxAbs, span
// array (start/count pairs), length-prefixed data.
func (s *Sparse) WriteTo(w *wire.Writer) {
	w.Uint8(uint8(s.Bits))
	w.Uint32(uint32(s.N))
	w.Float64(s.MaxAbs)
	flat := make([]uint32, 0, 2*len(s.Spans))
	for _, sp := range s.Spans {
		flat = append(flat, sp.Start, sp.Count)
	}
	w.Uint32s(flat)
	w.Bytes32(s.Data)
}

// ReadSparse consumes one sparse payload from r and validates it. Hostile
// input — truncated runs, overlapping spans, mismatched lengths — yields a
// typed error (wire.ErrTruncated or one of this package's Err* values),
// never a panic. Data aliases the reader's buffer: a receiver decodes
// straight out of the message it was handed.
func ReadSparse(r *wire.Reader) (*Sparse, error) {
	s := &Sparse{Bits: uint(r.Uint8())}
	s.N = int(r.Uint32())
	s.MaxAbs = r.Float64()
	flat := int(r.Uint32())
	tab := r.Raw(4 * flat)
	s.Data = r.Raw(int(r.Uint32()))
	if err := r.Err(); err != nil {
		return nil, err
	}
	if flat%2 != 0 {
		return nil, fmt.Errorf("%w: odd span array length %d", ErrBadHeader, flat)
	}
	s.Spans = make([]Span, flat/2)
	for i := range s.Spans {
		s.Spans[i] = Span{
			Start: binary.LittleEndian.Uint32(tab[8*i:]),
			Count: binary.LittleEndian.Uint32(tab[8*i+4:]),
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Marshal returns the standalone wire form of s.
func (s *Sparse) Marshal() []byte {
	w := wire.NewWriter(s.WireSize())
	s.WriteTo(w)
	return w.Bytes()
}

// UnmarshalSparse parses a standalone payload produced by Marshal,
// rejecting trailing garbage. The result's Data aliases b.
func UnmarshalSparse(b []byte) (*Sparse, error) {
	r := wire.NewReader(b)
	s, err := ReadSparse(r)
	if err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrSizeMismatch, r.Remaining())
	}
	return s, nil
}
