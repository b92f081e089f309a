// Package compress implements the low-precision gradient-histogram
// compressor of §6.1: 32-bit floating-point histogram entries are quantized
// to d-bit signed fixed-point integers with max-abs scaling and stochastic
// (Bernoulli) rounding, so the decoded value is unbiased in expectation
// (Appendix A.1). The default d=8 yields the paper's 4× compression over the
// float32 wire format.
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Typed decode errors. Wire-facing decoders (internal/ps, fuzz targets)
// match on these with errors.Is to distinguish hostile payloads from
// programming mistakes.
var (
	// ErrBadWidth reports a quantization width outside SupportedBits.
	ErrBadWidth = errors.New("compress: unsupported bit width")
	// ErrBadHeader reports an out-of-range header field of a wire payload
	// (an unknown tag, a non-finite or negative scale).
	ErrBadHeader = errors.New("compress: invalid header")
	// ErrNonFinite reports an encoder input containing NaN or ±Inf, which
	// max-abs scaling cannot represent.
	ErrNonFinite = errors.New("compress: non-finite input")
)

// SupportedBits lists the allowed quantization widths. Widths below 8 pack
// multiple values per byte; 16 uses two bytes per value.
var SupportedBits = []uint{2, 4, 8, 16}

// ValidWidth reports whether bits is a supported fixed-point width.
func ValidWidth(bits uint) bool { return validBits(bits) }

func validBits(bits uint) bool {
	for _, b := range SupportedBits {
		if b == bits {
			return true
		}
	}
	return false
}

// Compressed is a quantized vector: Data packs len(values) signed bits-wide
// integers little-endian within each byte group, and MaxAbs is the scaling
// constant |c| (the largest absolute value in the original vector).
type Compressed struct {
	Bits   uint
	N      int
	MaxAbs float64
	Data   []byte
}

// Size returns the wire size in bytes of the compressed payload (excluding
// the small fixed header the transport adds).
func (c *Compressed) Size() int { return len(c.Data) + 8 /* MaxAbs */ + 8 /* bits+n */ }

// CompressedSize predicts the payload size for n values at the given width.
func CompressedSize(n int, bits uint) int {
	return PackedSize(n, bits) + 16
}

// Encoder quantizes vectors. It carries its own RNG so that stochastic
// rounding is deterministic given a seed — distributed tests rely on this.
// An Encoder is not safe for concurrent use; create one per goroutine.
type Encoder struct {
	rng *rand.Rand
}

// NewEncoder returns an Encoder seeded for reproducible stochastic rounding.
func NewEncoder(seed int64) *Encoder {
	return &Encoder{rng: rand.New(rand.NewSource(seed))}
}

// MaxAbs computes the fixed-point scale of a vector given in parts — its
// largest absolute value — and reports whether every element is finite; a
// vector with a NaN or an infinity has no fixed-point encoding.
func MaxAbs(parts ...[]float64) (maxAbs float64, finite bool) {
	sum := 0.0
	for _, part := range parts {
		for _, v := range part {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
			sum += v - v
		}
	}
	return maxAbs, sum == 0
}

// Encode quantizes values into a d-bit fixed-point representation:
//
//	q' = floor(q/|c| · (2^(d-1)-1)) + Bernoulli(frac)
//
// so that E[decode(q')] = q. A zero vector encodes with MaxAbs = 0 and an
// all-zero payload.
func (e *Encoder) Encode(values []float64, bits uint) (*Compressed, error) {
	if !validBits(bits) {
		return nil, fmt.Errorf("%w: %d", ErrBadWidth, bits)
	}
	maxAbs, finite := MaxAbs(values)
	if !finite {
		return nil, ErrNonFinite
	}
	c := &Compressed{Bits: bits, N: len(values), MaxAbs: maxAbs}
	c.Data = make([]byte, PackedSize(len(values), bits))
	e.pack(c.Data, 0, values, bits, maxAbs)
	return c, nil
}

// PackedSize returns the number of data bytes n values occupy at a
// fixed-point width.
func PackedSize(n int, bits uint) int { return (n*int(bits) + 7) / 8 }

// pack writes vals as elements [at, at+len(vals)) of the packed array. The
// 8- and 16-bit widths are byte-aligned, so they store whole bytes in loops
// of their own; the sub-byte widths share the bit-cursor loop.
//
// No level is clamped: |v| ≤ maxAbs makes |v/maxAbs·levels| ≤ levels, and
// rounding moves a value at most to the next integer, which is still a
// level. Normalizing before scaling matters: v/maxAbs is always in [-1, 1],
// whereas levels/maxAbs overflows to +Inf when maxAbs is denormal.
func (e *Encoder) pack(data []byte, at int, vals []float64, bits uint, maxAbs float64) {
	if maxAbs == 0 {
		return
	}
	levels := float64(int64(1)<<(bits-1) - 1) // e.g. 127 for 8 bits
	rng := e.rng
	switch bits {
	case 8:
		out := data[at : at+len(vals)]
		for i, v := range vals {
			t := v / maxAbs * levels
			f := math.Floor(t)
			q := int64(f)
			// One draw per element, exact levels (zeros) included: the
			// stream position is part of the encoding's reproducibility.
			if rng.Float64() < t-f {
				q++
			}
			out[i] = byte(q)
		}
	case 16:
		out := data[2*at : 2*(at+len(vals))]
		for i, v := range vals {
			t := v / maxAbs * levels
			f := math.Floor(t)
			q := int64(f)
			if rng.Float64() < t-f {
				q++
			}
			binary.LittleEndian.PutUint16(out[2*i:], uint16(q))
		}
	default:
		for i, v := range vals {
			t := v / maxAbs * levels
			f := math.Floor(t)
			q := int64(f)
			if rng.Float64() < t-f {
				q++
			}
			putBits(data, at+i, bits, uint64(q)&((1<<bits)-1))
		}
	}
}

// Decode reconstructs the float64 vector: q” = q' / (2^(d-1)-1) · |c|.
func Decode(c *Compressed) []float64 {
	out := make([]float64, c.N)
	addPacked(out, c.Data, 0, c.Bits, c.MaxAbs)
	return out
}

// DecodeInto adds the decoded values onto dst, the common case when a
// parameter server merges an incoming compressed histogram into the global
// one. dst must have length c.N.
func DecodeInto(dst []float64, c *Compressed) error {
	if len(dst) != c.N {
		return fmt.Errorf("compress: decode into %d values, payload has %d", len(dst), c.N)
	}
	addPacked(dst, c.Data, 0, c.Bits, c.MaxAbs)
	return nil
}

// addPacked adds elements [at, at+len(dst)) of a packed array onto dst,
// the inverse of pack with the same byte-aligned fast paths.
func addPacked(dst []float64, data []byte, at int, bits uint, maxAbs float64) {
	if maxAbs == 0 {
		return
	}
	levels := float64(int64(1)<<(bits-1) - 1)
	inv := maxAbs / levels
	switch bits {
	case 8:
		in := data[at : at+len(dst)]
		for i := range dst {
			dst[i] += float64(int8(in[i])) * inv
		}
	case 16:
		in := data[2*at : 2*(at+len(dst))]
		for i := range dst {
			dst[i] += float64(int16(binary.LittleEndian.Uint16(in[2*i:]))) * inv
		}
	default:
		for i := range dst {
			dst[i] += float64(signExtend(getBits(data, at+i, bits), bits)) * inv
		}
	}
}

// MaxError returns the worst-case absolute reconstruction error for this
// payload: one quantization step.
func (c *Compressed) MaxError() float64 {
	if c.MaxAbs == 0 {
		return 0
	}
	return c.MaxAbs / float64(int64(1)<<(c.Bits-1)-1)
}

// putBits writes the low `bits` bits of v at element index i.
func putBits(data []byte, i int, bits uint, v uint64) {
	bitPos := i * int(bits)
	for b := uint(0); b < bits; b += 8 {
		byteIdx := (bitPos + int(b)) / 8
		shift := uint(bitPos+int(b)) % 8
		chunk := byte(v >> b)
		if bits-b < 8 {
			chunk &= (1 << (bits - b)) - 1
		}
		data[byteIdx] |= chunk << shift
		if shift != 0 && int(8-shift) < int(bits-b) {
			data[byteIdx+1] |= chunk >> (8 - shift)
		}
	}
}

// getBits reads `bits` bits at element index i.
func getBits(data []byte, i int, bits uint) uint64 {
	bitPos := i * int(bits)
	var v uint64
	for b := uint(0); b < bits; b += 8 {
		byteIdx := (bitPos + int(b)) / 8
		shift := uint(bitPos+int(b)) % 8
		chunk := uint64(data[byteIdx] >> shift)
		if shift != 0 && byteIdx+1 < len(data) {
			chunk |= uint64(data[byteIdx+1]) << (8 - shift)
		}
		width := bits - b
		if width > 8 {
			width = 8
		}
		v |= (chunk & ((1 << width) - 1)) << b
	}
	return v
}

// signExtend interprets the low `bits` bits of raw as a signed integer.
func signExtend(raw uint64, bits uint) int64 {
	shift := 64 - bits
	return int64(raw<<shift) >> shift
}
