package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// fuzzWidth maps a fuzzed selector byte onto a supported sparse width.
func fuzzWidth(sel uint8) uint {
	widths := []uint{RawFloat32, 2, 4, 8, 16, RawFloat64}
	return widths[int(sel)%len(widths)]
}

// fuzzValues derives a finite, partly-sparse float vector from raw bytes:
// each 8-byte group is a float64 bit pattern; non-finite patterns and
// every group whose low three bits are zero become exact zeros, giving the
// encoder realistic zero runs to elide.
func fuzzValues(blob []byte) []float64 {
	out := make([]float64, 0, len(blob)/8)
	for i := 0; i+8 <= len(blob); i += 8 {
		u := binary.LittleEndian.Uint64(blob[i : i+8])
		v := math.Float64frombits(u)
		if math.IsNaN(v) || math.IsInf(v, 0) || u&0x7 == 0 {
			v = 0
		}
		out = append(out, v)
	}
	return out
}

// FuzzSparseRoundTrip checks the encoder: any finite vector, at any width,
// must encode into one span per maximal run of nonzeros, with WireSize the
// size of that shape, zeros outside the spans and span values within the
// width's error bound (bit-exact for RawFloat64).
func FuzzSparseRoundTrip(f *testing.F) {
	f.Add(uint8(5), []byte{})
	f.Add(uint8(0), bytes.Repeat([]byte{0}, 64))
	seed := make([]byte, 0, 128)
	for _, v := range []float64{0, 1.5, -2.25, 0, 0, 1e300, -1e-300, 3, 0, 7} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	for sel := uint8(0); sel < 6; sel++ {
		f.Add(sel, seed)
	}
	f.Fuzz(func(t *testing.T, sel uint8, blob []byte) {
		bits := fuzzWidth(sel)
		values := fuzzValues(blob)
		s, err := EncodeSparse(NewEncoder(int64(sel)+1), values, bits)
		if err != nil {
			t.Fatalf("encode rejected finite input: %v", err)
		}
		nnz, spans := 0, 0
		for i, v := range values {
			if v != 0 {
				nnz++
				if i == 0 || values[i-1] == 0 {
					spans++
				}
			}
		}
		if len(s.Spans) != spans || s.WireSize() != sparseWireSize(nnz, spans, bits) {
			t.Fatalf("%d spans, WireSize %d; the vector has %d runs of %d nonzeros (%d bytes)",
				len(s.Spans), s.WireSize(), spans, nnz, sparseWireSize(nnz, spans, bits))
		}
		next := 0
		for _, sp := range s.Spans {
			if int(sp.Start) < next || sp.Count == 0 || int(sp.Start+sp.Count) > len(values) {
				t.Fatalf("span %+v after %d in %d values", sp, next, len(values))
			}
			next = int(sp.Start + sp.Count)
		}
		got := expand(s)
		if len(got) != len(values) {
			t.Fatalf("decoded %d values, want %d", len(got), len(values))
		}
		step := 0.0
		if bits != RawFloat32 && bits != RawFloat64 && s.MaxAbs > 0 {
			step = s.MaxAbs / float64(int64(1)<<(bits-1)-1)
		}
		for i, v := range values {
			switch {
			case v == 0:
				if got[i] != 0 {
					t.Fatalf("idx %d: zero decoded as %v", i, got[i])
				}
			case bits == RawFloat64:
				if math.Float64bits(got[i]) != math.Float64bits(v) {
					t.Fatalf("idx %d: raw64 %v != %v", i, got[i], v)
				}
			case bits == RawFloat32:
				if got[i] != float64(float32(v)) {
					t.Fatalf("idx %d: raw32 %v != %v", i, got[i], v)
				}
			default:
				// The absolute 1e-300 term absorbs ulp-level rounding when
				// MaxAbs/levels is subnormal and has only a few mantissa bits.
				if math.Abs(got[i]-v) > step*(1+1e-9)+1e-300 {
					t.Fatalf("idx %d: error %v > step %v", i, math.Abs(got[i]-v), step)
				}
			}
		}
	})
}

// genericEncode is the fixed-point quantizer as it was before the
// byte-aligned kernels: one putBits per element at any width, every level
// clamped.
func genericEncode(rng *rand.Rand, values []float64, bits uint) (maxAbs float64, data []byte) {
	for _, v := range values {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	data = make([]byte, (len(values)*int(bits)+7)/8)
	if maxAbs == 0 {
		return
	}
	levels := float64(int64(1)<<(bits-1) - 1)
	lo, hi := -(int64(1) << (bits - 1)), int64(1)<<(bits-1)-1
	for i, v := range values {
		t := v / maxAbs * levels
		f := math.Floor(t)
		q := int64(f)
		if rng.Float64() < t-f {
			q++
		}
		if q < lo {
			q = lo
		}
		if q > hi {
			q = hi
		}
		putBits(data, i, bits, uint64(q)&((1<<bits)-1))
	}
	return
}

// FuzzFixedKernelsAgree pins the byte-aligned 8- and 16-bit loops (and, for
// completeness, the sub-byte cursor path they branch around) to the generic
// bit-at-a-time codec: same bytes out of Encode for the same rounding
// stream, same bytes when the vector arrives in two parts through
// PackSpans, and the same floats added by DecodeInto.
func FuzzFixedKernelsAgree(f *testing.F) {
	seed := make([]byte, 0, 128)
	for _, v := range []float64{0, 1.5, -2.25, 0, 0, 1e300, -1e-300, 3, 0, 7, -7, 5e-324} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	for sel := uint8(0); sel < 4; sel++ {
		f.Add(sel, int64(sel)+1, uint16(5), seed)
	}
	f.Add(uint8(3), int64(9), uint16(0), []byte{})
	// The two parts split at element 4: a byte boundary at every width, so
	// the sub-byte cursor resumes a fresh byte where cut 5 resumes mid-byte.
	for sel := uint8(0); sel < 4; sel++ {
		f.Add(sel, int64(sel)+5, uint16(4), seed)
	}
	f.Fuzz(func(t *testing.T, sel uint8, rngSeed int64, cut uint16, blob []byte) {
		bits := []uint{16, 8, 4, 2}[sel&3]
		values := fuzzValues(blob)
		enc, ref := NewEncoder(rngSeed), rand.New(rand.NewSource(rngSeed))
		c, err := enc.Encode(values, bits)
		if err != nil {
			t.Fatalf("encode rejected finite input: %v", err)
		}
		wantMax, want := genericEncode(ref, values, bits)
		if math.Float64bits(c.MaxAbs) != math.Float64bits(wantMax) || !bytes.Equal(c.Data, want) {
			t.Fatalf("%d-bit Encode differs from the generic packer", bits)
		}

		// The same vector in two parts, straight into a caller's buffer.
		k := 0
		if len(values) > 0 {
			k = int(cut) % (len(values) + 1)
		}
		parts := [][]float64{values[:k], values[k:]}
		spans := make([]byte, SpanDataSize(len(values), bits))
		NewEncoder(rngSeed).PackSpans(spans, bits, wantMax, parts...)
		if !bytes.Equal(spans, want) {
			t.Fatalf("%d-bit PackSpans over parts [:%d],[%d:] differs from Encode", bits, k, k)
		}

		// Decode-into against the generic reader, onto a non-zero base.
		got := make([]float64, len(values))
		wantDec := make([]float64, len(values))
		for i := range got {
			got[i], wantDec[i] = float64(i)-3, float64(i)-3
		}
		if err := DecodeInto(got, c); err != nil {
			t.Fatal(err)
		}
		if wantMax != 0 {
			inv := wantMax / float64(int64(1)<<(bits-1)-1)
			for i := range wantDec {
				wantDec[i] += float64(signExtend(getBits(want, i, bits), bits)) * inv
			}
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(wantDec[i]) {
				t.Fatalf("%d-bit DecodeInto idx %d: %v, generic %v", bits, i, got[i], wantDec[i])
			}
		}
	})
}
