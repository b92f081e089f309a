package compress

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// Edge-case coverage for the fixed-point codec: degenerate headers, extreme
// widths and magnitudes, and the quantization-error bound the distributed
// quality analysis depends on.

func TestMaxAbsZeroShard(t *testing.T) {
	// A shard whose buckets are all exactly zero (a worker saw no rows for
	// the partition) must encode with MaxAbs=0 and merge as a no-op
	// regardless of what the payload bytes claim.
	for _, bits := range SupportedBits {
		c, err := NewEncoder(1).Encode(make([]float64, 33), bits)
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		if c.MaxAbs != 0 {
			t.Fatalf("bits=%d: MaxAbs %v", bits, c.MaxAbs)
		}
		dst := []float64{1, 2, 3}
		dst = append(dst, make([]float64, 30)...)
		if err := DecodeInto(dst, c); err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		if dst[0] != 1 || dst[1] != 2 || dst[2] != 3 {
			t.Fatalf("bits=%d: zero shard mutated dst", bits)
		}
	}
}

func TestOneBitWidthRejected(t *testing.T) {
	// 1-bit signed fixed point has no positive level (the only values are
	// 0 and -1), so the codec refuses it rather than encode garbage.
	if _, err := NewEncoder(1).Encode([]float64{1, -1}, 1); !errors.Is(err, ErrBadWidth) {
		t.Fatalf("1-bit encode: %v", err)
	}
}

func TestSixteenBitExtremes(t *testing.T) {
	// 16-bit is the widest format: huge magnitudes, denormals, and mixed
	// signs must all stay within one quantization step.
	values := []float64{
		math.MaxFloat64 / 4, -math.MaxFloat64 / 4,
		5e-324, -5e-324, // denormals quantize to 0 at this scale
		0, 1, -1,
	}
	c, err := NewEncoder(2).Encode(values, 16)
	if err != nil {
		t.Fatal(err)
	}
	dec := Decode(c)
	step := c.MaxError()
	for i, v := range values {
		if math.Abs(dec[i]-v) > step*(1+1e-12) {
			t.Fatalf("idx %d: |%v - %v| > step %v", i, dec[i], v, step)
		}
	}
}

func TestNegativeInfRejected(t *testing.T) {
	if _, err := NewEncoder(3).Encode([]float64{math.Inf(-1)}, 8); err == nil {
		t.Fatal("-Inf accepted")
	}
}

func TestStochasticQuantizationErrorBound(t *testing.T) {
	// The stochastic encoder's bound is one full step (MaxError); assert it
	// across widths so a regression in clamping or packing is caught here
	// rather than as a distributed quality drift.
	rng := rand.New(rand.NewSource(23))
	values := make([]float64, 2000)
	for i := range values {
		values[i] = rng.NormFloat64() * 250
	}
	enc := NewEncoder(29)
	for _, bits := range SupportedBits {
		c, err := enc.Encode(values, bits)
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		step := c.MaxError()
		dec := Decode(c)
		for i, v := range values {
			if math.Abs(dec[i]-v) > step*(1+1e-12) {
				t.Fatalf("bits=%d idx=%d: error %v exceeds step %v", bits, i, math.Abs(dec[i]-v), step)
			}
		}
	}
}
