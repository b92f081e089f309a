package compress

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// expand is the vector a sparse payload stands for: zeros outside its spans,
// the span values unpacked inside them.
func expand(s *Sparse) []float64 {
	nnz := 0
	for _, sp := range s.Spans {
		nnz += int(sp.Count)
	}
	vals := make([]float64, nnz)
	UnpackSpan(vals, s.Data, s.Bits, s.MaxAbs)
	out := make([]float64, s.N)
	for _, sp := range s.Spans {
		vals = vals[copy(out[sp.Start:sp.Start+sp.Count], vals):]
	}
	return out
}

// sparseWireSize is Sparse.WireSize worked out from a payload's shape.
func sparseWireSize(nnz, spans int, bits uint) int {
	return 1 + 4 + 8 + 4 + 8*spans + 4 + SpanDataSize(nnz, bits)
}

// sparseWidths is every width the sparse codec accepts.
var sparseWidths = []uint{RawFloat32, 2, 4, 8, 16, RawFloat64}

// sparseVec builds a mostly-zero vector with a few dense runs.
func sparseVec(n int, density float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := 0; i < n; {
		if rng.Float64() < density {
			run := 1 + rng.Intn(5)
			for j := 0; j < run && i < n; j++ {
				out[i] = rng.NormFloat64() * 50
				i++
			}
		} else {
			i += 1 + rng.Intn(10)
		}
	}
	return out
}

func TestSparseRoundTripAllWidths(t *testing.T) {
	values := sparseVec(5000, 0.05, 7)
	for _, bits := range sparseWidths {
		enc := NewEncoder(11)
		s, err := EncodeSparse(enc, values, bits)
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		nnz := 0
		for _, v := range values {
			if v != 0 {
				nnz++
			}
		}
		if s.N != len(values) || s.WireSize() != sparseWireSize(nnz, len(s.Spans), bits) {
			t.Fatalf("bits=%d: N %d, WireSize %d for %d values in %d spans", bits, s.N, s.WireSize(), nnz, len(s.Spans))
		}
		got := expand(s)
		var bound float64
		switch bits {
		case RawFloat64:
			bound = 0
		case RawFloat32:
			bound = 0 // checked via float32 narrowing below
		default:
			bound = s.MaxAbs / float64(int64(1)<<(bits-1)-1)
		}
		for i, v := range values {
			switch {
			case v == 0:
				if got[i] != 0 {
					t.Fatalf("bits=%d idx=%d: zero bucket decoded %v", bits, i, got[i])
				}
			case bits == RawFloat64:
				if math.Float64bits(got[i]) != math.Float64bits(v) {
					t.Fatalf("bits=%d idx=%d: %v != %v", bits, i, got[i], v)
				}
			case bits == RawFloat32:
				if got[i] != float64(float32(v)) {
					t.Fatalf("bits=%d idx=%d: %v != float32(%v)", bits, i, got[i], v)
				}
			default:
				if math.Abs(got[i]-v) > bound+1e-9 {
					t.Fatalf("bits=%d idx=%d: |%v-%v| > %v", bits, i, got[i], v, bound)
				}
			}
		}
	}
}

func TestSparseSpanStructure(t *testing.T) {
	values := []float64{0, 1, 2, 0, 0, 3, 0, 4, 5, 6}
	s, err := EncodeSparse(nil, values, RawFloat64)
	if err != nil {
		t.Fatal(err)
	}
	want := []Span{{1, 2}, {5, 1}, {7, 3}}
	if len(s.Spans) != len(want) {
		t.Fatalf("spans %v, want %v", s.Spans, want)
	}
	for i := range want {
		if s.Spans[i] != want[i] {
			t.Fatalf("span %d: %v, want %v", i, s.Spans[i], want[i])
		}
	}
	if want := sparseWireSize(6, 3, RawFloat64); s.WireSize() != want {
		t.Fatalf("WireSize %d, want %d", s.WireSize(), want)
	}
}

func TestSparseNegativeZeroTreatedAsZero(t *testing.T) {
	values := []float64{math.Copysign(0, -1), 1, math.Copysign(0, -1)}
	s, err := EncodeSparse(nil, values, RawFloat64)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Spans) != 1 || s.Spans[0] != (Span{1, 1}) {
		t.Fatalf("spans %v, want [{1 1}]", s.Spans)
	}
	if got := expand(s); math.Signbit(got[0]) || math.Signbit(got[2]) {
		t.Fatal("the payload resurrected a negative zero")
	}
}

func TestSparseAllZeroAndEmpty(t *testing.T) {
	for _, bits := range sparseWidths {
		s, err := EncodeSparse(NewEncoder(1), make([]float64, 64), bits)
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		if len(s.Spans) != 0 || len(s.Data) != 0 {
			t.Fatalf("bits=%d: all-zero vector carries payload %v", bits, s)
		}
		for _, v := range expand(s) {
			if v != 0 {
				t.Fatalf("bits=%d: nonzero decode", bits)
			}
		}
		e, err := EncodeSparse(NewEncoder(1), nil, bits)
		if err != nil {
			t.Fatalf("bits=%d empty: %v", bits, err)
		}
		if e.N != 0 || len(e.Spans) != 0 {
			t.Fatalf("bits=%d: empty vector decoded %d values", bits, e.N)
		}
	}
}

func TestSparseRejectsBadInput(t *testing.T) {
	if _, err := EncodeSparse(nil, []float64{1, math.NaN()}, RawFloat64); err == nil {
		t.Fatal("NaN accepted")
	}
	if _, err := EncodeSparse(nil, []float64{math.Inf(1)}, RawFloat32); err == nil {
		t.Fatal("+Inf accepted")
	}
	if _, err := EncodeSparse(NewEncoder(1), []float64{1}, 3); !errors.Is(err, ErrBadWidth) {
		t.Fatalf("width 3: %v", err)
	}
	if _, err := EncodeSparse(nil, []float64{1}, 8); err == nil {
		t.Fatal("nil encoder accepted for fixed-point width")
	}
}

// TestPackPresentKeepsTheStream: packing only the present values of a
// vector in parts gives, value for value, what PackSpans gives for the whole
// vector — the same stochastic rounding, since the absent values still draw —
// and leaves the rounding stream where PackSpans leaves it. UnpackSpan reads
// the packed values back, a raw −0 included.
func TestPackPresentKeepsTheStream(t *testing.T) {
	vals := sparseVec(300, 0.4, 17)
	vals[5] = math.Copysign(0, -1) // present: not +0 bit for bit
	present := make([]byte, (len(vals)+7)/8)
	var kept []int
	for i, v := range vals {
		if math.Float64bits(v) != 0 {
			present[i/8] |= 1 << (i % 8)
			kept = append(kept, i)
		}
	}
	parts := [][]float64{vals[:7], vals[7:8], vals[8:200], nil, vals[200:]}
	maxAbs, _ := MaxAbs(vals)
	for _, bits := range []uint{RawFloat32, RawFloat64, 2, 4, 8, 16} {
		whole := make([]byte, SpanDataSize(len(vals), bits))
		some := make([]byte, SpanDataSize(len(kept), bits))
		a, b := NewEncoder(3), NewEncoder(3)
		a.PackSpans(whole, bits, maxAbs, vals)
		b.PackPresent(some, bits, maxAbs, present, parts...)
		if bits != RawFloat32 && bits != RawFloat64 && a.rng.Int63() != b.rng.Int63() {
			t.Fatalf("%d bits: the rounding stream ends elsewhere", bits)
		}
		all := make([]float64, len(vals))
		UnpackSpan(all, whole, bits, maxAbs)
		got := make([]float64, len(kept))
		UnpackSpan(got, some, bits, maxAbs)
		for j, i := range kept {
			if math.Float64bits(got[j]) != math.Float64bits(all[i]) {
				t.Fatalf("%d bits: value %d decodes to %v packed alone, %v packed whole", bits, i, got[j], all[i])
			}
		}
		if bits == RawFloat64 && math.Float64bits(all[5]) != math.Float64bits(vals[5]) {
			t.Fatalf("−0 unpacked as %v", all[5])
		}
	}
}
