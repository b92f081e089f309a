package compress

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"dimboost/internal/wire"
)

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
		if err := s.Validate(); err != nil {
			t.Fatalf("bits=%d: self-validate: %v", bits, err)
		}
		b := s.Marshal()
		if len(b) != s.WireSize() {
			t.Fatalf("bits=%d: WireSize %d, marshal %d", bits, s.WireSize(), len(b))
		}
		s2, err := UnmarshalSparse(b)
		if err != nil {
			t.Fatalf("bits=%d: unmarshal: %v", bits, err)
		}
		if !bytes.Equal(s2.Marshal(), b) {
			t.Fatalf("bits=%d: remarshal differs", bits)
		}
		got := s2.Decode()
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
	st := Scan(values)
	nnz, spans := st.NNZ, st.Runs
	if nnz != 6 || spans != 3 {
		t.Fatalf("Scan = (%d,%d), want (6,3)", nnz, spans)
	}
	if s.NNZ() != 6 {
		t.Fatalf("NNZ = %d", s.NNZ())
	}
	if got := SparseWireSize(nnz, spans, RawFloat64); got != s.WireSize() {
		t.Fatalf("SparseWireSize %d, WireSize %d", got, s.WireSize())
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
	got := s.Decode()
	// A merge of -0.0 into a +0.0 accumulator yields +0.0, so dropping the
	// bucket is bit-identical to shipping it.
	if math.Signbit(got[0]) || math.Signbit(got[2]) {
		t.Fatal("decode resurrected a negative zero")
	}
}

func TestSparseDecodeIntoMerges(t *testing.T) {
	values := sparseVec(200, 0.1, 3)
	s, err := EncodeSparse(nil, values, RawFloat64)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 200)
	for i := range dst {
		dst[i] = 1
	}
	if err := s.DecodeInto(dst); err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		if dst[i] != 1+v {
			t.Fatalf("idx %d: %v, want %v", i, dst[i], 1+v)
		}
	}
	if err := s.DecodeInto(make([]float64, 3)); err == nil {
		t.Fatal("length mismatch accepted")
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
		for _, v := range s.Decode() {
			if v != 0 {
				t.Fatalf("bits=%d: nonzero decode", bits)
			}
		}
		e, err := EncodeSparse(NewEncoder(1), nil, bits)
		if err != nil {
			t.Fatalf("bits=%d empty: %v", bits, err)
		}
		if e.N != 0 || len(e.Decode()) != 0 {
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

func TestSparseValidateHostile(t *testing.T) {
	base := func() *Sparse {
		s, err := EncodeSparse(nil, []float64{0, 1, 2, 0, 3}, RawFloat32)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []struct {
		name   string
		mutate func(*Sparse)
		want   error
	}{
		{"bad width", func(s *Sparse) { s.Bits = 7 }, ErrBadWidth},
		{"NaN MaxAbs", func(s *Sparse) { s.MaxAbs = math.NaN() }, ErrBadHeader},
		{"negative MaxAbs", func(s *Sparse) { s.MaxAbs = -1 }, ErrBadHeader},
		{"empty span", func(s *Sparse) { s.Spans[0].Count = 0 }, ErrSpanOrder},
		{"overlap", func(s *Sparse) { s.Spans = []Span{{1, 2}, {2, 1}} }, ErrSpanOrder},
		{"out of order", func(s *Sparse) { s.Spans = []Span{{4, 1}, {1, 2}} }, ErrSpanOrder},
		{"past end", func(s *Sparse) { s.Spans[1].Count = 40 }, ErrSpanRange},
		{"overflowing span", func(s *Sparse) { s.Spans = []Span{{math.MaxUint32, math.MaxUint32}} }, ErrSpanRange},
		{"short data", func(s *Sparse) { s.Data = s.Data[:len(s.Data)-1] }, ErrSizeMismatch},
		{"long data", func(s *Sparse) { s.Data = append(s.Data, 0) }, ErrSizeMismatch},
	}
	for _, tc := range cases {
		s := base()
		tc.mutate(s)
		err := s.Validate()
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		// The wire path must reject it too, with the same typed error.
		if _, werr := UnmarshalSparse(s.Marshal()); !errors.Is(werr, tc.want) {
			t.Errorf("%s: unmarshal got %v, want %v", tc.name, werr, tc.want)
		}
	}
	// Negative N never survives the wire (it marshals as a huge uint32),
	// so it is a Validate-only rejection.
	s0 := base()
	s0.N = -1
	if err := s0.Validate(); !errors.Is(err, ErrBadHeader) {
		t.Errorf("negative N: %v", err)
	}
	// "overlapping span" case above mutates Spans without data; reconfirm the
	// adjacent-but-not-overlapping layout is legal.
	s := base()
	s.Spans = []Span{{1, 2}, {3, 1}}
	if err := s.Validate(); err != nil {
		t.Fatalf("adjacent spans rejected: %v", err)
	}
}

func TestSparseReadTruncated(t *testing.T) {
	s, err := EncodeSparse(NewEncoder(5), sparseVec(300, 0.1, 9), 8)
	if err != nil {
		t.Fatal(err)
	}
	b := s.Marshal()
	for cut := 0; cut < len(b); cut++ {
		if _, err := UnmarshalSparse(b[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := UnmarshalSparse(append(append([]byte(nil), b...), 0xff)); !errors.Is(err, ErrSizeMismatch) {
		t.Fatalf("trailing byte: %v", err)
	}
}

func TestSparseWriteToComposes(t *testing.T) {
	// Sparse payloads embed in larger messages: fields around them must
	// survive, and ReadSparse must consume exactly its own bytes.
	s, err := EncodeSparse(nil, []float64{0, 0, 2.5, -1, 0}, RawFloat64)
	if err != nil {
		t.Fatal(err)
	}
	w := wire.NewWriter(0)
	w.Uint32(0xfeedface)
	s.WriteTo(w)
	w.Uint32(0xcafed00d)
	r := wire.NewReader(w.Bytes())
	if r.Uint32() != 0xfeedface {
		t.Fatal("prefix lost")
	}
	s2, err := ReadSparse(r)
	if err != nil {
		t.Fatal(err)
	}
	if r.Uint32() != 0xcafed00d || r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("suffix lost: err=%v remaining=%d", r.Err(), r.Remaining())
	}
	got := s2.Decode()
	want := []float64{0, 0, 2.5, -1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("idx %d: %v != %v", i, got[i], want[i])
		}
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

func TestChoosingSparseByPredictedSize(t *testing.T) {
	// At 5% density the sparse form must be far smaller than dense; at
	// full density it must be larger (span + header overhead), which is
	// what the auto-chooser in internal/ps relies on.
	sparse := sparseVec(10000, 0.02, 13)
	st := Scan(sparse)
	nnz, spans := st.NNZ, st.Runs
	if SparseWireSize(nnz, spans, 8) >= 10000 {
		t.Fatalf("sparse %d bytes not smaller than dense %d", SparseWireSize(nnz, spans, 8), 10000)
	}
	densev := make([]float64, 100)
	for i := range densev {
		densev[i] = float64(i + 1)
	}
	st = Scan(densev)
	nnz, spans = st.NNZ, st.Runs
	if nnz != 100 || spans != 1 {
		t.Fatalf("Scan dense = (%d,%d)", nnz, spans)
	}
	if SparseWireSize(nnz, spans, 8) <= 100 {
		t.Fatal("fully dense vector predicted smaller as sparse")
	}
}
