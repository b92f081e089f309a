package sketch

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"dimboost/internal/wire"
)

// TestSummaryWireForms: a summary's wire form is sized exactly by WireSize
// and read back by ReadSummary to the same tuples and count, in all four
// forms — float32 or float64 values, with or without (g, Δ) pairs. A summary
// that never compressed travels as its sorted values: the head and four
// bytes a value.
func TestSummaryWireForms(t *testing.T) {
	for _, tc := range []struct {
		name          string
		n             int
		value         func(i int) float64
		f32, counts   bool
		bytesPerValue int
	}{
		{"tail, float32", 10, func(i int) float64 { return float64(i) - 3.5 }, true, false, 4},
		{"tail, float64", 10, func(i int) float64 { return float64(i) + 0.1 }, false, false, 8},
		{"compressed, float32", 5000, func(i int) float64 { return float64(i % 977) }, true, true, 0},
		{"compressed, float64", 5000, func(i int) float64 { return math.Sqrt(float64(i)) }, false, true, 0},
	} {
		s := NewGK(0.02)
		for i := 0; i < tc.n; i++ {
			s.Insert(tc.value(i))
		}
		size := s.WireSize() // flushes
		head := s.wireHead()
		if f32, counts := head&summaryFloat32 != 0, head&summaryCounts != 0; f32 != tc.f32 || counts != tc.counts {
			t.Fatalf("%s: float32 %v and counts %v, want %v and %v", tc.name, f32, counts, tc.f32, tc.counts)
		}
		w := wire.NewWriter(0)
		s.WriteWire(w)
		if w.Len() != size {
			t.Fatalf("%s: %d bytes written, WireSize %d", tc.name, w.Len(), size)
		}
		if tc.bytesPerValue != 0 && w.Len() != 1+tc.bytesPerValue*tc.n {
			t.Fatalf("%s: %d bytes for %d raw values", tc.name, w.Len(), tc.n)
		}
		r := wire.NewReader(w.Bytes())
		got, err := ReadSummary(r, 0.02)
		if err != nil || r.Remaining() != 0 {
			t.Fatalf("%s: read back with %v, %d bytes left", tc.name, err, r.Remaining())
		}
		if fmt.Sprint(got.tuples) != fmt.Sprint(s.tuples) || got.Count() != s.Count() {
			t.Fatalf("%s: tuples or count changed on the wire", tc.name)
		}
	}
}

// TestReadSummaryRejects: a summary ReadSummary would have to trust — one
// Restore refuses, or one cut short — is a typed error.
func TestReadSummaryRejects(t *testing.T) {
	summary := func(head uint64, values []float64, pairs ...uint64) []byte {
		w := wire.NewWriter(0)
		w.Uvarint(head)
		for _, v := range values {
			w.Float64(v)
		}
		for _, p := range pairs {
			w.Uvarint(p)
		}
		return w.Bytes()
	}
	for _, tc := range []struct {
		name string
		body []byte
		want error
	}{
		{"NaN value", summary(2<<2, []float64{math.NaN(), 1}), ErrInvalidSummary},
		{"descending values", summary(2<<2, []float64{2, 1}), ErrInvalidSummary},
		{"g = 0", summary(2<<2|summaryCounts, []float64{0, 1}, 1, 0, 0, 0), ErrInvalidSummary},
		{"counts overflow", summary(2<<2|summaryCounts, []float64{0, 1}, math.MaxUint64, 0, 1, 0), ErrInvalidSummary},
		{"more values than bytes", summary(1<<40, nil), wire.ErrTruncated},
		{"missing pairs", summary(2<<2|summaryCounts, []float64{0, 1}, 1), wire.ErrTruncated},
		{"no head", nil, wire.ErrTruncated},
	} {
		if _, err := ReadSummary(wire.NewReader(tc.body), 0.02); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestCutsWireForm: a cut list travels as float32 exactly when every cut is
// one, and reads back bit for bit, −0 included.
func TestCutsWireForm(t *testing.T) {
	for _, cuts := range [][]float64{{0}, {-2, math.Copysign(0, -1), 3}, {-0.1, 0, 0.1}} {
		c := FromCuts(cuts)
		w := wire.NewWriter(0)
		c.WriteWire(w)
		if w.Len() != c.WireSize() {
			t.Fatalf("%v: %d bytes written, WireSize %d", cuts, w.Len(), c.WireSize())
		}
		got, err := ReadCuts(wire.NewReader(w.Bytes()))
		if err != nil {
			t.Fatalf("%v: %v", cuts, err)
		}
		for i := range cuts {
			if math.Float64bits(got.Cuts[i]) != math.Float64bits(cuts[i]) {
				t.Fatalf("%v read back as %v", cuts, got.Cuts)
			}
		}
		if f32 := c.wireHead()&cutsFloat32 != 0; f32 != (cuts[0] != -0.1) {
			t.Fatalf("%v: float32 form %v", cuts, f32)
		}
	}
}
