package wire

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestScalarRoundTrip(t *testing.T) {
	w := NewWriter(64)
	w.Uint8(7)
	w.Uint32(0xDEADBEEF)
	w.Uint64(1 << 60)
	w.Int32(-42)
	w.Int64(-1e15)
	w.Bool(true)
	w.Bool(false)
	w.Float32(3.5)
	w.Float64(math.Pi)
	w.String("dimboost")
	w.String("")

	r := NewReader(w.Bytes())
	if r.Uint8() != 7 || r.Uint32() != 0xDEADBEEF || r.Uint64() != 1<<60 {
		t.Fatal("unsigned round trip")
	}
	if r.Int32() != -42 || r.Int64() != -1e15 {
		t.Fatal("signed round trip")
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bool round trip")
	}
	if r.Float32() != 3.5 || r.Float64() != math.Pi {
		t.Fatal("float round trip")
	}
	if r.String() != "dimboost" || r.String() != "" {
		t.Fatal("string round trip")
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes remain", r.Remaining())
	}
}

func TestSliceRoundTrip(t *testing.T) {
	w := NewWriter(0)
	i32 := []int32{-1, 0, 1 << 30}
	u64 := []uint64{0, 42, 1 << 63}
	f64 := []float64{-1.5, 0, math.MaxFloat64}
	raw := []byte{1, 2, 3}
	w.Int32s(i32)
	w.Uint64s(u64)
	w.Float64s(f64)
	w.Bytes32(raw)
	w.Int32s(nil)

	r := NewReader(w.Bytes())
	if !reflect.DeepEqual(r.Int32s(), i32) {
		t.Fatal("int32s")
	}
	if !reflect.DeepEqual(r.Uint64s(), u64) {
		t.Fatal("uint64s")
	}
	if !reflect.DeepEqual(r.Float64s(), f64) {
		t.Fatal("float64s")
	}
	if !reflect.DeepEqual(r.Bytes32(), raw) {
		t.Fatal("bytes32")
	}
	if got := r.Int32s(); len(got) != 0 {
		t.Fatal("nil slice should decode empty")
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestFloat64sAs32(t *testing.T) {
	vs := []float64{1.5, -2.25, 1e10, 0}
	w := NewWriter(0)
	w.Float64sAs32(vs)
	if w.Len() != 4+4*4 {
		t.Fatalf("float32 wire size %d, want 20", w.Len())
	}
	r := NewReader(w.Bytes())
	got := r.Float64sFrom32()
	for i, v := range vs {
		if float32(v) != float32(got[i]) {
			t.Fatalf("idx %d: %v vs %v", i, got[i], v)
		}
	}
}

func TestTruncation(t *testing.T) {
	w := NewWriter(0)
	w.Uint64(1)
	data := w.Bytes()[:5]
	r := NewReader(data)
	r.Uint64()
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", r.Err())
	}
	// sticky: further reads return zero values, error unchanged
	if r.Uint32() != 0 || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatal("error should stick")
	}
}

// TestUvarint: varints round-trip at every length, UvarintLen counts what
// Uvarint writes, and one cut short or past 64 bits is a typed error.
func TestUvarint(t *testing.T) {
	w := NewWriter(0)
	var vs []uint64
	for shift := 0; shift < 64; shift += 7 {
		for _, v := range []uint64{1<<shift - 1, 1 << shift, 1<<shift + 1} {
			vs = append(vs, v)
			before := w.Len()
			w.Uvarint(v)
			if got := w.Len() - before; got != UvarintLen(v) {
				t.Fatalf("%d: %d bytes written, UvarintLen %d", v, got, UvarintLen(v))
			}
		}
	}
	vs = append(vs, math.MaxUint64)
	w.Uvarint(math.MaxUint64)
	r := NewReader(w.Bytes())
	for _, v := range vs {
		if got := r.Uvarint(); got != v {
			t.Fatalf("%d read back as %d", v, got)
		}
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("err %v, %d bytes left", r.Err(), r.Remaining())
	}
	if r := NewReader([]byte{0x80, 0x80}); r.Uvarint() != 0 || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("a cut varint: err %v", r.Err())
	}
	long := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}
	if r := NewReader(long); r.Uvarint() != 0 || !errors.Is(r.Err(), ErrVarint) {
		t.Fatalf("a varint past 64 bits: err %v", r.Err())
	}
}

func TestHostileLengthPrefix(t *testing.T) {
	// a declared element count far beyond the remaining bytes must fail
	// cleanly instead of allocating gigabytes
	w := NewWriter(0)
	w.Uint32(1 << 30) // bogus count
	r := NewReader(w.Bytes())
	if got := r.Float64s(); got != nil {
		t.Fatal("expected nil")
	}
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("err = %v", r.Err())
	}
	r2 := NewReader(w.Bytes())
	if r2.String() != "" || r2.Err() == nil {
		t.Fatal("hostile string length accepted")
	}
}

func TestQuickRoundTripProperty(t *testing.T) {
	f := func(a uint64, b int32, s string, fs []float64, is []int32) bool {
		w := NewWriter(0)
		w.Uint64(a)
		w.Int32(b)
		w.String(s)
		w.Float64s(fs)
		w.Int32s(is)
		r := NewReader(w.Bytes())
		if r.Uint64() != a || r.Int32() != b || r.String() != s {
			return false
		}
		gfs := r.Float64s()
		gis := r.Int32s()
		if r.Err() != nil || r.Remaining() != 0 {
			return false
		}
		if len(gfs) != len(fs) || len(gis) != len(is) {
			return false
		}
		for i := range fs {
			if gfs[i] != fs[i] && !(math.IsNaN(gfs[i]) && math.IsNaN(fs[i])) {
				return false
			}
		}
		for i := range is {
			if gis[i] != is[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestBytes32Copies(t *testing.T) {
	w := NewWriter(0)
	w.Bytes32([]byte{9, 9})
	buf := w.Bytes()
	r := NewReader(buf)
	got := r.Bytes32()
	buf[4] = 1 // mutate underlying buffer
	if got[0] != 9 {
		t.Fatal("Bytes32 must copy out of the receive buffer")
	}
}

func TestSkip(t *testing.T) {
	w := NewWriter(0)
	w.Uint32(7)
	w.Uint64(9)
	w.Uint32(11)
	r := NewReader(w.Bytes())
	if r.Uint32() != 7 {
		t.Fatal("first read")
	}
	r.Skip(8)
	if r.Uint32() != 11 || r.Err() != nil {
		t.Fatal("skip landed wrong")
	}
	// skipping past the end is a sticky truncation error
	r2 := NewReader(w.Bytes())
	r2.Skip(1000)
	if !errors.Is(r2.Err(), ErrTruncated) {
		t.Fatalf("err = %v", r2.Err())
	}
	r3 := NewReader(w.Bytes())
	r3.Skip(-1)
	if r3.Err() == nil {
		t.Fatal("negative skip accepted")
	}
	if r3.Remaining() != 16 {
		t.Fatal("failed skip moved the cursor")
	}
}

func TestRestAliases(t *testing.T) {
	w := NewWriter(0)
	w.Uint32(1)
	w.Uint32(2)
	r := NewReader(w.Bytes())
	r.Uint32()
	rest := r.Rest()
	if len(rest) != 4 {
		t.Fatalf("rest %d bytes", len(rest))
	}
	if r.Uint32() != 2 {
		t.Fatal("Rest consumed the buffer")
	}
}

// TestResetExtendReuse: a reused Writer must hand out zeroed regions even
// when its storage still holds an earlier message — codecs that OR bits into
// an Extend region depend on it — and must not reallocate when the next
// message fits.
func TestResetExtendReuse(t *testing.T) {
	w := NewWriter(0)
	w.Uint32(0xffffffff)
	first := w.Extend(64)
	for i := range first {
		first[i] = 0xff
	}
	base := &w.Bytes()[0]

	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("Reset left %d bytes", w.Len())
	}
	w.Uint8(7)
	region := w.Extend(40)
	if len(region) != 40 || w.Len() != 41 {
		t.Fatalf("Extend(40) gave %d bytes, writer has %d", len(region), w.Len())
	}
	for i, b := range region {
		if b != 0 {
			t.Fatalf("reused byte %d not cleared: %#x", i, b)
		}
	}
	if &w.Bytes()[0] != base {
		t.Fatal("a smaller message reallocated the reused buffer")
	}
	region[39] = 9
	if got := w.Bytes(); got[0] != 7 || got[40] != 9 {
		t.Fatal("Extend region does not alias the message")
	}
	// growth path: past capacity, still zeroed and appended in place
	big := w.Extend(1 << 12)
	for _, b := range big {
		if b != 0 {
			t.Fatal("grown region not zeroed")
		}
	}
	if w.Len() != 41+1<<12 || w.Bytes()[40] != 9 {
		t.Fatal("growth lost the message so far")
	}
}

func TestRawAliasesAndBounds(t *testing.T) {
	w := NewWriter(0)
	w.Raw([]byte{1, 2, 3, 4})
	buf := w.Bytes()
	r := NewReader(buf)
	got := r.Raw(3)
	if len(got) != 3 || &got[0] != &buf[0] {
		t.Fatal("Raw must alias the reader's buffer")
	}
	if r.Raw(0) == nil || r.Err() != nil {
		t.Fatal("empty Raw read failed")
	}
	if r.Raw(2) != nil || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("overlong Raw: err = %v", r.Err())
	}
	r2 := NewReader(buf)
	if r2.Raw(-1) != nil || r2.Err() == nil || r2.Remaining() != 4 {
		t.Fatal("negative Raw length accepted")
	}
}
