package sketch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// rankInterval returns the 1-based [min,max] rank interval of v in sorted xs
// (duplicate values occupy a whole interval of ranks).
func rankInterval(xs []float64, v float64) (lo, hi float64) {
	lo = float64(sort.SearchFloat64s(xs, v)) + 1
	hi = float64(sort.SearchFloat64s(xs, math.Nextafter(v, math.Inf(1))))
	if hi < lo {
		hi = lo // v absent: degenerate interval at its insertion point
	}
	return
}

// checkEps verifies that every φ-quantile query lands within εn ranks of the
// exact quantile, measuring distance to the returned value's rank interval.
func checkEps(t *testing.T, s *GK, sorted []float64, eps float64) {
	t.Helper()
	n := float64(len(sorted))
	slack := eps*n + 1 // +1 for integer rounding at small n
	for _, phi := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		got, err := s.Query(phi)
		if err != nil {
			t.Fatalf("Query(%v): %v", phi, err)
		}
		lo, hi := rankInterval(sorted, got)
		want := phi * n
		dist := 0.0
		if want < lo {
			dist = lo - want
		} else if want > hi {
			dist = want - hi
		}
		if dist > 2*slack {
			t.Errorf("phi=%v: value %v has ranks [%v,%v], want %v ± %v", phi, got, lo, hi, want, 2*slack)
		}
	}
}

func TestGKUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 20000
	const eps = 0.01
	s := NewGK(eps)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 100
		s.Insert(xs[i])
	}
	sort.Float64s(xs)
	checkEps(t, s, xs, eps)
}

func TestGKSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 20000
	const eps = 0.02
	s := NewGK(eps)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Exp(rng.NormFloat64() * 3) // heavy tail
		s.Insert(xs[i])
	}
	sort.Float64s(xs)
	checkEps(t, s, xs, eps)
}

func TestGKDuplicateHeavy(t *testing.T) {
	s := NewGK(0.01)
	xs := make([]float64, 0, 10000)
	for i := 0; i < 10000; i++ {
		v := float64(i % 5)
		s.Insert(v)
		xs = append(xs, v)
	}
	sort.Float64s(xs)
	checkEps(t, s, xs, 0.01)
}

func TestGKExtremes(t *testing.T) {
	s := NewGK(0.05)
	for i := 1; i <= 1000; i++ {
		s.Insert(float64(i))
	}
	lo, _ := s.Query(0)
	hi, _ := s.Query(1)
	if lo != 1 {
		t.Errorf("min = %v, want 1", lo)
	}
	if hi != 1000 {
		t.Errorf("max = %v, want 1000", hi)
	}
}

func TestGKEmptyAndNaN(t *testing.T) {
	s := NewGK(0.1)
	if _, err := s.Query(0.5); err == nil {
		t.Fatal("expected error on empty sketch")
	}
	s.Insert(math.NaN())
	if s.Count() != 0 {
		t.Fatal("NaN should be ignored")
	}
	s.Insert(7)
	v, err := s.Query(0.5)
	if err != nil || v != 7 {
		t.Fatalf("single-element query = %v, %v", v, err)
	}
}

func TestGKBadEps(t *testing.T) {
	for _, eps := range []float64{0, -1, 1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGK(%v) should panic", eps)
				}
			}()
			NewGK(eps)
		}()
	}
}

func TestGKSpaceBound(t *testing.T) {
	s := NewGK(0.01)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200000; i++ {
		s.Insert(rng.NormFloat64())
	}
	s.flush()
	// GK guarantees O((1/eps) log(eps n)); allow a generous constant.
	bound := int(11.0 / 0.01 * math.Log2(0.01*200000))
	if len(s.tuples) > bound {
		t.Fatalf("summary has %d tuples, bound %d", len(s.tuples), bound)
	}
}

// A sketch that has reached its size flushes into the array its previous
// flush merged out of: inserting into a hot feature stops allocating.
func TestGKFlushReusesItsArrays(t *testing.T) {
	s := NewGK(1.0 / 40)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50000; i++ {
		s.Insert(rng.Float64())
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 1000; i++ {
			s.Insert(rng.Float64())
		}
	})
	// The summary still creeps up by a tuple now and then (O(log εn)).
	if allocs > 1 {
		t.Errorf("%v allocations per 1000 inserts into a warm sketch, want at most 1", allocs)
	}
}

func TestGKMergePreservesBound(t *testing.T) {
	const eps = 0.02
	rng := rand.New(rand.NewSource(4))
	parts := make([]*GK, 8)
	var all []float64
	for p := range parts {
		parts[p] = NewGK(eps)
		for i := 0; i < 3000; i++ {
			v := rng.NormFloat64()*float64(p+1) + float64(p) // shards have different distributions
			parts[p].Insert(v)
			all = append(all, v)
		}
	}
	merged := NewGK(eps)
	for _, p := range parts {
		merged.Merge(p)
	}
	if merged.Count() != uint64(len(all)) {
		t.Fatalf("merged count %d, want %d", merged.Count(), len(all))
	}
	sort.Float64s(all)
	// merging k summaries can roughly double the error; allow 2eps here and
	// checkEps itself allows a 2x cushion.
	checkEps(t, merged, all, 2*eps)
}

func TestGKMergeIntoEmpty(t *testing.T) {
	a := NewGK(0.05)
	b := NewGK(0.05)
	for i := 0; i < 100; i++ {
		b.Insert(float64(i))
	}
	a.Merge(b)
	if a.Count() != 100 {
		t.Fatalf("count %d", a.Count())
	}
	v, _ := a.Query(0.5)
	if v < 30 || v > 70 {
		t.Fatalf("median %v far off", v)
	}
	// merging an empty sketch is a no-op
	before := a.Count()
	a.Merge(NewGK(0.05))
	if a.Count() != before {
		t.Fatal("merging empty changed count")
	}
}

// refFlush is the two-pass flush the fused one replaced, kept as its
// reference: merge the sorted buffer into a fresh array, then compress.
func refFlush(s *GK) {
	if len(s.buf) == 0 {
		return
	}
	sort.Float64s(s.buf)
	merged := make([]tuple, 0, len(s.tuples)+len(s.buf))
	i, j := 0, 0
	for i < len(s.tuples) || j < len(s.buf) {
		if j >= len(s.buf) || (i < len(s.tuples) && s.tuples[i].v <= s.buf[j]) {
			merged = append(merged, s.tuples[i])
			i++
			continue
		}
		v := s.buf[j]
		j++
		var delta uint64
		if len(merged) > 0 && (i < len(s.tuples)) {
			if d := uint64(2 * s.eps * float64(s.n+uint64(j))); d > 0 {
				delta = d - 1
			}
		}
		merged = append(merged, tuple{v: v, g: 1, delta: delta})
	}
	s.n += uint64(len(s.buf))
	s.buf = s.buf[:0]
	s.tuples = merged
	s.compress()
}

// refInsert is Insert over refFlush.
func refInsert(s *GK, v float64) {
	if math.IsNaN(v) {
		return
	}
	s.buf = append(s.buf, v)
	if len(s.buf) >= s.bufSize {
		refFlush(s)
	}
}

// flushAgrees feeds xs to a GK and to a reference GK and fails unless their
// summaries are bit-identical, after every checkEvery inserts (both sides
// flushing the partial buffer there) and at the end.
func flushAgrees(t *testing.T, eps float64, xs []float64, checkEvery int) {
	t.Helper()
	got, want := NewGK(eps), NewGK(eps)
	compare := func(at int) {
		t.Helper()
		refFlush(want)
		gv, gg, gd := got.Summary()
		wv, wg, wd := want.Summary()
		if len(gv) != len(wv) {
			t.Fatalf("eps %v, after %d values: %d tuples, reference %d", eps, at, len(gv), len(wv))
		}
		for i := range gv {
			if math.Float64bits(gv[i]) != math.Float64bits(wv[i]) || gg[i] != wg[i] || gd[i] != wd[i] {
				t.Fatalf("eps %v, after %d values: tuple %d is (%v, %d, %d), reference (%v, %d, %d)",
					eps, at, i, gv[i], gg[i], gd[i], wv[i], wg[i], wd[i])
			}
		}
		if got.Count() != want.Count() {
			t.Fatalf("eps %v, after %d values: count %d, reference %d", eps, at, got.Count(), want.Count())
		}
	}
	for i, x := range xs {
		got.Insert(x)
		refInsert(want, x)
		if checkEvery > 0 && (i+1)%checkEvery == 0 {
			compare(i + 1)
		}
	}
	compare(len(xs))
}

// TestGKFlushMatchesTwoPass: the fused merge-and-compress leaves exactly the
// summary the two-pass flush leaves, on duplicates, signed zeros, negatives
// and stream lengths at and around multiples of the buffer size.
func TestGKFlushMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, eps := range []float64{0.3, 1.0 / 40, 0.01, 0.002} {
		bs := NewGK(eps).bufSize
		var lengths []int
		for _, m := range []int{1, 2, 3, 10, 50} {
			lengths = append(lengths, m*bs-1, m*bs, m*bs+1)
		}
		lengths = append(lengths, 0, 5000)
		for _, n := range lengths {
			for _, g := range []struct {
				name string
				gen  func(i int) float64
			}{
				{"uniform", func(int) float64 { return rng.Float64()*200 - 100 }},
				{"duplicates", func(int) float64 { return float64(rng.Intn(4)) - 1.5 }},
				{"signed-zeros", func(int) float64 { return []float64{0, math.Copysign(0, -1), 1, -1}[rng.Intn(4)] }},
				{"ascending", func(i int) float64 { return float64(i) }},
				{"descending", func(i int) float64 { return -float64(i) }},
				{"heavy-tail", func(int) float64 { return math.Exp(rng.NormFloat64() * 4) }},
			} {
				xs := make([]float64, n)
				for i := range xs {
					xs[i] = g.gen(i)
				}
				t.Run(fmt.Sprintf("eps=%v/n=%d/%s", eps, n, g.name), func(t *testing.T) {
					flushAgrees(t, eps, xs, 0)
					flushAgrees(t, eps, xs, 7*bs/3)
				})
			}
		}
	}
}

// FuzzGKFlushAgrees holds the fused flush to the two-pass reference on
// arbitrary streams. Each input byte picks a value from a small palette —
// signed zeros, duplicates, negatives — except 0xFF, which takes the next
// eight bytes as raw float64 bits (NaN, ±Inf and subnormals included).
func FuzzGKFlushAgrees(f *testing.F) {
	f.Add(uint8(5), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21})
	f.Add(uint8(0), make([]byte, 64))
	f.Add(uint8(40), []byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox"))
	f.Add(uint8(99), append([]byte{0xFF, 0, 0, 0, 0, 0, 0, 0xF0, 0x7F}, make([]byte, 41)...))
	f.Fuzz(func(t *testing.T, epsSel uint8, data []byte) {
		eps := 0.004 + float64(epsSel%100)/200
		var xs []float64
		for i := 0; i < len(data); i++ {
			b := data[i]
			switch {
			case b == 0xFF && i+8 < len(data):
				xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data[i+1:])))
				i += 8
			case b%16 == 0:
				xs = append(xs, math.Copysign(0, -1))
			default:
				xs = append(xs, float64(int(b)-128)/8)
			}
		}
		flushAgrees(t, eps, xs, 5)
	})
}

func TestGKSummaryRestore(t *testing.T) {
	s := NewGK(0.02)
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.Float64()
		s.Insert(xs[i])
	}
	vals, gs, deltas := s.Summary()
	r, err := Restore(0.02, vals, gs, deltas)
	if err != nil {
		t.Fatal(err)
	}
	if r.Count() != s.Count() {
		t.Fatalf("restored count %d, want %d", r.Count(), s.Count())
	}
	sort.Float64s(xs)
	checkEps(t, r, xs, 0.02)

	if _, err := Restore(0.02, []float64{1, 2}, []uint64{1}, []uint64{0, 0}); err == nil {
		t.Fatal("expected mismatched-array error")
	}
	if _, err := Restore(0.02, []float64{2, 1}, []uint64{1, 1}, []uint64{0, 0}); err == nil {
		t.Fatal("expected unsorted error")
	}

	// Wire input no GK summary can be: every case is ErrInvalidSummary.
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name   string
		values []float64
		gs     []uint64
	}{
		{"mismatched", []float64{1, 2}, []uint64{1}},
		{"unsorted", []float64{2, 1}, []uint64{1, 1}},
		{"leading NaN", []float64{nan, 1}, []uint64{1, 1}},
		{"NaN hiding an unsorted pair", []float64{1, nan, 0}, []uint64{1, 1, 1}},
		{"trailing NaN", []float64{0, 1, nan}, []uint64{1, 1, 1}},
		{"+Inf", []float64{0, inf}, []uint64{1, 1}},
		{"-Inf", []float64{-inf, 0}, []uint64{1, 1}},
		{"g = 0", []float64{0, 1, 2}, []uint64{1, 0, 1}},
		{"count overflow", []float64{0, 1}, []uint64{math.MaxUint64, 1}},
	} {
		deltas := make([]uint64, len(c.values))
		if _, err := Restore(0.02, c.values, c.gs, deltas); !errors.Is(err, ErrInvalidSummary) {
			t.Errorf("%s: Restore returned %v, want ErrInvalidSummary", c.name, err)
		}
	}
	// Equal neighbours and signed zeros are what Summary produces.
	if _, err := Restore(0.02, []float64{math.Copysign(0, -1), 0, 0, 3}, []uint64{1, 2, 1, 1}, make([]uint64, 4)); err != nil {
		t.Fatalf("valid summary rejected: %v", err)
	}
}
