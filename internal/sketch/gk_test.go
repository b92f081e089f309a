package sketch

import (
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
}
