package sketch

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// weightedRank computes the exact cumulative weight of values <= v.
func weightedRank(vals, weights []float64, v float64) float64 {
	var r float64
	for i, x := range vals {
		if x <= v {
			r += weights[i]
		}
	}
	return r
}

func checkWeightedEps(t *testing.T, s *WeightedGK, vals, weights []float64, eps float64) {
	t.Helper()
	var total float64
	for _, w := range weights {
		total += w
	}
	for _, phi := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
		got, err := s.Query(phi)
		if err != nil {
			t.Fatal(err)
		}
		// rank interval of got: [rank(<got), rank(<=got)]
		lo := weightedRank(vals, weights, math.Nextafter(got, math.Inf(-1)))
		hi := weightedRank(vals, weights, got)
		target := phi * total
		dist := 0.0
		if target < lo {
			dist = lo - target
		} else if target > hi {
			dist = target - hi
		}
		if dist > 2.5*eps*total {
			t.Errorf("phi=%v: value %v ranks [%v,%v], target %v ± %v", phi, got, lo, hi, target, 2.5*eps*total)
		}
	}
}

func TestWeightedGKUniformWeights(t *testing.T) {
	// with equal weights it behaves like plain GK
	rng := rand.New(rand.NewSource(1))
	s := NewWeightedGK(0.02)
	n := 10000
	vals := make([]float64, n)
	weights := make([]float64, n)
	for i := range vals {
		vals[i] = rng.NormFloat64()
		weights[i] = 1
		s.Insert(vals[i], 1)
	}
	checkWeightedEps(t, s, vals, weights, 0.02)
}

func TestWeightedGKSkewedWeights(t *testing.T) {
	// heavy weights shift quantiles toward the heavy values
	rng := rand.New(rand.NewSource(2))
	s := NewWeightedGK(0.02)
	n := 8000
	vals := make([]float64, n)
	weights := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64() * 100
		if vals[i] > 80 {
			weights[i] = 50 // top 20% of values carry most weight
		} else {
			weights[i] = 1
		}
		s.Insert(vals[i], weights[i])
	}
	checkWeightedEps(t, s, vals, weights, 0.02)
	med, err := s.Query(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if med < 75 {
		t.Fatalf("weighted median %v should sit in the heavy region (>80ish)", med)
	}
}

func TestWeightedGKIgnoresBadInput(t *testing.T) {
	s := NewWeightedGK(0.1)
	s.Insert(math.NaN(), 1)
	s.Insert(1, 0)
	s.Insert(1, -2)
	s.Insert(math.Inf(1), 1)
	s.Insert(1, math.Inf(1))
	if s.Weight() != 0 {
		t.Fatalf("weight %v after garbage inserts", s.Weight())
	}
	if _, err := s.Query(0.5); err == nil {
		t.Fatal("empty query should error")
	}
}

func TestWeightedGKMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var vals, weights []float64
	parts := make([]*WeightedGK, 4)
	for p := range parts {
		parts[p] = NewWeightedGK(0.02)
		for i := 0; i < 3000; i++ {
			v := rng.NormFloat64() + float64(p)
			w := rng.Float64()*2 + 0.1
			parts[p].Insert(v, w)
			vals = append(vals, v)
			weights = append(weights, w)
		}
	}
	merged := NewWeightedGK(0.02)
	for _, p := range parts {
		merged.Merge(p)
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	if math.Abs(merged.Weight()-total) > 1e-6*total {
		t.Fatalf("merged weight %v, want %v", merged.Weight(), total)
	}
	checkWeightedEps(t, merged, vals, weights, 2*0.02)
}

func TestWeightedGKSpaceStaysBounded(t *testing.T) {
	s := NewWeightedGK(0.02)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100000; i++ {
		s.Insert(rng.NormFloat64(), rng.Float64()+0.01)
	}
	s.flush()
	if len(s.tuples) > 5000 {
		t.Fatalf("summary has %d tuples", len(s.tuples))
	}
}

func TestProposeWeighted(t *testing.T) {
	s := NewWeightedGK(0.02)
	for i := 1; i <= 1000; i++ {
		s.Insert(float64(i), 1)
	}
	c := ProposeWeighted(s, 10)
	if !sort.Float64sAreSorted(c.Cuts) {
		t.Fatal("cuts not sorted")
	}
	hasZero := false
	for _, v := range c.Cuts {
		if v == 0 {
			hasZero = true
		}
	}
	if !hasZero {
		t.Fatal("zero cut missing")
	}
	if c.NumBuckets() < 8 {
		t.Fatalf("only %d buckets for 1000 distinct values", c.NumBuckets())
	}
	// empty propose
	if ProposeWeighted(nil, 5).NumBuckets() != 1 {
		t.Fatal("nil propose")
	}
	if ProposeWeighted(NewWeightedGK(0.1), 5).NumBuckets() != 1 {
		t.Fatal("empty propose")
	}
}

// refWeightedFlush is the two-pass WeightedGK flush the fused one replaced,
// kept as its reference: sort.Slice, merge into a fresh array, compress.
func refWeightedFlush(s *WeightedGK) {
	if len(s.buf) == 0 {
		return
	}
	sort.Slice(s.buf, func(a, b int) bool { return s.buf[a].v < s.buf[b].v })
	merged := make([]wtuple, 0, len(s.tuples)+len(s.buf))
	i, j := 0, 0
	var pending float64
	for _, p := range s.buf {
		pending += p.w
	}
	newTotal := s.weight + pending
	for i < len(s.tuples) || j < len(s.buf) {
		if j >= len(s.buf) || (i < len(s.tuples) && s.tuples[i].v <= s.buf[j].v) {
			merged = append(merged, s.tuples[i])
			i++
			continue
		}
		p := s.buf[j]
		j++
		var delta float64
		if len(merged) > 0 && i < len(s.tuples) {
			if d := 2 * s.eps * newTotal; d > p.w {
				delta = d - p.w
			}
		}
		merged = append(merged, wtuple{v: p.v, g: p.w, delta: delta})
	}
	s.weight = newTotal
	s.buf = s.buf[:0]
	s.tuples = merged
	s.compress()
}

// TestWeightedGKFlushMatchesTwoPass: the fused, array-reusing flush leaves
// the two-pass reference's summary bit for bit — equal values carrying
// different weights included, whose order the sort must not change — and a
// warm sketch's flushes stop allocating.
func TestWeightedGKFlushMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, eps := range []float64{0.3, 0.02, 0.004} {
		for _, c := range []struct {
			name string
			pair func() (float64, float64)
		}{
			{"uniform", func() (float64, float64) { return rng.NormFloat64(), rng.Float64() + 0.01 }},
			// A few values, each arriving with many different weights: ties
			// everywhere, and the fold order of their weights shows in the bits.
			{"tied values", func() (float64, float64) { return float64(rng.Intn(5)), rng.ExpFloat64() }},
			{"signed zeros", func() (float64, float64) {
				return []float64{0, math.Copysign(0, -1)}[rng.Intn(2)], 0.1 + rng.Float64()
			}},
			{"hessian-like", func() (float64, float64) { return rng.Float64()*10 - 5, 0.25 * rng.Float64() * (1 - rng.Float64()) }},
		} {
			got, want := NewWeightedGK(eps), NewWeightedGK(eps)
			for i := 0; i < 20000; i++ {
				v, w := c.pair()
				got.Insert(v, w)
				if want.buf = append(want.buf, wpair{v, w}); len(want.buf) >= want.bufCap {
					refWeightedFlush(want)
				}
			}
			got.flush()
			refWeightedFlush(want)
			if math.Float64bits(got.weight) != math.Float64bits(want.weight) || len(got.tuples) != len(want.tuples) {
				t.Fatalf("eps %v %s: weight %v over %d tuples, reference %v over %d",
					eps, c.name, got.weight, len(got.tuples), want.weight, len(want.tuples))
			}
			for i, g := range got.tuples {
				r := want.tuples[i]
				if math.Float64bits(g.v) != math.Float64bits(r.v) || math.Float64bits(g.g) != math.Float64bits(r.g) ||
					math.Float64bits(g.delta) != math.Float64bits(r.delta) {
					t.Fatalf("eps %v %s: tuple %d is %+v, reference %+v", eps, c.name, i, g, r)
				}
			}
		}
	}

	s := NewWeightedGK(1.0 / 40)
	for i := 0; i < 50000; i++ {
		s.Insert(rng.Float64(), rng.Float64()+0.01)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 1000; i++ {
			s.Insert(rng.Float64(), rng.Float64()+0.01)
		}
	})
	if allocs > 1 {
		t.Errorf("%v allocations per 1000 inserts into a warm weighted sketch, want at most 1", allocs)
	}
}

func TestWeightedExtremes(t *testing.T) {
	s := NewWeightedGK(0.05)
	for i := 1; i <= 100; i++ {
		s.Insert(float64(i), float64(i))
	}
	lo, _ := s.Query(0)
	hi, _ := s.Query(1)
	if lo != 1 || hi != 100 {
		t.Fatalf("extremes %v..%v", lo, hi)
	}
}
