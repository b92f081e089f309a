package sketch

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// searchBucket is Bucket's reference: the binary search it replaced,
// clamped to the last bucket.
func searchBucket(cuts []float64, v float64) int {
	return min(sort.SearchFloat64s(cuts, v), len(cuts)-1)
}

// probes returns the values a cut list must be probed at: NaN, ±Inf, ±0,
// every cut, and the neighbouring float on either side of every cut.
func probes(cuts []float64) []float64 {
	vs := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	for _, c := range cuts {
		vs = append(vs, c, math.Nextafter(c, math.Inf(-1)), math.Nextafter(c, math.Inf(1)))
	}
	return vs
}

// bucketAgrees checks Bucket against the clamped binary search at every
// probe plus extra.
func bucketAgrees(t *testing.T, c Candidates, extra ...float64) {
	t.Helper()
	for _, v := range append(probes(c.Cuts), extra...) {
		want := searchBucket(c.Cuts, v)
		if got := c.Bucket(v); got != want {
			t.Fatalf("%d cuts %v: Bucket(%v) = %d, SearchFloat64s gives %d", len(c.Cuts), c.Cuts, v, got, want)
		}
	}
	if c.ZeroBucket != searchBucket(c.Cuts, 0) {
		t.Fatalf("%d cuts: ZeroBucket %d, SearchFloat64s gives %d", len(c.Cuts), c.ZeroBucket, searchBucket(c.Cuts, 0))
	}
}

// TestBucketMatchesSearch holds Bucket to sort.SearchFloat64s, clamped, on
// every cut-list length from 1 to 300, built the two ways the trainer builds them: newCandidates over raw
// values (duplicates, signed zeros, infinities, subnormals) and Propose
// over a GK sketch.
func TestBucketMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	specials := []float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64}
	gens := []func() float64{
		func() float64 { return rng.Float64()*200 - 100 },                          // uniform
		func() float64 { return rng.Float64() + 1e-9 },                             // positive: zero is injected
		func() float64 { return float64(rng.Intn(9)) - 4 },                         // duplicates
		func() float64 { return math.Exp(rng.NormFloat64() * 30) },                 // heavy tail
		func() float64 { return append(specials, rng.NormFloat64())[rng.Intn(8)] }, // specials
	}
	for n := 1; n <= 300; n++ {
		for _, gen := range gens {
			raw := make([]float64, n-1)
			for i := range raw {
				raw[i] = gen()
			}
			bucketAgrees(t, newCandidates(raw), gen(), gen())
		}
		s := NewGK(1 / (4 * float64(n)))
		for i := 0; i < 10*n; i++ {
			s.Insert(rng.NormFloat64())
		}
		bucketAgrees(t, Propose(s, n), rng.NormFloat64())
	}
	bucketAgrees(t, Propose(nil, 20))
}

// FuzzBucketAgrees holds Bucket to the clamped binary search on arbitrary
// cut lists of 1–300 cuts. Each input byte picks a cut from a small palette —
// signed zeros, duplicates, negatives — except 0xFF, which takes the next
// eight bytes as raw float64 bits (NaN, ±Inf and subnormals included).
func FuzzBucketAgrees(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}, 0.5)
	f.Add([]byte{}, math.NaN())
	f.Add(append([]byte{0xFF, 0, 0, 0, 0, 0, 0, 0xF0, 0x7F, 200}, make([]byte, 80)...), math.Inf(1))
	f.Fuzz(func(t *testing.T, data []byte, v float64) {
		var raw []float64
		for i := 0; i < len(data) && len(raw) < 299; i++ {
			b := data[i]
			switch {
			case b == 0xFF && i+8 < len(data):
				raw = append(raw, math.Float64frombits(binary.LittleEndian.Uint64(data[i+1:])))
				i += 8
			case b%16 == 0:
				raw = append(raw, math.Copysign(0, -1))
			default:
				raw = append(raw, float64(int(b)-128)/8)
			}
		}
		bucketAgrees(t, newCandidates(raw), v)
	})
}

// BenchmarkBucket times Bucket's count against the clamped binary search on
// cut lists of K cuts over values drawn uniformly across them — every bucket
// equally likely, so a search branch is a coin flip. Bucket's comment quotes
// it.
func BenchmarkBucket(b *testing.B) {
	for _, k := range []int{2, 8, 20, 32, 40, 48, 64, 255} {
		rng := rand.New(rand.NewSource(int64(k)))
		raw := make([]float64, k-1)
		for i := range raw {
			raw[i] = rng.Float64() + 1e-9
		}
		c := newCandidates(raw)
		vs := make([]float64, 4096)
		for i := range vs {
			vs[i] = rng.Float64()*1.1 - 0.05
		}
		for _, m := range []struct {
			name string
			fn   func(float64) int
		}{{"count", c.Bucket}, {"search", func(v float64) int { return searchBucket(c.Cuts, v) }}} {
			b.Run(fmt.Sprintf("K=%d/%s", len(c.Cuts), m.name), func(b *testing.B) {
				sum := 0
				for i := 0; i < b.N; i++ {
					sum += m.fn(vs[i&(len(vs)-1)])
				}
				if sum < 0 {
					b.Fatal(sum)
				}
			})
		}
	}
}
