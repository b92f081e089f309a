package sketch

import (
	"slices"
	"sort"

	"dimboost/internal/dataset"
	"dimboost/internal/parallel"
)

// Candidates holds the split cut points of one feature in ascending order.
// Bucket k holds values in (Cuts[k-1], Cuts[k]]; the last bucket additionally
// absorbs everything above the largest cut. One cut always equals 0, so the
// "zero bucket" of the sparsity-aware histogram construction (§5.1) is well
// defined even for features with negative values.
type Candidates struct {
	Cuts []float64
	// ZeroBucket caches Bucket(0).
	ZeroBucket int
}

// NumBuckets returns the number of histogram buckets for this feature.
func (c Candidates) NumBuckets() int { return len(c.Cuts) }

// CanSplit reports whether the feature has a split to offer: more than one
// bucket. ZeroCut, a feature no row has a nonzero of, has not.
func (c Candidates) CanSplit() bool { return len(c.Cuts) > 1 }

// Bucket maps a feature value to its histogram bucket: the smallest k with
// v <= Cuts[k], or the last bucket when v exceeds every cut (or is NaN).
// That is sort.SearchFloat64s(Cuts, v) clamped to the last bucket, computed
// by counting the cuts that are not >= v: the cuts are sorted ascending
// (sort.Float64s order, NaNs first), so those form a prefix, and a NaN v
// counts every cut. The negated compare compiles to UCOMISD + CMOVQCC, so a
// value's bucket costs no branch mispredictions, which dominate a binary
// search's time on short cut lists. BenchmarkBucket on a 2-core Xeon @
// 2.10 GHz (go1.24.0), ns per value, count / binary search, by number of
// cuts K:
//
//	K=2 3.5/4.2   8 6.7/14.0   20 10.9/21.1   32 17.4/20.3
//	K=40 22.0/22.2   48 25.0/22.5   64 36.4/27.1   255 155/39
//
// The trainer's default 20 candidates give 21 cuts; the count only loses
// past about 40.
func (c Candidates) Bucket(v float64) int {
	k := 0
	for _, cut := range c.Cuts {
		if !(cut >= v) {
			k++
		}
	}
	return min(k, len(c.Cuts)-1)
}

// SplitValue returns the threshold of splitting after bucket k ("x <= value
// goes left"). Splits at the last bucket are not meaningful (everything goes
// left) and are never proposed by the split finder.
func (c Candidates) SplitValue(k int) float64 { return c.Cuts[k] }

// newCandidates sorts, deduplicates, and injects the zero cut, in cuts'
// array, and keeps an exact-length copy: a layout holds one cut list per
// feature for the whole run, and deduplication often leaves a couple of cuts
// of the k+1 proposed.
func newCandidates(cuts []float64) Candidates {
	cuts = append(cuts, 0)
	sort.Float64s(cuts)
	out := cuts[:0]
	for i, v := range cuts {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	c := Candidates{Cuts: make([]float64, len(out))}
	copy(c.Cuts, out)
	c.ZeroBucket = c.Bucket(0)
	return c
}

// zeroCut is the candidate set of a feature without a nonzero value: the zero
// cut alone. Every such feature shares its array, which len == cap == 1 keeps
// from being aliased by an append; nothing writes a cut list in place.
var zeroCut = Candidates{Cuts: []float64{0}[:1:1]}

// ZeroCut returns the candidate set of a feature no row has a nonzero of:
// the zero cut alone, one bucket. The cut list is shared and read-only.
func ZeroCut() Candidates { return zeroCut }

// FromCuts rebuilds a Candidates value from serialized cut points (which
// already include the zero cut and are sorted and deduplicated).
func FromCuts(cuts []float64) Candidates {
	c := Candidates{Cuts: cuts}
	c.ZeroBucket = c.Bucket(0)
	return c
}

// Propose extracts at most k cut points from the sketch as the 1/k .. k/k
// quantiles (the paper's percentile-based candidate proposal, §2.2). The
// zero cut is always added. An empty sketch yields ZeroCut.
func Propose(s *GK, k int) Candidates {
	if s == nil || s.Count() == 0 {
		return zeroCut
	}
	cuts := make([]float64, 0, k+1) // room for the zero cut
	for i := 1; i <= k; i++ {
		q, err := s.Query(float64(i) / float64(k))
		if err != nil {
			break
		}
		cuts = append(cuts, q)
	}
	return newCandidates(cuts)
}

// Set is a per-feature collection of GK sketches over the nonzero values of
// each feature. Workers build a local Set over their shard and the parameter
// server merges them (CREATE_SKETCH / PULL_SKETCH).
type Set struct {
	eps      float64
	sketches []*GK // nil until a feature sees a nonzero value
}

// NewSet creates an empty sketch set for numFeatures features with rank
// error eps per feature.
func NewSet(numFeatures int, eps float64) *Set {
	return &Set{eps: eps, sketches: make([]*GK, numFeatures)}
}

// NumFeatures returns the number of features covered.
func (t *Set) NumFeatures() int { return len(t.sketches) }

// Feature returns the sketch of feature f, or nil if f never had a nonzero.
func (t *Set) Feature(f int) *GK { return t.sketches[f] }

// Add inserts one observation for feature f.
func (t *Set) Add(f int, v float64) {
	s := t.sketches[f]
	if s == nil {
		s = NewGK(t.eps)
		t.sketches[f] = s
	}
	s.Insert(v)
}

// AddDataset inserts every nonzero entry of the dataset.
func (t *Set) AddDataset(d *dataset.Dataset) {
	for i := 0; i < d.NumRows(); i++ {
		in := d.Row(i)
		for j, f := range in.Indices {
			t.Add(int(f), float64(in.Values[j]))
		}
	}
}

// Rows walks global rows [lo, hi) of a row store in ascending order: fn sees
// a dataset whose local row i is global row base+i, and the global sub-range
// [rlo, rhi) of it to read. ooc.Source.ForRowRange is one; Resident adapts an
// in-memory dataset. It must be safe to call from several goroutines.
type Rows func(lo, hi int, fn func(d *dataset.Dataset, base, rlo, rhi int))

// Resident returns the Rows of an in-memory dataset.
func Resident(d *dataset.Dataset) Rows {
	return func(lo, hi int, fn func(*dataset.Dataset, int, int, int)) { fn(d, 0, lo, hi) }
}

// balanceRows is how many leading rows AddRows counts nonzeros over to cut
// its feature ranges: enough to see the heavy features, few enough that the
// extra pass is negligible beside the sketch (out of core it pins the chunks
// holding those rows one extra time).
const balanceRows = 1024

// AddRows inserts every nonzero of the n rows that rows walks — AddDataset's
// summaries, built on pool's workers. [0, M) is cut into one contiguous
// feature range per worker, balanced by the nonzero counts of the leading
// rows; every worker walks all rows in ascending order and inserts only its
// own range's values, found by binary search in each row's sorted indices.
// Each GK therefore sees exactly the value sequence AddDataset feeds it, so
// every summary, and every cut proposed from it, is the same at any worker
// count and under any partition: the partition moves the balance, never a
// result.
func (t *Set) AddRows(pool *parallel.Pool, n int, rows Rows) {
	bounds := t.featureRanges(pool.Workers(), min(n, balanceRows), rows)
	pool.Tasks(len(bounds)-1, func(w int) {
		lo, hi := bounds[w], bounds[w+1]
		if lo == hi {
			return
		}
		rows(0, n, func(d *dataset.Dataset, base, rlo, rhi int) {
			for i := rlo; i < rhi; i++ {
				in := d.Row(i - base)
				j, _ := slices.BinarySearch(in.Indices, lo)
				for ; j < len(in.Indices) && in.Indices[j] < hi; j++ {
					t.Add(int(in.Indices[j]), float64(in.Values[j]))
				}
			}
		})
	})
}

// featureRanges cuts [0, M) into p contiguous ranges, range w being
// [bounds[w], bounds[w+1]), of about equal weight: a feature weighs one plus
// its nonzeros in rows [0, sample). Ranges may be empty.
func (t *Set) featureRanges(p, sample int, rows Rows) []int32 {
	m := len(t.sketches)
	bounds := make([]int32, p+1)
	bounds[p] = int32(m)
	if p == 1 {
		return bounds
	}
	weight := make([]int64, m)
	total := int64(m)
	rows(0, sample, func(d *dataset.Dataset, base, rlo, rhi int) {
		for i := rlo; i < rhi; i++ {
			for _, f := range d.Row(i - base).Indices {
				weight[f]++
				total++
			}
		}
	})
	// The running weight reaches total at the last feature, so every bound
	// is set by then.
	var acc int64
	w := 1
	for f := 0; f < m && w < p; f++ {
		acc += 1 + weight[f]
		for w < p && acc*int64(p) >= total*int64(w) {
			bounds[w] = int32(f + 1)
			w++
		}
	}
	return bounds
}

// Merge folds other into t feature by feature.
func (t *Set) Merge(other *Set) {
	for f, os := range other.sketches {
		if os == nil {
			continue
		}
		if t.sketches[f] == nil {
			t.sketches[f] = NewGK(t.eps)
		}
		t.sketches[f].Merge(os)
	}
}

// Candidates proposes k split candidates per feature.
func (t *Set) Candidates(k int) []Candidates {
	out := make([]Candidates, len(t.sketches))
	t.propose(out, 0, len(out), k)
	return out
}

// proposeChunk is how many features one CandidatesOn pool task proposes.
const proposeChunk = 256

// CandidatesOn is Candidates with the features proposed on pool's workers.
// Every feature's proposal reads only its own sketch, so the result is
// Candidates(k)'s.
func (t *Set) CandidatesOn(pool *parallel.Pool, k int) []Candidates {
	out := make([]Candidates, len(t.sketches))
	pool.For(len(out), proposeChunk, func(lo, hi int) { t.propose(out, lo, hi, k) })
	return out
}

func (t *Set) propose(out []Candidates, lo, hi, k int) {
	for f := lo; f < hi; f++ {
		out[f] = Propose(t.sketches[f], k)
	}
}
