package sketch

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"dimboost/internal/dataset"
	"dimboost/internal/parallel"
)

func TestCandidatesZeroCutAlwaysPresent(t *testing.T) {
	s := NewGK(0.05)
	for i := 1; i <= 100; i++ {
		s.Insert(float64(i))
	}
	c := Propose(s, 10)
	found := false
	for _, v := range c.Cuts {
		if v == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("zero cut missing")
	}
	if c.ZeroBucket != c.Bucket(0) {
		t.Fatal("ZeroBucket cache wrong")
	}
	if c.Cuts[c.ZeroBucket] != 0 {
		t.Fatalf("zero bucket cut = %v, want 0", c.Cuts[c.ZeroBucket])
	}
}

func TestCandidatesSortedDeduped(t *testing.T) {
	s := NewGK(0.05)
	for i := 0; i < 1000; i++ {
		s.Insert(float64(i % 3)) // only values 0,1,2
	}
	c := Propose(s, 20)
	if !sort.Float64sAreSorted(c.Cuts) {
		t.Fatal("cuts not sorted")
	}
	for i := 1; i < len(c.Cuts); i++ {
		if c.Cuts[i] == c.Cuts[i-1] {
			t.Fatal("duplicate cuts")
		}
	}
	if len(c.Cuts) > 4 {
		t.Fatalf("3-valued data proposed %d cuts", len(c.Cuts))
	}
}

func TestBucketSemantics(t *testing.T) {
	c := newCandidates([]float64{-2, 1, 5}) // plus injected 0 -> cuts {-2,0,1,5}
	want := map[float64]int{
		-3:   0, // below every cut -> first bucket
		-2:   0, // equal to cut -> that bucket
		-1:   1,
		0:    1,
		0.5:  2,
		1:    2,
		3:    3,
		5:    3,
		1000: 3, // above the largest cut -> last bucket
	}
	for v, k := range want {
		if got := c.Bucket(v); got != k {
			t.Errorf("Bucket(%v) = %d, want %d", v, got, k)
		}
	}
	if c.NumBuckets() != 4 {
		t.Fatalf("buckets = %d, want 4", c.NumBuckets())
	}
	if c.SplitValue(1) != 0 {
		t.Fatalf("SplitValue(1) = %v", c.SplitValue(1))
	}
}

func TestBucketMonotone(t *testing.T) {
	// property: Bucket is monotone non-decreasing in v, and every bucket
	// k < last satisfies v <= SplitValue(k) iff Bucket(v) <= k.
	f := func(raw []float64, probe float64) bool {
		cuts := make([]float64, 0, len(raw))
		for _, v := range raw {
			if v == v && v > -1e12 && v < 1e12 { // finite
				cuts = append(cuts, v)
			}
		}
		c := newCandidates(cuts)
		k := c.Bucket(probe)
		if k < 0 || k >= c.NumBuckets() {
			return false
		}
		for s := 0; s < c.NumBuckets()-1; s++ {
			left := probe <= c.SplitValue(s)
			if left != (k <= s) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(6))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestProposeEmpty: a feature without a value gets the zero cut alone, from
// every proposal path, in the one array ZeroCut shares: its capacity is one,
// so an append to it copies instead of writing into every feature's cuts.
func TestProposeEmpty(t *testing.T) {
	shared := ZeroCut().Cuts
	set := NewSet(3, 0.02)
	set.Add(1, 2.5)
	for name, c := range map[string]Candidates{
		"Propose(nil)":           Propose(nil, 10),
		"Propose(empty sketch)":  Propose(NewGK(0.1), 10),
		"ProposeWeighted(nil)":   ProposeWeighted(nil, 10),
		"ProposeWeighted(empty)": ProposeWeighted(NewWeightedGK(0.1), 10),
		"Set.Candidates":         set.Candidates(10)[0],
		"Set.CandidatesOn":       set.CandidatesOn(parallel.New(2), 10)[2],
	} {
		if c.NumBuckets() != 1 || c.Cuts[0] != 0 || c.ZeroBucket != 0 {
			t.Errorf("%s: cuts %v, zero bucket %d, want the zero cut alone", name, c.Cuts, c.ZeroBucket)
		}
		if &c.Cuts[0] != &shared[0] {
			t.Errorf("%s: the zero cut in an array of its own", name)
		}
	}
	if len(shared) != 1 || cap(shared) != 1 {
		t.Fatalf("shared zero cut has length %d, capacity %d, want 1 and 1", len(shared), cap(shared))
	}
	if grown := append(Propose(nil, 1).Cuts, 1); &grown[0] == &shared[0] || len(ZeroCut().Cuts) != 1 {
		t.Fatal("an append to a zero-cut set wrote into the shared array")
	}
}

func TestSetAddDatasetAndCandidates(t *testing.T) {
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 300, NumFeatures: 50, AvgNNZ: 10, Seed: 11})
	set := NewSet(d.NumFeatures, 0.02)
	set.AddDataset(d)
	if set.NumFeatures() != 50 {
		t.Fatalf("features = %d", set.NumFeatures())
	}
	cands := set.Candidates(16)
	if len(cands) != 50 {
		t.Fatalf("candidates for %d features", len(cands))
	}
	nonTrivial := 0
	for f, c := range cands {
		if c.NumBuckets() < 1 {
			t.Fatalf("feature %d has no buckets", f)
		}
		if c.NumBuckets() > 17 {
			t.Fatalf("feature %d has %d buckets > k+1", f, c.NumBuckets())
		}
		if c.NumBuckets() > 2 {
			nonTrivial++
		}
	}
	if nonTrivial == 0 {
		t.Fatal("all features trivial; generator or sketching broken")
	}
}

func TestSetMergeMatchesUnion(t *testing.T) {
	cfg := dataset.SyntheticConfig{NumRows: 400, NumFeatures: 30, AvgNNZ: 8, Seed: 12}
	d := dataset.Generate(cfg)
	shards := dataset.PartitionRows(d, 4)

	whole := NewSet(30, 0.02)
	whole.AddDataset(d)

	merged := NewSet(30, 0.02)
	for _, sh := range shards {
		local := NewSet(30, 0.02)
		local.AddDataset(sh)
		merged.Merge(local)
	}

	for f := 0; f < 30; f++ {
		w, m := whole.Feature(f), merged.Feature(f)
		if (w == nil) != (m == nil) {
			t.Fatalf("feature %d: presence mismatch", f)
		}
		if w == nil {
			continue
		}
		if w.Count() != m.Count() {
			t.Fatalf("feature %d: counts %d vs %d", f, w.Count(), m.Count())
		}
		// the merged median should land inside the whole-data IQR
		b, _ := m.Query(0.5)
		lo, _ := w.Query(0.25)
		hi, _ := w.Query(0.75)
		if b < lo || b > hi {
			t.Errorf("feature %d: merged median %v outside IQR [%v,%v]", f, b, lo, hi)
		}
	}
}

// TestProposedCutsAreExactLength: a proposed cut list is stored at its own
// length — a layout keeps one per feature for the whole run, and the k+1
// slots proposal starts from mostly deduplicate away — and its cuts are the
// sorted, deduplicated quantile queries plus the zero cut, as ever.
func TestProposedCutsAreExactLength(t *testing.T) {
	reference := func(query func(float64) (float64, error), k int) []float64 {
		cuts := []float64{0}
		for i := 1; i <= k; i++ {
			q, err := query(float64(i) / float64(k))
			if err != nil {
				break
			}
			cuts = append(cuts, q)
		}
		slices.Sort(cuts)
		return slices.Compact(cuts)
	}
	check := func(name string, c Candidates, want []float64) {
		t.Helper()
		if cap(c.Cuts) != len(c.Cuts) {
			t.Errorf("%s: %d cuts in a capacity of %d", name, len(c.Cuts), cap(c.Cuts))
		}
		if !slices.Equal(c.Cuts, want) {
			t.Errorf("%s: cuts %v, want %v", name, c.Cuts, want)
		}
		if c.ZeroBucket != c.Bucket(0) {
			t.Errorf("%s: ZeroBucket %d, Bucket(0) %d", name, c.ZeroBucket, c.Bucket(0))
		}
	}
	rng := rand.New(rand.NewSource(9))
	for _, values := range []struct {
		name string
		draw func() float64
	}{
		{"three values", func() float64 { return float64(rng.Intn(3)) }},
		{"continuous", rng.NormFloat64},
		{"positive", func() float64 { return 1 + rng.Float64() }},
	} {
		s, ws := NewGK(0.02), NewWeightedGK(0.02)
		for i := 0; i < 2000; i++ {
			v := values.draw()
			s.Insert(v)
			ws.Insert(v, 0.5+rng.Float64())
		}
		for _, k := range []int{1, 4, 20, 39} {
			name := fmt.Sprintf("%s, k=%d", values.name, k)
			check(name, Propose(s, k), reference(s.Query, k))
			check(name+", weighted", ProposeWeighted(ws, k), reference(ws.Query, k))
		}
	}
	check("empty sketch", Propose(nil, 20), []float64{0})
}
