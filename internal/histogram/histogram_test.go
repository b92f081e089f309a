package histogram

import (
	"math"
	"testing"

	"dimboost/internal/dataset"
	"dimboost/internal/sketch"
)

// buildFixture returns a dataset, per-feature candidates, and per-row
// gradients for tests.
func buildFixture(t testing.TB, rows, features, nnz int, seed int64) (*dataset.Dataset, []sketch.Candidates, []float64, []float64) {
	t.Helper()
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: rows, NumFeatures: features, AvgNNZ: nnz, Seed: seed, Zipf: 1.3})
	set := sketch.NewSet(features, 0.02)
	set.AddDataset(d)
	cands := set.Candidates(10)
	grad := make([]float64, rows)
	hess := make([]float64, rows)
	for i := range grad {
		grad[i] = float64(i%7) - 3   // mix of signs
		hess[i] = 0.1 + float64(i%3) // positive
	}
	return d, cands, grad, hess
}

func allRows(n int) []int32 {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}

func TestLayoutBasics(t *testing.T) {
	_, cands, _, _ := buildFixture(t, 50, 20, 5, 1)
	l, err := NewLayout(AllFeatures(20), cands, 20)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumFeatures() != 20 {
		t.Fatalf("features = %d", l.NumFeatures())
	}
	total := 0
	for p := 0; p < 20; p++ {
		lo, hi := l.BucketRange(p)
		if lo != total {
			t.Fatalf("offset mismatch at %d", p)
		}
		if hi-lo != cands[p].NumBuckets() {
			t.Fatalf("bucket count mismatch at %d", p)
		}
		total = hi
		if l.Pos(int32(p)) != int32(p) {
			t.Fatalf("Pos(%d) = %d", p, l.Pos(int32(p)))
		}
	}
	if l.TotalBuckets != total {
		t.Fatalf("TotalBuckets = %d, want %d", l.TotalBuckets, total)
	}
	if l.SizeBytes() != 2*total*4 {
		t.Fatalf("SizeBytes = %d", l.SizeBytes())
	}
}

func TestLayoutSampledSubset(t *testing.T) {
	_, cands, _, _ := buildFixture(t, 50, 20, 5, 2)
	l, err := NewLayout([]int32{3, 7, 19}, cands, 20)
	if err != nil {
		t.Fatal(err)
	}
	if l.Pos(3) != 0 || l.Pos(7) != 1 || l.Pos(19) != 2 {
		t.Fatal("sampled positions wrong")
	}
	if l.Pos(0) != -1 || l.Pos(4) != -1 {
		t.Fatal("unsampled features must map to -1")
	}
}

func TestLayoutRejectsBadFeatures(t *testing.T) {
	_, cands, _, _ := buildFixture(t, 20, 10, 4, 3)
	if _, err := NewLayout([]int32{5, 3}, cands, 10); err == nil {
		t.Fatal("unsorted features should be rejected")
	}
	if _, err := NewLayout([]int32{3, 3}, cands, 10); err == nil {
		t.Fatal("duplicate features should be rejected")
	}
	if _, err := NewLayout([]int32{3, 10}, cands, 10); err == nil {
		t.Fatal("out-of-range feature should be rejected")
	}
}

// TestSparseEqualsDense is the core §5.1 invariant: Algorithm 2 and the
// traditional dense enumeration build the same histogram.
func TestSparseEqualsDense(t *testing.T) {
	d, cands, grad, hess := buildFixture(t, 300, 40, 8, 4)
	l, err := NewLayout(AllFeatures(40), cands, 40)
	if err != nil {
		t.Fatal(err)
	}
	rows := allRows(300)

	hd := New(l)
	BuildDense(hd, d, rows, grad, hess)
	hs := New(l)
	BuildSparse(hs, d, rows, grad, hess)

	for i := range hd.G {
		if math.Abs(hd.G[i]-hs.G[i]) > 1e-9 {
			t.Fatalf("G[%d]: dense %v vs sparse %v", i, hd.G[i], hs.G[i])
		}
		if math.Abs(hd.H[i]-hs.H[i]) > 1e-9 {
			t.Fatalf("H[%d]: dense %v vs sparse %v", i, hd.H[i], hs.H[i])
		}
	}
}

func TestSparseEqualsDenseWithSampling(t *testing.T) {
	d, cands, grad, hess := buildFixture(t, 200, 30, 6, 5)
	sampled := []int32{0, 2, 5, 11, 17, 29}
	l, err := NewLayout(sampled, cands, 30)
	if err != nil {
		t.Fatal(err)
	}
	rows := allRows(200)
	hd, hs := New(l), New(l)
	BuildDense(hd, d, rows, grad, hess)
	BuildSparse(hs, d, rows, grad, hess)
	for i := range hd.G {
		if math.Abs(hd.G[i]-hs.G[i]) > 1e-9 || math.Abs(hd.H[i]-hs.H[i]) > 1e-9 {
			t.Fatalf("bucket %d mismatch", i)
		}
	}
}

func TestSparseOnRowSubset(t *testing.T) {
	d, cands, grad, hess := buildFixture(t, 100, 25, 5, 6)
	l, _ := NewLayout(AllFeatures(25), cands, 25)
	rows := []int32{5, 17, 42, 43, 99}
	hd, hs := New(l), New(l)
	BuildDense(hd, d, rows, grad, hess)
	BuildSparse(hs, d, rows, grad, hess)
	for i := range hd.G {
		if math.Abs(hd.G[i]-hs.G[i]) > 1e-9 {
			t.Fatalf("bucket %d mismatch on subset", i)
		}
	}
}

// TestFeatureTotalsInvariant checks that every feature's buckets sum to the
// same node totals — the property the two-phase split finding relies on.
func TestFeatureTotalsInvariant(t *testing.T) {
	d, cands, grad, hess := buildFixture(t, 250, 30, 7, 7)
	l, _ := NewLayout(AllFeatures(30), cands, 30)
	rows := allRows(250)
	h := New(l)
	BuildSparse(h, d, rows, grad, hess)

	var wantG, wantH float64
	for _, r := range rows {
		wantG += grad[r]
		wantH += hess[r]
	}
	for p := 0; p < l.NumFeatures(); p++ {
		g, hs := h.FeatureTotals(p)
		if math.Abs(g-wantG) > 1e-9 || math.Abs(hs-wantH) > 1e-9 {
			t.Fatalf("feature %d totals (%v,%v), want (%v,%v)", p, g, hs, wantG, wantH)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	d, cands, grad, hess := buildFixture(t, 1000, 50, 10, 8)
	l, _ := NewLayout(AllFeatures(50), cands, 50)
	rows := allRows(1000)

	seq := New(l)
	BuildSparse(seq, d, rows, grad, hess)

	for _, par := range []int{2, 4, 8} {
		for _, batch := range []int{1, 7, 100, 5000} {
			h := New(l)
			Build(h, d, rows, grad, hess, BuildOptions{Parallelism: par, BatchSize: batch})
			for i := range seq.G {
				if math.Abs(seq.G[i]-h.G[i]) > 1e-8 {
					t.Fatalf("par=%d batch=%d: G[%d] %v vs %v", par, batch, i, h.G[i], seq.G[i])
				}
				if math.Abs(seq.H[i]-h.H[i]) > 1e-8 {
					t.Fatalf("par=%d batch=%d: H[%d] mismatch", par, batch, i)
				}
			}
		}
	}
}

// TestBuildDenseInBatches: the dense build over the parallel batch grid, as
// the mesh baselines run it, sums what one sparse pass does.
func TestBuildDenseInBatches(t *testing.T) {
	d, cands, grad, hess := buildFixture(t, 100, 20, 5, 9)
	l, _ := NewLayout(AllFeatures(20), cands, 20)
	rows := allRows(100)
	hd := New(l)
	BuildBatches(hd, rows, BuildOptions{Parallelism: 3, BatchSize: 11}, func(part *Histogram, batch []int32) {
		BuildDense(part, d, batch, grad, hess)
	})
	hs := New(l)
	BuildSparse(hs, d, rows, grad, hess)
	for i := range hd.G {
		if math.Abs(hd.G[i]-hs.G[i]) > 1e-9 {
			t.Fatalf("dense-parallel mismatch at %d", i)
		}
	}
}

func TestBuildEmptyRows(t *testing.T) {
	d, cands, grad, hess := buildFixture(t, 10, 5, 2, 10)
	l, _ := NewLayout(AllFeatures(5), cands, 5)
	h := New(l)
	Build(h, d, nil, grad, hess, BuildOptions{Parallelism: 4})
	for i := range h.G {
		if h.G[i] != 0 || h.H[i] != 0 {
			t.Fatal("empty build must stay zero")
		}
	}
}

func TestAddResetClone(t *testing.T) {
	d, cands, grad, hess := buildFixture(t, 60, 15, 4, 11)
	l, _ := NewLayout(AllFeatures(15), cands, 15)
	a, b := New(l), New(l)
	BuildSparse(a, d, allRows(30), grad, hess)
	rows2 := make([]int32, 30)
	for i := range rows2 {
		rows2[i] = int32(30 + i)
	}
	BuildSparse(b, d, rows2, grad, hess)

	sum := a.Clone()
	sum.Add(b)
	whole := New(l)
	BuildSparse(whole, d, allRows(60), grad, hess)
	for i := range whole.G {
		if math.Abs(whole.G[i]-sum.G[i]) > 1e-9 {
			t.Fatalf("partition additivity broken at %d", i)
		}
	}

	sum.Reset()
	for i := range sum.G {
		if sum.G[i] != 0 || sum.H[i] != 0 {
			t.Fatal("Reset left nonzero buckets")
		}
	}
	// Clone must be independent
	c := a.Clone()
	c.G[0] += 5
	if a.G[0] == c.G[0] {
		t.Fatal("Clone aliases parent")
	}
}

func TestSlice(t *testing.T) {
	d, cands, grad, hess := buildFixture(t, 40, 10, 3, 12)
	l, _ := NewLayout(AllFeatures(10), cands, 10)
	h := New(l)
	BuildSparse(h, d, allRows(40), grad, hess)
	lo, hi := l.BucketRange(3)
	g, hs := h.Slice(lo, hi)
	if len(g) != hi-lo || len(hs) != hi-lo {
		t.Fatal("slice lengths")
	}
	var sg float64
	for _, v := range g {
		sg += v
	}
	fg, _ := h.FeatureTotals(3)
	if math.Abs(sg-fg) > 1e-12 {
		t.Fatal("slice does not alias feature range")
	}
}
