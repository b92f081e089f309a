package histogram

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dimboost/internal/dataset"
	"dimboost/internal/sketch"
)

// TestQuickSparseEqualsDense drives the §5.1 equivalence over randomly
// generated datasets, candidate counts, gradients, and row subsets.
func TestQuickSparseEqualsDense(t *testing.T) {
	f := func(seed int64, rowsRaw, featRaw, nnzRaw, kRaw uint8) bool {
		rows := int(rowsRaw)%120 + 5
		features := int(featRaw)%50 + 2
		nnz := int(nnzRaw)%(features/2+1) + 1
		k := int(kRaw)%15 + 2

		d := dataset.Generate(dataset.SyntheticConfig{
			NumRows: rows, NumFeatures: features, AvgNNZ: nnz, Seed: seed, Zipf: 1.2,
		})
		set := sketch.NewSet(features, 0.05)
		set.AddDataset(d)
		layout, err := NewLayout(AllFeatures(features), set.Candidates(k), features)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed + 1))
		grad := make([]float64, rows)
		hess := make([]float64, rows)
		for i := range grad {
			grad[i] = rng.NormFloat64()
			hess[i] = rng.Float64()
		}
		// random row subset
		var sel []int32
		for i := 0; i < rows; i++ {
			if rng.Float64() < 0.7 {
				sel = append(sel, int32(i))
			}
		}
		hd, hs := New(layout), New(layout)
		BuildDense(hd, d, sel, grad, hess)
		BuildSparse(hs, d, sel, grad, hess)
		for i := range hd.G {
			if math.Abs(hd.G[i]-hs.G[i]) > 1e-9 || math.Abs(hd.H[i]-hs.H[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBinnedEqualsFloat drives the binned/float bit-identity over
// random datasets, gradients, row subsets, parallelism settings, and — via
// crafted cut sets — zero-heavy rows, values exactly on cut boundaries, and
// >256-bucket features that force the uint16 bin-width escalation.
func TestQuickBinnedEqualsFloat(t *testing.T) {
	f := func(seed int64, rowsRaw, featRaw, nnzRaw, parRaw uint8, wide bool) bool {
		rng := rand.New(rand.NewSource(seed))
		var d *dataset.Dataset
		var cands []sketch.Candidates
		var features int
		if wide {
			// crafted fixture: a 401-bucket feature (uint16 escalation),
			// half the candidate draws exactly on cut boundaries, half the
			// rows zero at each feature
			features = 5
			d, cands = wideQuickFixture(rng, int(rowsRaw)%120+5)
		} else {
			rows := int(rowsRaw)%120 + 5
			features = int(featRaw)%50 + 2
			nnz := int(nnzRaw)%(features/2+1) + 1
			d = dataset.Generate(dataset.SyntheticConfig{
				NumRows: rows, NumFeatures: features, AvgNNZ: nnz, Seed: seed, Zipf: 1.2,
			})
			set := sketch.NewSet(features, 0.05)
			set.AddDataset(d)
			cands = set.Candidates(int(featRaw)%15 + 2)
		}
		layout, err := NewLayout(AllFeatures(features), cands, features)
		if err != nil {
			return false
		}
		n := d.NumRows()
		grad := make([]float64, n)
		hess := make([]float64, n)
		for i := range grad {
			grad[i] = rng.NormFloat64()
			hess[i] = rng.Float64()
		}
		var sel []int32
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.7 {
				sel = append(sel, int32(i))
			}
		}
		b := NewBinned(d, layout, int(parRaw)%4+1)
		if b.Wide() != wide {
			return false
		}

		exact := func(x, y *Histogram) bool {
			for i := range x.G {
				if x.G[i] != y.G[i] || x.H[i] != y.H[i] {
					return false
				}
			}
			return true
		}
		hs, hb := New(layout), New(layout)
		BuildSparse(hs, d, sel, grad, hess)
		BuildSparseBinned(hb, b, sel, grad, hess)
		if !exact(hs, hb) {
			return false
		}
		opts := BuildOptions{Parallelism: int(parRaw)%4 + 1, BatchSize: int(rowsRaw)%40 + 1, Pool: NewPool(layout)}
		pf, pb := New(layout), New(layout)
		Build(pf, d, sel, grad, hess, opts)
		BuildBinned(pb, b, sel, grad, hess, opts)
		return exact(pf, pb)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(97))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// wideQuickFixture mirrors wideFixture for the property test: feature 0
// gets 401 buckets, rows are zero-heavy, and values often sit exactly on
// cuts or above the largest cut.
func wideQuickFixture(rng *rand.Rand, rows int) (*dataset.Dataset, []sketch.Candidates) {
	const features = 5
	var wideCuts []float64
	for i := -200; i <= 200; i++ {
		wideCuts = append(wideCuts, float64(i)*0.5)
	}
	cands := make([]sketch.Candidates, features)
	cands[0] = sketch.FromCuts(wideCuts)
	for f := 1; f < features; f++ {
		cands[f] = sketch.FromCuts([]float64{-1.5, 0, 0.25, 2, 8})
	}
	bld := dataset.NewBuilder(features)
	for r := 0; r < rows; r++ {
		var idxs []int32
		var vals []float32
		for f := 0; f < features; f++ {
			if rng.Float64() < 0.5 {
				continue
			}
			cuts := cands[f].Cuts
			var v float64
			switch rng.Intn(3) {
			case 0:
				v = cuts[rng.Intn(len(cuts))]
			case 1:
				v = cuts[len(cuts)-1] + 1 + rng.Float64()
			default:
				v = rng.NormFloat64() * 50
			}
			if v == 0 {
				continue
			}
			idxs = append(idxs, int32(f))
			vals = append(vals, float32(v))
		}
		if err := bld.Add(idxs, vals, float32(r%2)); err != nil {
			panic(err)
		}
	}
	return bld.Build(), cands
}

// TestQuickSubtractionIdentity: parent − left child == right child, for
// random splits.
func TestQuickSubtractionIdentity(t *testing.T) {
	f := func(seed int64, pivotRaw uint8) bool {
		const rows, features = 80, 20
		d := dataset.Generate(dataset.SyntheticConfig{
			NumRows: rows, NumFeatures: features, AvgNNZ: 6, Seed: seed, Zipf: 1.2,
		})
		set := sketch.NewSet(features, 0.05)
		set.AddDataset(d)
		layout, err := NewLayout(AllFeatures(features), set.Candidates(8), features)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed + 2))
		grad := make([]float64, rows)
		hess := make([]float64, rows)
		for i := range grad {
			grad[i] = rng.NormFloat64()
			hess[i] = rng.Float64()
		}
		pivot := int32(pivotRaw)%rows + 1
		var left, right, all []int32
		for i := int32(0); i < rows; i++ {
			all = append(all, i)
			if i < pivot {
				left = append(left, i)
			} else {
				right = append(right, i)
			}
		}
		parent, lh, want := New(layout), New(layout), New(layout)
		BuildSparse(parent, d, all, grad, hess)
		BuildSparse(lh, d, left, grad, hess)
		BuildSparse(want, d, right, grad, hess)
		got := New(layout)
		got.SetSub(parent, lh)
		for i := range got.G {
			if math.Abs(got.G[i]-want.G[i]) > 1e-9 || math.Abs(got.H[i]-want.H[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(98))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
