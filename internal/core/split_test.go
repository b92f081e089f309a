package core

import (
	"math"
	"path/filepath"
	"testing"

	"dimboost/internal/dataset"
	"dimboost/internal/histogram"
	"dimboost/internal/ooc"
	"dimboost/internal/parallel"
	"dimboost/internal/sketch"
)

func fixture(t testing.TB, rows, features, nnz int, seed int64) (*dataset.Dataset, *histogram.Layout, []float64, []float64) {
	t.Helper()
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: rows, NumFeatures: features, AvgNNZ: nnz, Seed: seed, Zipf: 1.2})
	set := sketch.NewSet(features, 0.02)
	set.AddDataset(d)
	layout, err := histogram.NewLayout(histogram.AllFeatures(features), set.Candidates(12), features)
	if err != nil {
		t.Fatal(err)
	}
	grad := make([]float64, rows)
	hess := make([]float64, rows)
	for i := range grad {
		grad[i] = math.Sin(float64(i)) // deterministic mixed-sign gradients
		hess[i] = 0.25 + 0.1*float64(i%5)
	}
	return d, layout, grad, hess
}

// bruteForceSplit enumerates every feature and candidate cut directly on the
// data, bypassing histograms, and returns the best split.
func bruteForceSplit(d *dataset.Dataset, l *histogram.Layout, rows []int32, grad, hess []float64, lambda, gamma, minH float64) Split {
	var totalG, totalH float64
	for _, r := range rows {
		totalG += grad[r]
		totalH += hess[r]
	}
	parent := totalG * totalG / (totalH + lambda)
	best := Split{}
	for p := 0; p < l.NumFeatures(); p++ {
		f := int(l.Features[p])
		c := l.Cands[p]
		for k := 0; k < c.NumBuckets()-1; k++ {
			cut := c.SplitValue(k)
			var gl, hl float64
			for _, r := range rows {
				if float64(d.Row(int(r)).Feature(f)) <= cut {
					gl += grad[r]
					hl += hess[r]
				}
			}
			gr, hr := totalG-gl, totalH-hl
			if hl < minH || hr < minH {
				continue
			}
			gain := 0.5*(gl*gl/(hl+lambda)+gr*gr/(hr+lambda)-parent) - gamma
			if gain <= 0 {
				continue
			}
			cand := Split{Found: true, Feature: int32(f), Value: cut, Gain: gain, LeftG: gl, LeftH: hl, RightG: gr, RightH: hr}
			if cand.Better(best) {
				best = cand
			}
		}
	}
	return best
}

func TestFindSplitMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		d, layout, grad, hess := fixture(t, 120, 15, 5, seed)
		rows := make([]int32, d.NumRows())
		for i := range rows {
			rows[i] = int32(i)
		}
		h := histogram.New(layout)
		histogram.BuildSparse(h, d, rows, grad, hess)
		var tg, th float64
		for _, r := range rows {
			tg += grad[r]
			th += hess[r]
		}
		got := FindSplit(h, tg, th, 1.0, 0.0, 1e-4)
		want := bruteForceSplit(d, layout, rows, grad, hess, 1.0, 0.0, 1e-4)
		if got.Found != want.Found {
			t.Fatalf("seed %d: Found %v vs %v", seed, got.Found, want.Found)
		}
		if !got.Found {
			continue
		}
		if got.Feature != want.Feature || got.Value != want.Value {
			t.Fatalf("seed %d: split (%d,%v) vs brute (%d,%v)", seed, got.Feature, got.Value, want.Feature, want.Value)
		}
		if math.Abs(got.Gain-want.Gain) > 1e-9 {
			t.Fatalf("seed %d: gain %v vs %v", seed, got.Gain, want.Gain)
		}
		if math.Abs(got.LeftG-want.LeftG) > 1e-9 || math.Abs(got.LeftH-want.LeftH) > 1e-9 {
			t.Fatalf("seed %d: child sums differ", seed)
		}
	}
}

func TestFindSplitRangeUnion(t *testing.T) {
	// two-phase invariant: the best of per-range splits equals the global
	// best (§6.3)
	d, layout, grad, hess := fixture(t, 150, 20, 6, 9)
	rows := make([]int32, d.NumRows())
	for i := range rows {
		rows[i] = int32(i)
	}
	h := histogram.New(layout)
	histogram.BuildSparse(h, d, rows, grad, hess)
	var tg, th float64
	for _, r := range rows {
		tg += grad[r]
		th += hess[r]
	}
	global := FindSplit(h, tg, th, 1.0, 0.0, 1e-4)

	for _, parts := range []int{2, 3, 5, 7, 20} {
		var shards []Split
		per := (20 + parts - 1) / parts
		for lo := 0; lo < 20; lo += per {
			hi := lo + per
			if hi > 20 {
				hi = 20
			}
			shards = append(shards, FindSplitRange(h, lo, hi, tg, th, 1.0, 0.0, 1e-4))
		}
		merged := BestOf(shards...)
		if merged != global {
			t.Fatalf("parts=%d: merged %+v vs global %+v", parts, merged, global)
		}
	}
}

func TestGammaSuppressesWeakSplits(t *testing.T) {
	d, layout, grad, hess := fixture(t, 100, 10, 4, 3)
	rows := make([]int32, d.NumRows())
	for i := range rows {
		rows[i] = int32(i)
	}
	h := histogram.New(layout)
	histogram.BuildSparse(h, d, rows, grad, hess)
	var tg, th float64
	for _, r := range rows {
		tg += grad[r]
		th += hess[r]
	}
	free := FindSplit(h, tg, th, 1.0, 0.0, 1e-4)
	if !free.Found {
		t.Skip("no split found even ungated")
	}
	gated := FindSplit(h, tg, th, 1.0, free.Gain+1, 1e-4)
	if gated.Found {
		t.Fatalf("gamma above best gain must suppress splits, got %+v", gated)
	}
}

func TestMinChildHessianGate(t *testing.T) {
	d, layout, grad, hess := fixture(t, 80, 8, 3, 4)
	rows := make([]int32, d.NumRows())
	for i := range rows {
		rows[i] = int32(i)
	}
	h := histogram.New(layout)
	histogram.BuildSparse(h, d, rows, grad, hess)
	var tg, th float64
	for _, r := range rows {
		tg += grad[r]
		th += hess[r]
	}
	// an impossible min-child requirement: more than the whole node
	s := FindSplit(h, tg, th, 1.0, 0.0, th+1)
	if s.Found {
		t.Fatal("min child hessian above node total must block all splits")
	}
}

func TestBetterTieBreaks(t *testing.T) {
	a := Split{Found: true, Feature: 3, Value: 1, Gain: 5}
	b := Split{Found: true, Feature: 1, Value: 9, Gain: 5}
	if !b.Better(a) || a.Better(b) {
		t.Fatal("equal gain should prefer lower feature id")
	}
	c := Split{Found: true, Feature: 1, Value: 2, Gain: 5}
	if !c.Better(b) {
		t.Fatal("equal gain+feature should prefer lower value")
	}
	none := Split{}
	if none.Better(a) {
		t.Fatal("not-found is never better")
	}
	if !a.Better(none) {
		t.Fatal("found beats not-found")
	}
	if BestOf() != (Split{}) {
		t.Fatal("BestOf() should be zero split")
	}
	if BestOf(none, a, b, c) != c {
		t.Fatal("BestOf picked wrong split")
	}
}

func TestLeafWeight(t *testing.T) {
	if got := LeafWeight(4, 1, 1); got != -2 {
		t.Fatalf("LeafWeight(4,1,1) = %v, want -2", got)
	}
	if got := LeafWeight(0, 0, 1); got != 0 {
		t.Fatalf("LeafWeight(0,0,1) = %v, want 0", got)
	}
}

// TestSplitPredicateMatchesFloatComparison: the grower partitions by bin id,
// and the bucket recovery inside SplitPredicate is all that ties a split's
// float threshold to those ids. For every row and every proposable cut of
// every sampled feature the binned predicate must answer the float
// comparison — over a uint8 mirror and a uint16 one (more than 256
// buckets), with values on a cut, between cuts, above the last cut, below
// the first, zero and negative — and so must the row mask the trainer
// partitions by, as both binned mirrors, resident and spilled, classify it.
func TestSplitPredicateMatchesFloatComparison(t *testing.T) {
	const features = 5
	sampled := []int32{0, 2, 3}
	pool := parallel.New(2)
	for _, numCuts := range []int{12, 400} {
		// Cuts at every half from -numCuts/4, so one of them is 0 and every
		// one is exact in float32.
		cuts := make([]float64, numCuts)
		for i := range cuts {
			cuts[i] = float64(i-numCuts/2) / 2
		}
		values := []float32{0, float32(cuts[0] - 1), float32(cuts[numCuts-1] + 1), float32(cuts[numCuts-1] + 0.25)}
		for _, c := range cuts {
			values = append(values, float32(c), float32(c+0.25))
		}
		b := dataset.NewBuilder(features)
		for r := range values {
			row := make([]float32, features)
			for f := range row {
				row[f] = values[(r+7*f)%len(values)]
			}
			b.AddDense(row, 0)
		}
		d := b.Build()
		cands := make([]sketch.Candidates, features)
		for f := range cands {
			cands[f] = sketch.FromCuts(cuts)
		}
		layout, err := histogram.NewLayout(sampled, cands, features)
		if err != nil {
			t.Fatal(err)
		}
		binned := histogram.NewBinned(d, layout, 2)
		if binned.Wide() != (numCuts > 256) {
			t.Fatalf("%d cuts: Wide() = %v", numCuts, binned.Wide())
		}
		var mirrors []binnedRows
		for _, rows := range mirrorsOf(t, d, 7) {
			mirror, _, err := rows.bin(layout, pool, false)
			if err != nil {
				t.Fatal(err)
			}
			defer mirror.Close()
			mirrors = append(mirrors, mirror)
		}
		all := make([]int32, d.NumRows())
		for r := range all {
			all[r] = int32(r)
		}
		mask := make([]bool, d.NumRows())
		for _, f := range sampled {
			for _, v := range cuts[:numCuts-1] {
				split := Split{Found: true, Feature: f, Value: v}
				goLeft := SplitPredicate(d, binned, layout, split)
				for r := 0; r < d.NumRows(); r++ {
					x := d.Row(r).Feature(int(f))
					if want := float64(x) <= v; goLeft(int32(r)) != want {
						t.Fatalf("%d cuts: feature %d value %v split at %v: goLeft %v, want %v", numCuts, f, x, v, !want, want)
					}
				}
				p, k := splitBin(layout, split)
				for i, mirror := range mirrors {
					// Every verdict starts wrong, so a row left unwritten fails.
					for r := range mask {
						mask[r] = float64(d.Row(r).Feature(int(f))) > v
					}
					mirror.Classify(pool, []ooc.NodeSplit{{Rows: all, Pos: p, Bucket: k}}, mask)
					for r := range all {
						x := d.Row(r).Feature(int(f))
						if want := float64(x) <= v; mask[r] != want {
							t.Fatalf("mirror %d, %d cuts: feature %d value %v split at %v: mask %v, want %v", i, numCuts, f, x, v, !want, want)
						}
					}
				}
			}
		}
	}
}

// mirrorsOf returns d's rows resident and spilled to a file in segments of
// chunkRows rows, for the life of the test.
func mirrorsOf(t *testing.T, d *dataset.Dataset, chunkRows int) []rowSource {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rows.bin")
	if err := dataset.WriteBinaryFile(path, d); err != nil {
		t.Fatal(err)
	}
	src, err := ooc.Open(path, ooc.Options{ChunkRows: chunkRows, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	return []rowSource{residentRows{d}, spilledRows{src}}
}

// TestMirrorsClassifyALayerLikeSplitPredicate: a layer's splits share one
// row mask. For a layer of nodes over disjoint rows, spread across several
// row chunks and many segments, with an empty node among them, the mask
// both binned mirrors write is SplitPredicate's verdict row by row.
func TestMirrorsClassifyALayerLikeSplitPredicate(t *testing.T) {
	pool := parallel.New(2)
	d, layout, _, _ := fixture(t, 3*parallel.RowChunk+100, 40, 8, 5)
	binned := histogram.NewBinned(d, layout, 2)
	const nodes = 5 // node 3 has no rows
	splits := make([]ooc.NodeSplit, nodes)
	preds := make([]func(int32) bool, nodes)
	for r := 0; r < d.NumRows(); r++ {
		i := r * 7 % (nodes - 1)
		if i == 3 {
			i = 4
		}
		splits[i].Rows = append(splits[i].Rows, int32(r))
	}
	for i := range splits {
		p := int32(3*i + 1)
		split := Split{Found: true, Feature: layout.Features[p], Value: layout.Cands[p].SplitValue(layout.Cands[p].NumBuckets() / 3)}
		splits[i].Pos, splits[i].Bucket = splitBin(layout, split)
		preds[i] = SplitPredicate(d, binned, layout, split)
	}
	for i, rows := range mirrorsOf(t, d, 100) {
		mirror, _, err := rows.bin(layout, pool, false)
		if err != nil {
			t.Fatal(err)
		}
		// Every verdict starts wrong, so a row left unwritten fails.
		mask := make([]bool, d.NumRows())
		for j, s := range splits {
			for _, r := range s.Rows {
				mask[r] = !preds[j](r)
			}
		}
		mirror.Classify(pool, splits, mask)
		mirror.Close()
		for j, s := range splits {
			for _, r := range s.Rows {
				if mask[r] != preds[j](r) {
					t.Fatalf("mirror %d: node %d row %d: goLeft %v, SplitPredicate %v", i, j, r, mask[r], preds[j](r))
				}
			}
		}
	}
}
