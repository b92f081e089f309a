package sketch_test

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"dimboost/internal/dataset"
	"dimboost/internal/ooc"
	"dimboost/internal/parallel"
	"dimboost/internal/sketch"
)

// csr builds a dataset from rows of (feature, value) pairs in ascending
// feature order.
func csr(numFeatures int, rows [][][2]float64) *dataset.Dataset {
	d := &dataset.Dataset{RowPtr: []int64{0}, NumFeatures: numFeatures}
	for _, row := range rows {
		for _, e := range row {
			d.Indices = append(d.Indices, int32(e[0]))
			d.Values = append(d.Values, float32(e[1]))
		}
		d.RowPtr = append(d.RowPtr, int64(len(d.Indices)))
		d.Labels = append(d.Labels, 0)
	}
	return d
}

type shape struct {
	name string
	d    *dataset.Dataset
}

// sketchShapes are the datasets the parallel sketch is held to the serial
// one on.
func sketchShapes() []shape {
	shapes := []shape{
		{"zipf", dataset.Generate(dataset.SyntheticConfig{NumRows: 3000, NumFeatures: 400, AvgNNZ: 20, Seed: 21, Zipf: 1.3})},
	}
	// Every nonzero in one feature: all other ranges are empty.
	var one [][][2]float64
	for i := 0; i < 2500; i++ {
		one = append(one, [][2]float64{{7, float64(i%13) - 6}})
	}
	shapes = append(shapes, shape{"one-feature", csr(20, one)})
	// Two features for up to eight workers.
	var two [][][2]float64
	for i := 0; i < 2000; i++ {
		two = append(two, [][2]float64{{0, float64(i % 31)}, {1, -float64(i % 17)}})
	}
	shapes = append(shapes, shape{"fewer-features-than-workers", csr(2, two)})
	// Empty rows, including every row the range balancing counts over.
	var sparse [][][2]float64
	for i := 0; i < 3000; i++ {
		var row [][2]float64
		if i > 1100 && i%3 == 0 {
			row = [][2]float64{{float64(i % 5), float64(i % 11)}, {float64(5 + i%40), math.Sin(float64(i))}}
		}
		sparse = append(sparse, row)
	}
	shapes = append(shapes, shape{"empty-rows", csr(50, sparse)})
	return shapes
}

// sameSketches fails unless two sets hold Float64bits-identical summaries
// for every feature and propose identical candidates from them.
func sameSketches(t *testing.T, got, want *sketch.Set, pool *parallel.Pool) {
	t.Helper()
	const k = 16
	gotCands, wantCands := got.CandidatesOn(pool, k), want.Candidates(k)
	for f := 0; f < want.NumFeatures(); f++ {
		g, w := got.Feature(f), want.Feature(f)
		if (g == nil) != (w == nil) {
			t.Fatalf("feature %d: sketch present %v, serial %v", f, g != nil, w != nil)
		}
		if w != nil {
			gv, gg, gd := g.Summary()
			wv, wg, wd := w.Summary()
			if len(gv) != len(wv) {
				t.Fatalf("feature %d: %d tuples, serial %d", f, len(gv), len(wv))
			}
			for i := range wv {
				if math.Float64bits(gv[i]) != math.Float64bits(wv[i]) || gg[i] != wg[i] || gd[i] != wd[i] {
					t.Fatalf("feature %d tuple %d: (%v, %d, %d), serial (%v, %d, %d)", f, i, gv[i], gg[i], gd[i], wv[i], wg[i], wd[i])
				}
			}
		}
		gc, wc := gotCands[f], wantCands[f]
		if len(gc.Cuts) != len(wc.Cuts) || gc.ZeroBucket != wc.ZeroBucket {
			t.Fatalf("feature %d: cuts %v, serial %v", f, gc.Cuts, wc.Cuts)
		}
		for i := range wc.Cuts {
			if math.Float64bits(gc.Cuts[i]) != math.Float64bits(wc.Cuts[i]) {
				t.Fatalf("feature %d: cuts %v, serial %v", f, gc.Cuts, wc.Cuts)
			}
		}
	}
}

// TestAddRowsEqualsAddDataset: sketching by feature range on a pool gives
// every feature the summary, and the candidates, of one serial AddDataset
// pass — at every worker count, resident and out of core at any chunk size.
func TestAddRowsEqualsAddDataset(t *testing.T) {
	const eps = 0.02
	for _, sh := range sketchShapes() {
		name, d := sh.name, sh.d
		want := sketch.NewSet(d.NumFeatures, eps)
		want.AddDataset(d)
		path := filepath.Join(t.TempDir(), "train.bin")
		if err := dataset.WriteBinaryFile(path, d); err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2, 3, 8} {
			pool := parallel.New(p)
			t.Run(fmt.Sprintf("%s/P=%d/resident", name, p), func(t *testing.T) {
				got := sketch.NewSet(d.NumFeatures, eps)
				got.AddRows(pool, d.NumRows(), sketch.Resident(d))
				sameSketches(t, got, want, pool)
			})
			for _, chunkRows := range []int{1, 7, 1024} {
				t.Run(fmt.Sprintf("%s/P=%d/ooc-chunk=%d", name, p, chunkRows), func(t *testing.T) {
					// The tightest budget the source admits: every worker
					// walking the chunks must stay inside its cache floor.
					probe, err := ooc.Open(path, ooc.Options{ChunkRows: chunkRows, Parallelism: p})
					if err != nil {
						t.Fatal(err)
					}
					budget := probe.MinBudget()
					probe.Close()
					src, err := ooc.Open(path, ooc.Options{Budget: budget, ChunkRows: chunkRows, Parallelism: p})
					if err != nil {
						t.Fatal(err)
					}
					defer src.Close()
					got := sketch.NewSet(d.NumFeatures, eps)
					got.AddRows(pool, src.NumRows(), src.ForRowRange)
					if err := src.Err(); err != nil {
						t.Fatal(err)
					}
					if peak := src.Tracker().Peak(); peak > int64(budget) {
						t.Fatalf("tracker peak %d exceeds budget %d", peak, budget)
					}
					sameSketches(t, got, want, pool)
				})
			}
		}
	}
}

// BenchmarkCandidates times CREATE_SKETCH as the trainer runs it — AddRows
// and CandidatesOn — on a Zipf dataset of 100 000 features, at one and two
// workers.
func BenchmarkCandidates(b *testing.B) {
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 10000, NumFeatures: 100000, AvgNNZ: 100, Seed: 1, Zipf: 1.4})
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			pool := parallel.New(p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				set := sketch.NewSet(d.NumFeatures, 0.025)
				set.AddRows(pool, d.NumRows(), sketch.Resident(d))
				set.CandidatesOn(pool, 20)
			}
		})
	}
}
