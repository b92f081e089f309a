package dimboost_test

// One testing.B benchmark per table and figure of the paper's evaluation
// (§7, Appendix A), at a reduced Scale so `go test -bench=.` completes in
// minutes; `cmd/dimboost-bench` runs the same experiments at full laptop
// scale. Additional micro-benchmarks cover the core data structures the
// experiments build on. These are for measuring while you work: numbers
// that are recorded or compared come from `bash bench/run.sh`
// (BENCHMARK.json, bench/README.md), nowhere else.

import (
	"fmt"
	"io"
	"path/filepath"
	"testing"

	"dimboost"
	"dimboost/internal/compress"
	"dimboost/internal/core"
	"dimboost/internal/experiments"
	"dimboost/internal/histogram"
	"dimboost/internal/obs"
	"dimboost/internal/ooc"
	"dimboost/internal/parallel"
	"dimboost/internal/sketch"
)

// benchScale keeps the macro-benchmarks short.
const benchScale = experiments.Scale(0.05)

func BenchmarkFig1RuntimeVsFeatures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1(io.Discard, benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1CostModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1(io.Discard)
	}
}

func BenchmarkTable3Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(io.Discard, benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12EndToEnd(b *testing.B) {
	for _, ds := range []experiments.Fig12Dataset{experiments.RCV1, experiments.Synthesis, experiments.Gender} {
		b.Run(string(ds), func(b *testing.B) {
			scale := benchScale
			if ds == experiments.Gender {
				scale = experiments.Scale(0.02) // 330K features; keep dense baselines short
			}
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Fig12(io.Discard, ds, scale); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable4ParameterServers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(io.Discard, experiments.Scale(0.02)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5FeatureDimension(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table5(io.Discard, experiments.Scale(0.1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6PCA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table6(io.Discard, benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig13(io.Discard, experiments.Scale(0.02)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14LowDimensional(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig14(io.Discard, benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkA1Unbiasedness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.A1(io.Discard)
	}
}

// --- Micro-benchmarks on the core data structures -----------------------

func benchData(b *testing.B, rows, features, nnz int) *dimboost.Dataset {
	b.Helper()
	return dimboost.Generate(dimboost.SyntheticConfig{
		NumRows: rows, NumFeatures: features, AvgNNZ: nnz, Zipf: 1.3, Seed: 7,
	})
}

func BenchmarkHistogramBuildSparse(b *testing.B) {
	d := benchData(b, 5000, 20000, 100)
	set := sketch.NewSet(d.NumFeatures, 0.04)
	set.AddDataset(d)
	layout, err := histogram.NewLayout(histogram.AllFeatures(d.NumFeatures), set.Candidates(12), d.NumFeatures)
	if err != nil {
		b.Fatal(err)
	}
	grad := make([]float64, d.NumRows())
	hess := make([]float64, d.NumRows())
	rows := make([]int32, d.NumRows())
	for i := range rows {
		rows[i] = int32(i)
		grad[i] = float64(i % 3)
		hess[i] = 0.3
	}
	h := histogram.New(layout)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Reset()
		histogram.BuildSparse(h, d, rows, grad, hess)
	}
	b.ReportMetric(float64(d.NNZ()), "nnz/op")
}

// BenchmarkHistogramBuildBinned runs the same workload as
// BenchmarkHistogramBuildSparse over the quantized mirror, so the two
// numbers are directly comparable.
func BenchmarkHistogramBuildBinned(b *testing.B) {
	d := benchData(b, 5000, 20000, 100)
	set := sketch.NewSet(d.NumFeatures, 0.04)
	set.AddDataset(d)
	layout, err := histogram.NewLayout(histogram.AllFeatures(d.NumFeatures), set.Candidates(12), d.NumFeatures)
	if err != nil {
		b.Fatal(err)
	}
	grad := make([]float64, d.NumRows())
	hess := make([]float64, d.NumRows())
	rows := make([]int32, d.NumRows())
	for i := range rows {
		rows[i] = int32(i)
		grad[i] = float64(i % 3)
		hess[i] = 0.3
	}
	bn := histogram.NewBinned(d, layout, 4)
	h := histogram.New(layout)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Reset()
		histogram.BuildSparseBinned(h, bn, rows, grad, hess)
	}
	b.ReportMetric(float64(bn.NNZ()), "nnz/op")
}

// BenchmarkHistogramBuildColumns builds BenchmarkHistogramBuildBinned's node
// of every row from the column-major copy, the way the trainer builds a root:
// one batch, its 64-position words fanned out over one and two workers.
func BenchmarkHistogramBuildColumns(b *testing.B) {
	d := benchData(b, 5000, 20000, 100)
	set := sketch.NewSet(d.NumFeatures, 0.04)
	set.AddDataset(d)
	layout, err := histogram.NewLayout(histogram.AllFeatures(d.NumFeatures), set.Candidates(12), d.NumFeatures)
	if err != nil {
		b.Fatal(err)
	}
	grad := make([]float64, d.NumRows())
	hess := make([]float64, d.NumRows())
	for i := range grad {
		grad[i] = float64(i % 3)
		hess[i] = 0.3
	}
	bn := histogram.NewBinned(d, layout, 4)
	cols := histogram.NewColumns(bn, parallel.New(4))
	opts := histogram.BuildOptions{BatchSize: d.NumRows()}
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			pool := parallel.New(p)
			h := histogram.New(layout)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Reset()
				cols.Build(h, grad, hess, opts, pool)
			}
			b.ReportMetric(float64(bn.NNZ()), "nnz/op")
		})
	}
}

// BenchmarkHistogramDeepNode is one deep-layer node of the resident trainer
// on the paper's shape — 100K features, Zipf popularity, 1/32 of the rows:
// Pool.Get → deferred build → split scan → Pool.Put. Every step walks what
// the node's rows touched instead of the layout, and the steady state
// allocates nothing.
func BenchmarkHistogramDeepNode(b *testing.B) {
	d := benchData(b, 4000, 100_000, 100)
	set := sketch.NewSet(d.NumFeatures, 0.025)
	set.AddDataset(d)
	layout, err := histogram.NewLayout(histogram.AllFeatures(d.NumFeatures), set.Candidates(20), d.NumFeatures)
	if err != nil {
		b.Fatal(err)
	}
	bn := histogram.NewBinned(d, layout, 2)
	grad := make([]float64, d.NumRows())
	hess := make([]float64, d.NumRows())
	var rows []int32
	var totalG, totalH float64
	for i := range grad {
		grad[i] = float64(i%5) - 2
		hess[i] = 0.25
		if i%32 == 0 {
			rows = append(rows, int32(i))
			totalG += grad[i]
			totalH += hess[i]
		}
	}
	pool := histogram.NewPool(layout)
	opts := histogram.BuildOptions{Parallelism: 1, BatchSize: 10000, Pool: pool}
	pool.Put(pool.Get())
	var split core.Split
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := pool.Get()
		h.Defer()
		histogram.BuildBinned(h, bn, rows, grad, hess, opts)
		split = core.FindSplit(h, totalG, totalH, 1, 0, 1e-4)
		pool.Put(h)
	}
	b.StopTimer()
	if !split.Found {
		b.Fatal("the deep node found no split")
	}
}

// BenchmarkHistogramDerivedSibling obtains the same histogram — the larger
// child (3/4 of the rows) of a deep node on the paper's shape, 100K features
// and 1/16 of the rows — both ways: "derive" subtracts the built smaller child
// from the parent in touched space and in place, which is what every trainer
// does (the untimed part of each iteration rebuilds the parent it consumed);
// "build" gives the larger child its own data pass, which none does any more.
// Neither allocates.
func BenchmarkHistogramDerivedSibling(b *testing.B) {
	d := benchData(b, 4000, 100_000, 100)
	set := sketch.NewSet(d.NumFeatures, 0.025)
	set.AddDataset(d)
	layout, err := histogram.NewLayout(histogram.AllFeatures(d.NumFeatures), set.Candidates(20), d.NumFeatures)
	if err != nil {
		b.Fatal(err)
	}
	bn := histogram.NewBinned(d, layout, 2)
	grad := make([]float64, d.NumRows())
	hess := make([]float64, d.NumRows())
	var node, small, large []int32
	for i := range grad {
		grad[i] = float64(i%5) - 2
		hess[i] = 0.25
		if i%16 != 0 {
			continue
		}
		node = append(node, int32(i))
		if i%64 == 0 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	pool := histogram.NewPool(layout)
	opts := histogram.BuildOptions{Parallelism: 1, BatchSize: 10000, Pool: pool}
	build := func(rows []int32) *histogram.Histogram {
		h := pool.Get()
		h.Defer()
		histogram.BuildBinned(h, bn, rows, grad, hess, opts)
		return h
	}
	built := build(small)
	pool.Put(pool.Get())
	b.Run("derive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			h := build(node)
			b.StartTimer()
			h.SetSub(h, built)
			pool.Put(h)
		}
	})
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pool.Put(build(large))
		}
	})
}

// BenchmarkBinnedConstruction times the quantization pass (once per run, or
// per tree under feature sampling) that the per-node build savings have to
// amortize.
func BenchmarkBinnedConstruction(b *testing.B) {
	d := benchData(b, 5000, 20000, 100)
	set := sketch.NewSet(d.NumFeatures, 0.04)
	set.AddDataset(d)
	layout, err := histogram.NewLayout(histogram.AllFeatures(d.NumFeatures), set.Candidates(12), d.NumFeatures)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bn := histogram.NewBinned(d, layout, 4)
		if bn.NNZ() == 0 {
			b.Fatal("empty binned matrix")
		}
	}
}

func BenchmarkHistogramBuildDense(b *testing.B) {
	d := benchData(b, 500, 5000, 50)
	set := sketch.NewSet(d.NumFeatures, 0.04)
	set.AddDataset(d)
	layout, err := histogram.NewLayout(histogram.AllFeatures(d.NumFeatures), set.Candidates(12), d.NumFeatures)
	if err != nil {
		b.Fatal(err)
	}
	grad := make([]float64, d.NumRows())
	hess := make([]float64, d.NumRows())
	rows := make([]int32, d.NumRows())
	for i := range rows {
		rows[i] = int32(i)
		grad[i] = 1
		hess[i] = 0.3
	}
	h := histogram.New(layout)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Reset()
		histogram.BuildDense(h, d, rows, grad, hess)
	}
}

func BenchmarkCompressEncode8Bit(b *testing.B) {
	enc := compress.NewEncoder(1)
	values := make([]float64, 1<<16)
	for i := range values {
		values[i] = float64(i%997) - 500
	}
	b.SetBytes(int64(len(values) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(values, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGKSketchInsert(b *testing.B) {
	s := sketch.NewGK(0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Insert(float64(i % 100000))
	}
}

func BenchmarkSingleMachineTrain(b *testing.B) {
	d := benchData(b, 2000, 10000, 50)
	cfg := dimboost.DefaultConfig()
	cfg.NumTrees = 5
	cfg.MaxDepth = 5
	cfg.Parallelism = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dimboost.Train(d, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// histPoolMisses is the number of histogram pool Gets that had to allocate
// so far in this process.
func histPoolMisses() int64 {
	return obs.Default().Counter("dimboost_train_hist_pool_misses_total", "Histogram pool Gets that had to allocate.").Value()
}

// reportHists reports the node histograms each Train allocated since
// before: its trainer's peak footprint, every histogram coming from one
// fresh pool that recycles them (TestTrainerHoldsOneLayerOfParents).
func reportHists(b *testing.B, before int64) {
	b.ReportMetric(float64(histPoolMisses()-before)/float64(b.N), "hists/op")
}

// BenchmarkTrainParallel sweeps the shared pool size over the
// BenchmarkSingleMachineTrain workload. The trained model is bit-identical
// at every level (see TestModelIndependentOfParallelism); the sub-benchmarks
// separate only up to the host's core count. Every node is one batch, so no
// build takes partials, but a layer with at least as many pairs as workers
// holds a node in hand per worker: hists/op grows by up to one per extra
// worker (TestTrainerHoldsOneLayerOfParents).
func BenchmarkTrainParallel(b *testing.B) {
	d := benchData(b, 2000, 10000, 50)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			cfg := dimboost.DefaultConfig()
			cfg.NumTrees = 5
			cfg.MaxDepth = 5
			cfg.Parallelism = p
			b.ReportAllocs()
			before := histPoolMisses()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dimboost.Train(d, cfg); err != nil {
					b.Fatal(err)
				}
			}
			reportHists(b, before)
		})
	}
}

// BenchmarkTrainOutOfCore trains the BenchmarkTrainParallel workload from a
// binary file through the out-of-core row source, at the source's minimum
// budget: the same model (TestOutOfCoreBitIdentical), its rows and binned
// mirror read back through bounded caches. A spilled layer builds all its
// nodes in one walk and the tree's pool parks at most Workers+1 idle
// histograms, so hists/op exceeds the resident run's.
func BenchmarkTrainOutOfCore(b *testing.B) {
	d := benchData(b, 2000, 10000, 50)
	path := filepath.Join(b.TempDir(), "train.bin")
	if err := dimboost.WriteBinaryFile(path, d); err != nil {
		b.Fatal(err)
	}
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			src, err := ooc.Open(path, ooc.Options{Parallelism: p})
			if err != nil {
				b.Fatal(err)
			}
			cfg := dimboost.DefaultConfig()
			cfg.NumTrees = 5
			cfg.MaxDepth = 5
			cfg.Parallelism = p
			cfg.MemoryBudget = src.MinBudget()
			src.Close()
			b.ReportAllocs()
			before := histPoolMisses()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dimboost.TrainOutOfCore(path, cfg); err != nil {
					b.Fatal(err)
				}
			}
			reportHists(b, before)
		})
	}
}

// BenchmarkTrainDeclaredDimension trains one local model on fixed rows,
// declared at 100K and at 2M features: what the declared dimension alone
// costs, in time and in bytes allocated, with every feature past the rows'
// 100K absent from them.
func BenchmarkTrainDeclaredDimension(b *testing.B) {
	d := benchData(b, 2000, 100_000, 50)
	for _, m := range []struct {
		name     string
		features int
	}{{"100K", 100_000}, {"2M", 2_000_000}} {
		b.Run(m.name, func(b *testing.B) {
			declared := *d
			declared.NumFeatures = m.features
			cfg := dimboost.DefaultConfig()
			cfg.NumTrees = 5
			cfg.MaxDepth = 5
			cfg.Parallelism = 1
			b.ReportAllocs()
			before := histPoolMisses()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dimboost.Train(&declared, cfg); err != nil {
					b.Fatal(err)
				}
			}
			reportHists(b, before)
		})
	}
}

func BenchmarkDistributedTrain(b *testing.B) {
	d := benchData(b, 2000, 10000, 50)
	cfg := dimboost.DefaultClusterConfig(4, 4)
	cfg.NumTrees = 5
	cfg.MaxDepth = 5
	cfg.Parallelism = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dimboost.TrainDistributed(d, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	d := benchData(b, 2000, 10000, 50)
	cfg := dimboost.DefaultConfig()
	cfg.NumTrees = 20
	cfg.MaxDepth = 6
	cfg.Parallelism = 1
	model, err := dimboost.Train(d, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Predict(d.Row(i % d.NumRows()))
	}
}

// --- Ablation micro-benchmarks for extension features --------------------

func BenchmarkWeightedCandidates(b *testing.B) {
	d := benchData(b, 3000, 500, 30)
	for _, weighted := range []bool{false, true} {
		name := "unweighted"
		if weighted {
			name = "weighted"
		}
		b.Run(name, func(b *testing.B) {
			cfg := dimboost.DefaultConfig()
			cfg.NumTrees = 3
			cfg.MaxDepth = 5
			cfg.Parallelism = 1
			cfg.WeightedCandidates = weighted
			for i := 0; i < b.N; i++ {
				if _, err := dimboost.Train(d, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
