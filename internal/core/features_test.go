package core

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"dimboost/internal/dataset"
	"dimboost/internal/histogram"
	"dimboost/internal/loss"
	"dimboost/internal/obs"
	"dimboost/internal/tree"
)

// TestOneDataPassPerSplit counts what the trainer reads instead of timing
// it: per tree, one data pass for the root plus one per split node whose
// children get histograms — the child Split.BuildLeft names, or the only one
// holding rows — and one derived histogram per split whose two children both
// hold rows. Under squared loss h ≡ 1, so the built child is the one with
// fewer rows (the left on a tie) and the rows read below the root are exactly
// Σ min(left, right); under logistic loss that holds for the first tree,
// whose hessians are all equal.
func TestOneDataPassPerSplit(t *testing.T) {
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 6000, NumFeatures: 500, AvgNNZ: 40, Seed: 103, Zipf: 1.3})
	for _, kind := range []loss.Kind{loss.Squared, loss.Logistic} {
		for _, float := range []bool{false, true} {
			cfg := smallConfig()
			cfg.NumTrees = 3
			cfg.MaxDepth = 6
			cfg.Loss = kind
			cfg.Parallelism = 2
			cfg.BatchSize = 1000
			tr, err := NewTrainer(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			type counts struct{ passes, derived, rows int }
			var after []counts
			tr.OnTree = func(TreeEvent) { after = append(after, counts{tr.BuiltHists, tr.DerivedHists, tr.BuiltRows}) }
			var model *Model
			if float {
				model = trainFloat(t, tr, histogram.BuildSparse)
			} else if model, err = tr.Train(); err != nil {
				t.Fatal(err)
			}
			var prev counts
			for ti, tn := range model.Trees {
				got := counts{after[ti].passes - prev.passes, after[ti].derived - prev.derived, after[ti].rows - prev.rows}
				prev = after[ti]

				rowsIn := make([]int, len(tn.Nodes))
				for i := 0; i < d.NumRows(); i++ {
					for n := tn.PredictNode(d.Row(i)); ; n = tree.Parent(n) {
						rowsIn[n]++
						if n == 0 {
							break
						}
					}
				}
				want := counts{passes: 1, rows: d.NumRows()}
				for n, nd := range tn.Nodes {
					// A split node's children get histograms unless they are
					// the last layer.
					if !nd.Used || nd.Leaf || tree.Depth(n)+2 >= cfg.MaxDepth {
						continue
					}
					l, r := rowsIn[tree.Left(n)], rowsIn[tree.Right(n)]
					want.passes++
					if l > 0 && r > 0 {
						want.derived++
						want.rows += min(l, r)
					} else {
						want.rows += l + r
					}
				}
				if want.derived < 5 {
					t.Fatalf("%s tree %d: only %d splits to derive from; grow the fixture", kind, ti, want.derived)
				}
				if got.passes != want.passes || got.derived != want.derived {
					t.Fatalf("%s float=%v tree %d: %d data passes and %d derived histograms, want %d and %d",
						kind, float, ti, got.passes, got.derived, want.passes, want.derived)
				}
				if (kind == loss.Squared || ti == 0) && got.rows != want.rows {
					t.Fatalf("%s float=%v tree %d: data passes read %d rows, want %d (the root's plus every split's smaller child)",
						kind, float, ti, got.rows, want.rows)
				}
			}
		}
	}
}

// TestTrainerHoldsOneLayerOfParents pins the trainer's histogram footprint:
// each node is scanned as soon as its histogram exists and put back unless it
// is a split parent of the next built layer, so at the deepest built layer of
// a depth-D tree the trainer holds the 2^(D−3) split parents it has not yet
// reached and the nodes in hand, one per worker of a node-parallel layer.
// Holding a whole layer until Splits took 2^(D−2). The tree's fresh pool
// allocates at most 2^(D−3) + Workers histograms (every node is one batch,
// so no build takes partials from it), and after every tree each one is back
// in it.
func TestTrainerHoldsOneLayerOfParents(t *testing.T) {
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 4000, NumFeatures: 200, AvgNNZ: 20, Seed: 107, Zipf: 1.1})
	for _, p := range []int{1, 2} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			cfg := smallConfig()
			cfg.NumTrees = 2
			cfg.MaxDepth = 6
			cfg.Parallelism = p
			cfg.BatchSize = d.NumRows()
			tr, err := NewTrainer(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			misses := obs.Default().Counter("dimboost_train_hist_pool_misses_total", "Histogram pool Gets that had to allocate.")
			before := misses.Value()
			var allocated, idle []int64
			tr.OnTree = func(TreeEvent) {
				allocated = append(allocated, misses.Value()-before)
				idle = append(idle, int64(tr.td.pool.Idle()))
			}
			model, err := tr.Train()
			if err != nil {
				t.Fatal(err)
			}
			deepest := cfg.MaxDepth - 2
			width := 0
			for i, nd := range model.Trees[0].Nodes {
				if nd.Used && tree.Depth(i) == deepest {
					width++
				}
			}
			if width != 1<<deepest {
				t.Fatalf("the deepest built layer has %d of %d nodes; grow the fixture", width, 1<<deepest)
			}
			t.Logf("the pool allocated %d histograms", allocated[len(allocated)-1])
			if limit := int64(1<<(cfg.MaxDepth-3) + p); allocated[len(allocated)-1] > limit {
				t.Errorf("the pool allocated %d histograms over %d depth-%d trees, want at most %d (one layer of split parents and a node in hand per worker)",
					allocated[len(allocated)-1], cfg.NumTrees, cfg.MaxDepth, limit)
			}
			for i := range allocated {
				if idle[i] != allocated[i] {
					t.Errorf("after tree %d the pool allocated %d histograms and holds %d", i, allocated[i], idle[i])
				}
			}
		})
	}
}

// floatAggregator is the float-path oracle of the quantized pipeline: the
// local aggregation, with every node histogram built from the float rows by
// build under the grower's batch grid — histogram.BuildSparse, a binary
// search per nonzero, or histogram.BuildDense, the competitors' enumeration
// of every sampled feature — instead of from bin ids.
type floatAggregator struct {
	localAggregator
	build func(h *histogram.Histogram, d *dataset.Dataset, rows []int32, grad, hess []float64)
}

func (fa *floatAggregator) BuildNode(h *histogram.Histogram, rows []int32, grad, hess []float64, opts histogram.BuildOptions) {
	histogram.BuildBatches(h, rows, opts, func(part *histogram.Histogram, batch []int32) {
		fa.build(part, fa.tr.rows.(residentRows).d, batch, grad, hess)
	})
}

// trainFloat boosts like tr.Train, without validation or a warm start, with
// a floatAggregator over build building every histogram.
func trainFloat(t *testing.T, tr *Trainer, build func(*histogram.Histogram, *dataset.Dataset, []int32, []float64, []float64)) *Model {
	t.Helper()
	return boostWith(t, tr, func(i int) Aggregator {
		return &floatAggregator{*newLocalAggregator(tr, i), build}
	})
}

// boostWith boosts like tr.Train, without validation or a warm start, with
// agg(i) aggregating tree i.
func boostWith(t *testing.T, tr *Trainer, agg func(i int) Aggregator) *Model {
	t.Helper()
	tr.Candidates()
	defer tr.closeTreeData()
	preds := make([]float64, tr.rows.NumRows())
	model := &Model{Loss: tr.cfg.Loss}
	for i := 0; i < tr.cfg.NumTrees; i++ {
		tn, err := tr.growTree(agg(i), true, preds)
		if err != nil {
			t.Fatal(err)
		}
		model.Trees = append(model.Trees, tn)
		if tr.OnTree != nil {
			tr.OnTree(TreeEvent{Tree: i})
		}
	}
	return model
}

// countingBuilder is the sparse float oracle counting what the grower asks
// of a NodeBuilder; a node-parallel layer asks from several workers at once.
type countingBuilder struct {
	floatAggregator
	calls, rows atomic.Int64
}

func (cb *countingBuilder) BuildNode(h *histogram.Histogram, rows []int32, grad, hess []float64, opts histogram.BuildOptions) {
	cb.calls.Add(1)
	cb.rows.Add(int64(len(rows)))
	cb.floatAggregator.BuildNode(h, rows, grad, hess, opts)
}

// TestNodeBuilderBuildsEveryBuiltNode: a resident NodeBuilder is asked for
// exactly the grower's data passes — once per built node, over that node's
// rows — and never for a node derived by subtraction.
func TestNodeBuilderBuildsEveryBuiltNode(t *testing.T) {
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 800, NumFeatures: 120, AvgNNZ: 12, Seed: 137, Zipf: 1.2})
	cfg := smallConfig()
	cfg.NumTrees = 3
	cfg.MaxDepth = 5
	cfg.Parallelism = 2
	cfg.BatchSize = 128
	tr, err := NewTrainer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var builders []*countingBuilder
	boostWith(t, tr, func(i int) Aggregator {
		cb := &countingBuilder{floatAggregator: floatAggregator{*newLocalAggregator(tr, i), histogram.BuildSparse}}
		builders = append(builders, cb)
		return cb
	})
	calls, rows := 0, 0
	for _, cb := range builders {
		calls += int(cb.calls.Load())
		rows += int(cb.rows.Load())
	}
	if tr.DerivedHists == 0 {
		t.Fatal("no histogram was derived; grow the fixture")
	}
	if calls != tr.BuiltHists || rows != tr.BuiltRows {
		t.Fatalf("BuildNode ran %d times over %d rows; the grower built %d histograms over %d rows",
			calls, rows, tr.BuiltHists, tr.BuiltRows)
	}
}

// TestBinnedMatchesFloatPath is the tentpole invariant of the quantized
// pipeline: training over bin ids is bit-identical to training over float
// values, across the feature interactions that touch the split path, and
// equal to the dense float build the competitors use.
func TestBinnedMatchesFloatPath(t *testing.T) {
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 600, NumFeatures: 90, AvgNNZ: 12, Seed: 131, Zipf: 1.2})
	variants := []struct {
		name  string
		mut   func(*Config)
		dense bool
	}{
		{"default", func(c *Config) {}, false},
		{"sampling", func(c *Config) { c.FeatureSampleRatio = 0.4; c.InstanceSampleRatio = 0.6 }, false},
		{"dense", func(c *Config) {}, true},
		{"weighted", func(c *Config) { c.WeightedCandidates = true }, false},
		{"parallel", func(c *Config) { c.Parallelism = 4; c.BatchSize = 64 }, false},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.NumTrees = 4
			cfg.MaxDepth = 5
			v.mut(&cfg)
			binned, err := Train(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := NewTrainer(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			build := histogram.BuildSparse
			if v.dense {
				build = histogram.BuildDense
			}
			if !sameStructure(t, trainFloat(t, tr, build), binned) {
				t.Fatal("binned training diverged from the float path")
			}
		})
	}
}

func TestInstanceSampling(t *testing.T) {
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 1500, NumFeatures: 200, AvgNNZ: 15, Seed: 105, Zipf: 1.2, NoiseStd: 0.2})
	train, test := d.Split(0.9)
	cfg := smallConfig()
	cfg.NumTrees = 12
	cfg.InstanceSampleRatio = 0.5
	model, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(model.Trees) != 12 {
		t.Fatalf("%d trees", len(model.Trees))
	}
	preds := model.PredictBatch(test)
	auc, err := loss.AUC(test.Labels, preds)
	if err != nil {
		t.Fatal(err)
	}
	if auc < 0.55 {
		t.Fatalf("subsampled model AUC %v — did not learn", auc)
	}
}

func TestEarlyStopping(t *testing.T) {
	// tiny training set + heavy noise: validation loss starts rising early
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 300, NumFeatures: 100, AvgNNZ: 10, Seed: 109, NoiseStd: 1.5, Zipf: 1.2})
	train, val := d.Split(0.6)
	cfg := smallConfig()
	cfg.NumTrees = 60
	cfg.LearningRate = 0.5
	cfg.MaxDepth = 6
	cfg.EarlyStoppingRounds = 5
	tr, err := NewTrainer(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr.Validation = val
	model, err := tr.Train()
	if err != nil {
		t.Fatal(err)
	}
	if len(model.Trees) >= 60 {
		t.Fatalf("early stopping never triggered (%d trees)", len(model.Trees))
	}
	if math.IsInf(tr.BestValidationLoss, 1) {
		t.Fatal("best validation loss not recorded")
	}
	// truncated model must actually achieve the recorded loss
	preds := model.PredictBatch(val)
	got := loss.MeanLoss(loss.New(cfg.Loss), val.Labels, preds)
	if math.Abs(got-tr.BestValidationLoss) > 1e-9 {
		t.Fatalf("truncated model loss %v != recorded best %v", got, tr.BestValidationLoss)
	}
}

func TestWarmStart(t *testing.T) {
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 800, NumFeatures: 150, AvgNNZ: 12, Seed: 111, Zipf: 1.2, NoiseStd: 0.2})
	cfg := smallConfig()
	cfg.NumTrees = 5
	first, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	firstLoss, _ := first.Evaluate(d)

	tr, err := NewTrainer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr.Init = first
	combined, err := tr.Train()
	if err != nil {
		t.Fatal(err)
	}
	if len(combined.Trees) != 10 {
		t.Fatalf("warm start produced %d trees, want 10", len(combined.Trees))
	}
	combinedLoss, _ := combined.Evaluate(d)
	if combinedLoss >= firstLoss {
		t.Fatalf("continued training did not reduce loss: %v -> %v", firstLoss, combinedLoss)
	}
	// warm start must match training 10 trees in one go... not exactly
	// (feature sampling rng differs), but with σ=1 and everything
	// deterministic the continued run equals the one-shot run
	oneshot := cfg
	oneshot.NumTrees = 10
	ref, err := Train(d, oneshot)
	if err != nil {
		t.Fatal(err)
	}
	if !sameStructure(t, ref, combined) {
		t.Fatal("warm start diverged from one-shot training")
	}
}

func TestWarmStartLossMismatch(t *testing.T) {
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 100, NumFeatures: 30, AvgNNZ: 5, Seed: 113})
	cfg := smallConfig()
	cfg.NumTrees = 2
	m, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Loss = loss.Squared
	tr, err := NewTrainer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr.Init = m
	if _, err := tr.Train(); err == nil {
		t.Fatal("expected loss mismatch error")
	}
}

func TestImportanceAndDump(t *testing.T) {
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 500, NumFeatures: 100, AvgNNZ: 12, Seed: 115, Zipf: 1.2})
	cfg := smallConfig()
	cfg.NumTrees = 5
	model, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}

	imp := model.Importance()
	if len(imp) == 0 {
		t.Fatal("no feature importance")
	}
	totalSplits := 0
	for i, fi := range imp {
		if fi.Gain <= 0 || fi.Splits <= 0 {
			t.Fatalf("feature %d: gain %v splits %d", fi.Feature, fi.Gain, fi.Splits)
		}
		if i > 0 && fi.Gain > imp[i-1].Gain {
			t.Fatal("importance not sorted by gain")
		}
		totalSplits += fi.Splits
	}
	internal, leaves := model.NumNodes()
	if totalSplits != internal {
		t.Fatalf("importance counts %d splits, model has %d internal nodes", totalSplits, internal)
	}
	if leaves != internal+len(model.Trees) {
		t.Fatalf("binary-tree invariant broken: %d leaves, %d internal, %d trees", leaves, internal, len(model.Trees))
	}

	var sb strings.Builder
	if err := model.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	dump := sb.String()
	if !strings.Contains(dump, "tree 0:") || !strings.Contains(dump, "leaf=") || !strings.Contains(dump, "[f") {
		t.Fatalf("dump missing expected content:\n%s", dump[:200])
	}
}

func TestPredictLeaves(t *testing.T) {
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 300, NumFeatures: 50, AvgNNZ: 8, Seed: 117, Zipf: 1.2})
	cfg := smallConfig()
	cfg.NumTrees = 4
	model, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		in := d.Row(i)
		leaves := model.PredictLeaves(in)
		if len(leaves) != 4 {
			t.Fatalf("%d leaf ids", len(leaves))
		}
		// reconstructing the prediction from leaf weights must match
		sum := model.BaseScore
		for ti, leaf := range leaves {
			nd := model.Trees[ti].Nodes[leaf]
			if !nd.Used || !nd.Leaf {
				t.Fatalf("tree %d: node %d is not a leaf", ti, leaf)
			}
			sum += nd.Weight
		}
		if math.Abs(sum-model.Predict(in)) > 1e-12 {
			t.Fatalf("leaf reconstruction %v != predict %v", sum, model.Predict(in))
		}
	}
}

func TestWeightedCandidatesTrain(t *testing.T) {
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 1200, NumFeatures: 150, AvgNNZ: 12, Seed: 119, Zipf: 1.2, NoiseStd: 0.2})
	train, test := d.Split(0.9)
	cfg := smallConfig()
	cfg.NumTrees = 10
	base, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.WeightedCandidates = true
	weighted, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eb := loss.ErrorRate(test.Labels, base.PredictBatch(test))
	ew := loss.ErrorRate(test.Labels, weighted.PredictBatch(test))
	// weighted candidates must stay in the same quality ballpark
	if ew > eb+0.08 {
		t.Fatalf("weighted candidates error %.4f vs base %.4f", ew, eb)
	}
	if len(weighted.Trees) != 10 {
		t.Fatalf("%d trees", len(weighted.Trees))
	}
}
