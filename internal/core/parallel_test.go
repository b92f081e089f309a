package core

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"time"

	"dimboost/internal/dataset"
	"dimboost/internal/histogram"
	"dimboost/internal/obs"
	"dimboost/internal/tree"
)

// bitIdentical demands Float64bits equality on every threshold and leaf
// weight — the invariant-15 contract, far stricter than sameStructure.
func bitIdentical(t *testing.T, a, b *Model) bool {
	t.Helper()
	if math.Float64bits(a.BaseScore) != math.Float64bits(b.BaseScore) {
		t.Logf("base score %v vs %v", a.BaseScore, b.BaseScore)
		return false
	}
	if len(a.Trees) != len(b.Trees) {
		t.Logf("tree count %d vs %d", len(a.Trees), len(b.Trees))
		return false
	}
	for ti := range a.Trees {
		if len(a.Trees[ti].Nodes) != len(b.Trees[ti].Nodes) {
			t.Logf("tree %d node count differs", ti)
			return false
		}
		for ni := range a.Trees[ti].Nodes {
			x, y := a.Trees[ti].Nodes[ni], b.Trees[ti].Nodes[ni]
			if x.Used != y.Used || x.Leaf != y.Leaf || x.Feature != y.Feature {
				t.Logf("tree %d node %d structure: %+v vs %+v", ti, ni, x, y)
				return false
			}
			if math.Float64bits(x.Value) != math.Float64bits(y.Value) {
				t.Logf("tree %d node %d threshold bits: %x vs %x (%v vs %v)",
					ti, ni, math.Float64bits(x.Value), math.Float64bits(y.Value), x.Value, y.Value)
				return false
			}
			if math.Float64bits(x.Weight) != math.Float64bits(y.Weight) {
				t.Logf("tree %d node %d weight bits: %x vs %x (%v vs %v)",
					ti, ni, math.Float64bits(x.Weight), math.Float64bits(y.Weight), x.Weight, y.Weight)
				return false
			}
		}
	}
	return true
}

// TestModelIndependentOfParallelism is the hard contract of the shared
// worker pool: for every covered configuration, training at any Parallelism
// produces the bit-identical model — fixed chunk grids plus ordered
// reductions leave no place for the worker count to leak into the floats.
// Run under -race in CI, this also shakes out data races in every phase.
func TestModelIndependentOfParallelism(t *testing.T) {
	// 6000 rows spans two RowChunk row chunks; 150 features spans three
	// PosChunk split-finding ranges; BatchSize 512 gives the root ~12
	// histogram batches. Every fan-out path sees real multi-chunk grids.
	train := dataset.Generate(dataset.SyntheticConfig{NumRows: 6000, NumFeatures: 150, AvgNNZ: 12, Seed: 51, Zipf: 1.2, NoiseStd: 0.2})
	val := dataset.Generate(dataset.SyntheticConfig{NumRows: 1200, NumFeatures: 150, AvgNNZ: 12, Seed: 52, Zipf: 1.2, NoiseStd: 0.2})

	base := smallConfig()
	base.NumTrees = 3
	base.MaxDepth = 4
	base.BatchSize = 512

	warmInit, err := Train(train, base)
	if err != nil {
		t.Fatal(err)
	}

	// Rows holding feature 20 are all positive, so a node of such rows alone
	// is pure and no real split of it gains. At MinChildHessian 0 it can
	// split off an empty child on the rounding residue between its totals
	// and its histogram; the other child is then built, not derived.
	pure := labelOneWhere(train, 20)

	variants := []struct {
		name   string
		mutate func(*Config)
		setup  func(*Trainer)
		// data replaces train when set. pairs, when set, is the fewest pairs
		// the widest built layer must have, emptyChild demands a pair with an
		// empty child, and wide some feature with uint16 bin ids.
		data       *dataset.Dataset
		pairs      int
		emptyChild bool
		wide       bool
	}{
		{name: "default", mutate: func(c *Config) {}},
		// The root, built from the column-major copy, as one batch and as
		// batches of 2500, 2500 and a ragged 1000 rows.
		{name: "root-one-batch", mutate: func(c *Config) { c.BatchSize = 6000 }},
		{name: "root-ragged-batches", mutate: func(c *Config) { c.BatchSize = 2500 }},
		{name: "uint16-bins", mutate: func(c *Config) { c.NumCandidates = 300 }, wide: true},
		// Deep enough that built layers hold at least as many pairs as
		// workers at every P, so they are grown node-parallel.
		{name: "depth-6", mutate: func(c *Config) { c.MaxDepth = 6 }, pairs: 8},
		{name: "depth-6-minhess0", mutate: func(c *Config) { c.MaxDepth = 6; c.MinChildHessian = 0 },
			data: pure, pairs: 4, emptyChild: true},
		{name: "instance-sampling", mutate: func(c *Config) { c.InstanceSampleRatio = 0.6 }},
		{name: "weighted-candidates", mutate: func(c *Config) { c.WeightedCandidates = true }},
		{name: "validation-early-stop", mutate: func(c *Config) { c.NumTrees = 6; c.EarlyStoppingRounds = 2 },
			setup: func(tr *Trainer) { tr.Validation = val }},
		{name: "warm-start", mutate: func(c *Config) {},
			setup: func(tr *Trainer) { tr.Init = warmInit }},
	}

	workers := obs.Default().Gauge("dimboost_parallel_workers", "Worker bound of the most recently constructed training pool (resolved Config.Parallelism).")
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			data := cmp.Or(v.data, train)
			cfg := base
			v.mutate(&cfg)
			trainAt := func(p int) *Model {
				cfg := cfg
				cfg.Parallelism = p
				tr, err := NewTrainer(data, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if v.setup != nil {
					v.setup(tr)
				}
				m, err := tr.Train()
				if err != nil {
					t.Fatal(err)
				}
				// A node-parallel layer's one-worker builds are no
				// training pool: the gauge still reads the trainer's.
				if got := workers.Value(); got != int64(p) {
					t.Fatalf("Parallelism=%d: the pool worker gauge reads %d", p, got)
				}
				return m
			}
			ref := trainAt(1)
			if most, empty := pairStats(data, ref, cfg.MaxDepth); most < v.pairs || (v.emptyChild && empty == 0) {
				t.Fatalf("the widest built layer has %d pairs and %d pairs have an empty child; grow the fixture", most, empty)
			}
			if v.wide && !wideBins(t, data, cfg) {
				t.Fatal("no feature has more than 256 buckets; grow the fixture")
			}
			for _, p := range []int{2, 3, 4, 8} {
				if got := trainAt(p); !bitIdentical(t, ref, got) {
					t.Fatalf("Parallelism=%d: model differs in bits from Parallelism=1", p)
				}
			}
		})
	}
}

// TestPhaseTimesFitTheWallClock: the pairs of a node-parallel layer overlap
// on the pool's workers, and the layer's phases share its wall time instead
// of summing their sections, so a P = 2 Train's phase times add up to no
// more than its own wall time, split finding included.
func TestPhaseTimesFitTheWallClock(t *testing.T) {
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 20000, NumFeatures: 3000, AvgNNZ: 30, Seed: 53, Zipf: 1.1})
	cfg := smallConfig()
	cfg.NumTrees = 3
	cfg.MaxDepth = 7
	cfg.Parallelism = 2
	tr, err := NewTrainer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := tr.Train(); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	t.Logf("Train %v, phases %+v", wall, tr.Times)
	if tr.Times.FindSplit <= 0 {
		t.Errorf("no split finding was timed: %+v", tr.Times)
	}
	if total := tr.Times.Total(); total > wall {
		t.Errorf("the phases sum to %v, more than Train's %v", total, wall)
	}
}

// wideBins reports whether the candidates a trainer proposes for d under cfg
// need uint16 bin ids.
func wideBins(t *testing.T, d *dataset.Dataset, cfg Config) bool {
	t.Helper()
	tr, err := NewTrainer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cands := tr.Candidates()
	layout, err := histogram.NewLayout(histogram.AllFeatures(d.NumFeatures), cands, d.NumFeatures)
	if err != nil {
		t.Fatal(err)
	}
	return layout.WideBins()
}

// labelOneWhere returns d with every row that holds feature f labelled 1.
func labelOneWhere(d *dataset.Dataset, f int32) *dataset.Dataset {
	b := dataset.NewBuilder(d.NumFeatures)
	for i := 0; i < d.NumRows(); i++ {
		r, y := d.Row(i), d.Labels[i]
		if slices.Contains(r.Indices, f) {
			y = 1
		}
		if err := b.Add(r.Indices, r.Values, y); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

// pairStats reads the trees of a model of the given depth trained on d: the
// most pairs any built layer had, and how many pairs had an empty child.
func pairStats(d *dataset.Dataset, m *Model, depth int) (most, empty int) {
	for _, tn := range m.Trees {
		rowsIn := make([]int, len(tn.Nodes))
		for i := 0; i < d.NumRows(); i++ {
			for n := tn.PredictNode(d.Row(i)); ; n = tree.Parent(n) {
				rowsIn[n]++
				if n == 0 {
					break
				}
			}
		}
		perLayer := make([]int, depth)
		for n, nd := range tn.Nodes {
			if !nd.Used || nd.Leaf || tree.Depth(n)+2 >= depth {
				continue
			}
			perLayer[tree.Depth(n)+1]++
			if rowsIn[tree.Left(n)] == 0 || rowsIn[tree.Right(n)] == 0 {
				empty++
			}
		}
		most = max(most, slices.Max(perLayer))
	}
	return most, empty
}
