package core

import (
	"math"
	"testing"

	"dimboost/internal/dataset"
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

	variants := []struct {
		name   string
		mutate func(*Config)
		setup  func(*Trainer)
	}{
		{"default", func(c *Config) {}, nil},
		{"instance-sampling", func(c *Config) { c.InstanceSampleRatio = 0.6 }, nil},
		{"weighted-candidates", func(c *Config) { c.WeightedCandidates = true }, nil},
		{"validation-early-stop", func(c *Config) { c.NumTrees = 6; c.EarlyStoppingRounds = 2 },
			func(tr *Trainer) { tr.Validation = val }},
		{"warm-start", func(c *Config) {},
			func(tr *Trainer) { tr.Init = warmInit }},
	}

	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			trainAt := func(p int) *Model {
				cfg := base
				v.mutate(&cfg)
				cfg.Parallelism = p
				tr, err := NewTrainer(train, cfg)
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
				return m
			}
			ref := trainAt(1)
			for _, p := range []int{2, 3, 4, 8} {
				if got := trainAt(p); !bitIdentical(t, ref, got) {
					t.Fatalf("Parallelism=%d: model differs in bits from Parallelism=1", p)
				}
			}
		})
	}
}
