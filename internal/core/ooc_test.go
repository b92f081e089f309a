package core

import (
	"os"
	"path/filepath"
	"testing"

	"dimboost/internal/dataset"
	"dimboost/internal/ooc"
)

// TestOutOfCoreBitIdentical is the acceptance property of the out-of-core
// subsystem: training under a memory budget at least 10× smaller than the
// dataset produces a Float64bits-identical model to unconstrained in-memory
// training, at multiple parallelism levels — and the budget accounting never
// exceeds the configured budget. Run under -race in CI, it also shakes out
// data races in the chunk caches and streaming passes.
func TestOutOfCoreBitIdentical(t *testing.T) {
	// 40k rows × ~20 nnz ≈ 7 MB on disk; the budget below is under 700 KB,
	// so the ratio asserted further down holds with margin. ChunkRows 256
	// keeps the per-chunk working set (and with it MinBudget) small.
	gen := dataset.SyntheticConfig{NumRows: 40000, NumFeatures: 80, AvgNNZ: 20, Seed: 71, Zipf: 1.2, NoiseStd: 0.2}
	train := dataset.Generate(gen)
	path := filepath.Join(t.TempDir(), "train.bin")
	if err := dataset.WriteBinaryFile(path, train); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	const budget = 640 * ooc.KiB
	const chunkRows = 256
	if st.Size() < 10*int64(budget) {
		t.Fatalf("dataset %d bytes is not ≥ 10× the %d-byte budget; grow the dataset", st.Size(), int64(budget))
	}

	base := DefaultConfig()
	base.NumTrees = 3
	base.MaxDepth = 4
	base.NumCandidates = 12
	base.BatchSize = 1024
	base.FeatureSampleRatio = 0.8

	variants := []struct {
		name   string
		mut    func(*Config)
		levels []int
	}{
		{"plain", func(c *Config) {}, []int{1, 2, 4}},
		{"weighted", func(c *Config) { c.WeightedCandidates = true }, []int{1, 4}},
	}

	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := base
			v.mut(&cfg)
			cfg.Parallelism = 1
			want, err := Train(train, cfg)
			if err != nil {
				t.Fatalf("in-memory train: %v", err)
			}

			for _, p := range v.levels {
				cfg := base
				v.mut(&cfg)
				cfg.Parallelism = p
				cfg.MemoryBudget = budget
				src, err := ooc.Open(path, ooc.Options{
					Budget:      budget,
					ChunkRows:   chunkRows,
					Parallelism: p,
				})
				if err != nil {
					t.Fatalf("P=%d: %v", p, err)
				}
				tr, err := NewTrainerFromSource(src, cfg)
				if err != nil {
					src.Close()
					t.Fatalf("P=%d: %v", p, err)
				}
				got, err := tr.Train()
				if err != nil {
					src.Close()
					t.Fatalf("P=%d train: %v", p, err)
				}
				if peak := src.Tracker().Peak(); peak > int64(budget) {
					t.Errorf("P=%d: accounted peak %d exceeds budget %d", p, peak, int64(budget))
				}
				src.Close()
				if !bitIdentical(t, want, got) {
					t.Fatalf("P=%d: out-of-core model differs from in-memory model", p)
				}
			}
		})
	}
}

// TestOutOfCoreBitIdenticalAcrossChunkSizes is invariant 17 at the edges of
// the storage grid: at the minimum budget, with segments of one row, of a
// prime number of rows, and of more rows than a batch, at every
// parallelism, the model is Float64bits-identical to in-memory training and
// the accounted peak stays inside the budget. Small batches make the upper
// layers' nodes span several, so the layer walk advances many (node, batch)
// units per segment.
func TestOutOfCoreBitIdenticalAcrossChunkSizes(t *testing.T) {
	train := dataset.Generate(dataset.SyntheticConfig{NumRows: 3000, NumFeatures: 40, AvgNNZ: 8, Seed: 72, Zipf: 1.2, NoiseStd: 0.2})
	path := filepath.Join(t.TempDir(), "train.bin")
	if err := dataset.WriteBinaryFile(path, train); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.NumTrees = 2
	cfg.MaxDepth = 5
	cfg.NumCandidates = 12
	cfg.BatchSize = 256
	cfg.Parallelism = 1
	want, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4} {
		for _, chunkRows := range []int{1, 7, 1024} {
			probe, err := ooc.Open(path, ooc.Options{ChunkRows: chunkRows, Parallelism: p})
			if err != nil {
				t.Fatal(err)
			}
			budget := probe.MinBudget()
			probe.Close()
			cfg := cfg
			cfg.Parallelism = p
			cfg.MemoryBudget = budget
			src, err := ooc.Open(path, ooc.Options{Budget: budget, ChunkRows: chunkRows, Parallelism: p})
			if err != nil {
				t.Fatalf("P=%d chunk=%d: %v", p, chunkRows, err)
			}
			tr, err := NewTrainerFromSource(src, cfg)
			if err != nil {
				src.Close()
				t.Fatal(err)
			}
			got, err := tr.Train()
			peak := src.Tracker().Peak()
			src.Close()
			if err != nil {
				t.Fatalf("P=%d chunk=%d train: %v", p, chunkRows, err)
			}
			if peak > int64(budget) {
				t.Errorf("P=%d chunk=%d: accounted peak %d exceeds budget %d", p, chunkRows, peak, int64(budget))
			}
			if !bitIdentical(t, want, got) {
				t.Fatalf("P=%d chunk=%d: out-of-core model differs from in-memory model", p, chunkRows)
			}
		}
	}
}

// TestOutOfCoreRejectsResidentOnlyModes pins the constructor contract: the
// ablations that intrinsically require a resident dataset fail fast.
func TestOutOfCoreRejectsResidentOnlyModes(t *testing.T) {
	train := dataset.Generate(dataset.SyntheticConfig{NumRows: 500, NumFeatures: 20, AvgNNZ: 5, Seed: 9})
	path := filepath.Join(t.TempDir(), "train.bin")
	if err := dataset.WriteBinaryFile(path, train); err != nil {
		t.Fatal(err)
	}
	src, err := ooc.Open(path, ooc.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for _, mut := range []func(*Config){
		func(c *Config) { c.InstanceSampleRatio = 0.5 },
		func(c *Config) { c.NoNodeIndex = true },
		func(c *Config) { c.NoBinning = true },
		func(c *Config) { c.DenseBuild = true },
	} {
		cfg := DefaultConfig()
		cfg.NumTrees = 1
		mut(&cfg)
		if _, err := NewTrainerFromSource(src, cfg); err == nil {
			t.Errorf("config %+v: want error, got nil", cfg)
		}
	}
}

// TestTrainOutOfCoreConvenience exercises the one-call API end to end with a
// small budget.
func TestTrainOutOfCoreConvenience(t *testing.T) {
	train := dataset.Generate(dataset.SyntheticConfig{NumRows: 3000, NumFeatures: 30, AvgNNZ: 8, Seed: 10, Zipf: 1.1})
	path := filepath.Join(t.TempDir(), "train.bin")
	if err := dataset.WriteBinaryFile(path, train); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.NumTrees = 2
	cfg.MaxDepth = 3
	cfg.Parallelism = 2
	want, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := TrainOutOfCore(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(t, want, got) {
		t.Fatal("TrainOutOfCore model differs from in-memory model")
	}
}
