package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dimboost/internal/dataset"
	"dimboost/internal/histogram"
	"dimboost/internal/obs"
	"dimboost/internal/ooc"
	"dimboost/internal/sketch"
)

// binningSpans returns how many "binning" phase spans the process has
// recorded so far (the span log's aggregate histogram keeps the full count).
func binningSpans() uint64 {
	for _, s := range obs.Default().Snapshot() {
		if s.Name != "dimboost_train_phase_seconds" {
			continue
		}
		for _, series := range s.Series {
			if series.Labels["phase"] == "binning" {
				return series.Count
			}
		}
	}
	return 0
}

// spillBytes returns the bytes written to binned spill files so far.
func spillBytes() int64 {
	for _, s := range obs.Default().Snapshot() {
		if s.Name == "dimboost_ooc_spill_bytes_total" {
			return s.Series[0].Value
		}
	}
	return 0
}

// TestBinningOncePerRunWhenLayoutIsTreeInvariant: with every feature sampled
// and fixed candidates the dataset is quantized once per Train call; feature
// sampling or per-tree candidates force once per tree. Either way the model
// is the float path's (trainFloat), bit for bit.
func TestBinningOncePerRunWhenLayoutIsTreeInvariant(t *testing.T) {
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 1500, NumFeatures: 300, AvgNNZ: 12, Seed: 61, Zipf: 1.3, NoiseStd: 0.2})
	base := smallConfig()
	base.NumTrees = 4
	base.Parallelism = 2
	base.BatchSize = 400

	for _, v := range []struct {
		name  string
		mut   func(*Config)
		spans uint64
	}{
		{"all features", func(*Config) {}, 1},
		{"feature sampling", func(c *Config) { c.FeatureSampleRatio = 0.5 }, 4},
		{"weighted candidates", func(c *Config) { c.WeightedCandidates = true }, 4},
	} {
		cfg := base
		v.mut(&cfg)
		ftr, err := NewTrainer(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := trainFloat(t, ftr, histogram.BuildSparse)
		before := binningSpans()
		got, err := Train(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n := binningSpans() - before; n != v.spans {
			t.Errorf("%s: %d binning spans in one Train call, want %d", v.name, n, v.spans)
		}
		if !bitIdentical(t, want, got) {
			t.Errorf("%s: binned model differs from the float-path reference", v.name)
		}
	}
}

// TestTrainDoesNotReuseAStaleMirror: nothing quantized in one Train call
// survives into the next — a second Train, and one after SetCandidates
// changed every bin id, each quantize again and each equal a fresh trainer.
func TestTrainDoesNotReuseAStaleMirror(t *testing.T) {
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 1200, NumFeatures: 200, AvgNNZ: 10, Seed: 62, Zipf: 1.3, NoiseStd: 0.2})
	cfg := smallConfig()
	cfg.NumTrees = 3
	tr, err := NewTrainer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := tr.Train()
	if err != nil {
		t.Fatal(err)
	}
	before := binningSpans()
	second, err := tr.Train()
	if err != nil {
		t.Fatal(err)
	}
	if n := binningSpans() - before; n != 1 {
		t.Errorf("second Train recorded %d binning spans, want 1", n)
	}
	if !bitIdentical(t, first, second) {
		t.Error("second Train on the same trainer differs from the first")
	}

	// Coarser candidates: four cuts per feature instead of twelve.
	set := sketch.NewSet(d.NumFeatures, 0.02)
	set.AddDataset(d)
	coarse := set.Candidates(4)
	fresh, err := NewTrainer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh.SetCandidates(coarse)
	want, err := fresh.Train()
	if err != nil {
		t.Fatal(err)
	}
	tr.SetCandidates(coarse)
	got, err := tr.Train()
	if err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(t, want, got) {
		t.Error("Train after SetCandidates differs from a fresh trainer with the same candidates")
	}
	if bitIdentical(t, first, got) {
		t.Error("coarser candidates left the model unchanged; the test is vacuous")
	}
}

// openSpillFiles counts this process's descriptors that point at a binned
// spill file (unlinked at creation, so only the descriptor table shows it).
func openSpillFiles(t *testing.T) int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no descriptor table to inspect: %v", err)
	}
	n := 0
	for _, e := range ents {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && strings.Contains(target, "dimboost-spill-") {
			n++
		}
	}
	return n
}

// TestOutOfCoreSpillsOncePerRunAndAlwaysCloses: out of core the quantized
// mirror is the spill file, so a tree-invariant layout writes it once
// however many trees follow, and Train closes it on every way out — after
// the last tree, after early stopping, and when the source reports an I/O
// error mid-run.
func TestOutOfCoreSpillsOncePerRunAndAlwaysCloses(t *testing.T) {
	gen := dataset.SyntheticConfig{NumRows: 6000, NumFeatures: 60, AvgNNZ: 15, Seed: 63, Zipf: 1.2, NoiseStd: 0.2}
	train := dataset.Generate(gen)
	dir := t.TempDir()
	path := filepath.Join(dir, "train.bin")
	if err := dataset.WriteBinaryFile(path, train); err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.Parallelism = 2
	cfg.BatchSize = 1024

	run := func(trees int, prepare func(*Trainer, *ooc.Source)) (*Model, int64, error) {
		t.Helper()
		// An unlimited probe names the floor; the run itself gets exactly it,
		// so every pass over the source reloads chunks from the file.
		probe, err := ooc.Open(path, ooc.Options{ChunkRows: 256, Parallelism: 2, SpillDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		min := probe.MinBudget()
		probe.Close()
		src, err := ooc.Open(path, ooc.Options{Budget: min, ChunkRows: 256, Parallelism: 2, SpillDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		c := cfg
		c.NumTrees = trees
		c.MemoryBudget = min
		tr, err := NewTrainerFromSource(src, c)
		if err != nil {
			t.Fatal(err)
		}
		if prepare != nil {
			prepare(tr, src)
		}
		before := spillBytes()
		m, err := tr.Train()
		if n := openSpillFiles(t); n != 0 {
			t.Errorf("%d spill files still open after Train returned (err=%v)", n, err)
		}
		return m, spillBytes() - before, err
	}

	_, one, err := run(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, three, err := run(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if one <= 0 || three != one {
		t.Errorf("spilled %d bytes for 3 trees, %d for 1: the mirror must be written once per run", three, one)
	}
	resident := cfg
	resident.NumTrees, resident.Parallelism = 3, 1
	want, err := Train(train, resident)
	if err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(t, want, m) {
		t.Error("out-of-core model with a per-run spill differs from the resident model")
	}

	// Early stopping leaves the loop with a break.
	valid := dataset.Generate(dataset.SyntheticConfig{NumRows: 300, NumFeatures: 60, AvgNNZ: 15, Seed: 64, Zipf: 1.2, NoiseStd: 3})
	cfg.EarlyStoppingRounds = 1
	stopped, _, err := run(30, func(tr *Trainer, _ *ooc.Source) { tr.Validation = valid })
	if err != nil {
		t.Fatal(err)
	}
	if len(stopped.Trees) >= 30 {
		t.Fatal("early stopping never fired; the break path went untested")
	}
	cfg.EarlyStoppingRounds = 0

	// An I/O failure on the source after the first tree: the file loses its
	// tail, the next pass over it records the sticky error, Train aborts.
	_, _, err = run(3, func(tr *Trainer, src *ooc.Source) {
		tr.OnTree = func(ev TreeEvent) {
			if ev.Tree != 0 {
				return
			}
			if err := os.Truncate(path, 4096); err != nil {
				t.Error(err)
			}
			src.ForRowRange(0, src.NumRows(), func(*dataset.Dataset, int, int, int) {})
		}
	})
	if err == nil {
		t.Fatal("Train returned a model although the source failed mid-run")
	}
}
