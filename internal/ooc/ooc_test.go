package ooc

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dimboost/internal/dataset"
	"dimboost/internal/histogram"
	"dimboost/internal/parallel"
	"dimboost/internal/sketch"
)

func TestParseBudget(t *testing.T) {
	cases := []struct {
		in   string
		want Budget
		err  bool
	}{
		{"", 0, false},
		{"0", 0, false},
		{"1024", 1024, false},
		{"64KiB", 64 * KiB, false},
		{"64kb", 64 * KiB, false},
		{"2m", 2 * MiB, false},
		{"1.5GiB", Budget(1.5 * float64(GiB)), false},
		{"512MiB", 512 * MiB, false},
		{"3g", 3 * GiB, false},
		{"100B", 100, false},
		{"  256 MiB ", 256 * MiB, false},
		{"nope", 0, true},
		{"-5MiB", 0, true},
	}
	for _, c := range cases {
		got, err := ParseBudget(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseBudget(%q) err=%v, want err=%v", c.in, err, c.err)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseBudget(%q) = %d, want %d", c.in, got, c.want)
		}
	}
	if s := (512 * MiB).String(); s != "512MiB" {
		t.Errorf("String() = %q", s)
	}
	if s := Budget(0).String(); s != "unlimited" {
		t.Errorf("String() = %q", s)
	}
}

func TestTracker(t *testing.T) {
	var tr Tracker
	tr.Reserve(100)
	tr.Reserve(50)
	if tr.Current() != 150 || tr.Peak() != 150 {
		t.Fatalf("cur=%d peak=%d", tr.Current(), tr.Peak())
	}
	tr.Release(120)
	tr.Reserve(30)
	if tr.Current() != 60 || tr.Peak() != 150 {
		t.Fatalf("cur=%d peak=%d after release", tr.Current(), tr.Peak())
	}
}

// writeTestFile generates a synthetic dataset and writes it in the binary
// format, returning the path and the in-memory reference.
func writeTestFile(t *testing.T, cfg dataset.SyntheticConfig) (string, *dataset.Dataset) {
	t.Helper()
	d := dataset.Generate(cfg)
	path := filepath.Join(t.TempDir(), "train.bin")
	if err := dataset.WriteBinaryFile(path, d); err != nil {
		t.Fatal(err)
	}
	return path, d
}

func TestOpenRejectsTinyBudget(t *testing.T) {
	path, _ := writeTestFile(t, dataset.SyntheticConfig{NumRows: 1000, NumFeatures: 40, AvgNNZ: 8, Seed: 1})
	_, err := Open(path, Options{Budget: 1 * KiB, ChunkRows: 128, Parallelism: 2})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError, got %v", err)
	}
	if be.Min <= be.Budget {
		t.Fatalf("BudgetError.Min %d should exceed rejected budget %d", be.Min, be.Budget)
	}
	// Retrying with exactly the advertised minimum must succeed.
	src, err := Open(path, Options{Budget: be.Min, ChunkRows: 128, Parallelism: 2})
	if err != nil {
		t.Fatalf("open at advertised MinBudget: %v", err)
	}
	src.Close()
}

func TestSourceChunksMatchFullRead(t *testing.T) {
	path, full := writeTestFile(t, dataset.SyntheticConfig{NumRows: 700, NumFeatures: 30, AvgNNZ: 6, Seed: 2, Zipf: 1.1})
	src, err := Open(path, Options{ChunkRows: 64, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if src.NumRows() != full.NumRows() || src.NumFeatures() != full.NumFeatures {
		t.Fatalf("shape %dx%d vs %dx%d", src.NumRows(), src.NumFeatures(), full.NumRows(), full.NumFeatures)
	}
	for i, l := range full.Labels {
		if src.Labels()[i] != l {
			t.Fatalf("label %d: %v vs %v", i, src.Labels()[i], l)
		}
	}
	for c := 0; c < src.NumChunks(); c++ {
		d, release, err := src.Chunk(c)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := src.ChunkBounds(c)
		for i := lo; i < hi; i++ {
			want, got := full.Row(i), d.Row(i-lo)
			if want.Label != got.Label || len(want.Indices) != len(got.Indices) {
				t.Fatalf("row %d differs", i)
			}
			for j := range want.Indices {
				if want.Indices[j] != got.Indices[j] || want.Values[j] != got.Values[j] {
					t.Fatalf("row %d entry %d differs", i, j)
				}
			}
		}
		release()
	}
}

func TestBudgetedCacheEvictsAndStaysUnderBudget(t *testing.T) {
	path, _ := writeTestFile(t, dataset.SyntheticConfig{NumRows: 4000, NumFeatures: 40, AvgNNZ: 10, Seed: 3})
	probe, err := Open(path, Options{ChunkRows: 128, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	budget := probe.MinBudget()
	probe.Close()

	src, err := Open(path, Options{Budget: budget, ChunkRows: 128, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	// Two full sequential passes: the tight budget forces evictions on the
	// second pass; accounting must never exceed the budget.
	for pass := 0; pass < 2; pass++ {
		for c := 0; c < src.NumChunks(); c++ {
			d, release, err := src.Chunk(c)
			if err != nil {
				t.Fatal(err)
			}
			_ = d.NumRows()
			release()
		}
	}
	if peak := src.Tracker().Peak(); peak > int64(budget) {
		t.Fatalf("tracker peak %d exceeds budget %d", peak, budget)
	}
	if src.cache.residentBytes() > src.srcCap {
		t.Fatalf("source cache %d over its cap %d", src.cache.residentBytes(), src.srcCap)
	}
}

func TestConcurrentPinsUnderTightBudget(t *testing.T) {
	path, _ := writeTestFile(t, dataset.SyntheticConfig{NumRows: 4000, NumFeatures: 40, AvgNNZ: 10, Seed: 4})
	const workers = 4
	probe, err := Open(path, Options{ChunkRows: 128, Parallelism: workers})
	if err != nil {
		t.Fatal(err)
	}
	budget := probe.MinBudget()
	probe.Close()
	src, err := Open(path, Options{Budget: budget, ChunkRows: 128, Parallelism: workers})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	// workers goroutines each pin one chunk at a time over a scattered
	// order: the deadlock-freedom floor must let all of them make progress.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			nc := src.NumChunks()
			for i := 0; i < nc; i++ {
				c := (i*7 + w*nc/workers) % nc
				d, release, err := src.Chunk(c)
				if err != nil {
					t.Error(err)
					return
				}
				lo, hi := src.ChunkBounds(c)
				if d.NumRows() != hi-lo {
					t.Errorf("chunk %d rows %d want %d", c, d.NumRows(), hi-lo)
				}
				release()
			}
		}(w)
	}
	wg.Wait()
	if peak := src.Tracker().Peak(); peak > int64(budget) {
		t.Fatalf("tracker peak %d exceeds budget %d", peak, budget)
	}
}

// layoutFor builds a full-feature layout from unweighted sketches, the same
// way the trainer's first tree does.
func layoutFor(t *testing.T, d *dataset.Dataset, k int) *histogram.Layout {
	t.Helper()
	set := sketch.NewSet(d.NumFeatures, 1/(2*float64(k)))
	set.AddDataset(d)
	l, err := histogram.NewLayout(histogram.AllFeatures(d.NumFeatures), set.Candidates(k), d.NumFeatures)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestSpilledBinnedMatchesInMemory(t *testing.T) {
	path, full := writeTestFile(t, dataset.SyntheticConfig{NumRows: 1500, NumFeatures: 50, AvgNNZ: 9, Seed: 5, Zipf: 1.2})
	src, err := Open(path, Options{ChunkRows: 128, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	l := layoutFor(t, full, 12)
	ref := histogram.NewBinned(full, l, 1)

	pool := parallel.New(2)
	sb, err := src.BuildBinned(l, pool)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	if sb.Wide() != ref.Wide() {
		t.Fatalf("wide %v vs %v", sb.Wide(), ref.Wide())
	}

	// Every (row, position) bin must agree with the in-memory mirror.
	for c := 0; c < src.NumChunks(); c++ {
		view, release, err := sb.Seg(c)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := src.ChunkBounds(c)
		for r := lo; r < hi; r++ {
			for p := 0; p < l.NumFeatures(); p += 7 {
				if got, want := view.Bin(r-lo, int32(p)), ref.Bin(r, int32(p)); got != want {
					t.Fatalf("row %d pos %d: bin %d vs %d", r, p, got, want)
				}
			}
		}
		release()
	}

	// Streaming histogram build must be bit-identical to the in-memory one,
	// at both the direct (single-batch) and batched paths.
	n := full.NumRows()
	rows := make([]int32, n)
	grad := make([]float64, n)
	hess := make([]float64, n)
	for i := range rows {
		rows[i] = int32(i)
		grad[i] = math.Sin(float64(i)) * 0.7
		hess[i] = 0.1 + 0.9*math.Abs(math.Cos(float64(i)))
	}
	for _, batch := range []int{0, 256} {
		opts := histogram.BuildOptions{Parallelism: 2, BatchSize: batch}
		want := histogram.New(l)
		histogram.BuildBinned(want, ref, rows, grad, hess, opts)
		got := histogram.New(l)
		sb.BuildHistogram(got, rows, grad, hess, opts)
		for i := range want.G {
			if math.Float64bits(want.G[i]) != math.Float64bits(got.G[i]) ||
				math.Float64bits(want.H[i]) != math.Float64bits(got.H[i]) {
				t.Fatalf("batch %d: bucket %d G/H bits differ: %v/%v vs %v/%v",
					batch, i, want.G[i], want.H[i], got.G[i], got.H[i])
			}
		}
	}

	// Classification must agree with the in-memory predicate.
	checkClassify(t, pool, sb, ref, n)
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
}

// layerOf returns a layer of split nodes over rows [0, n) the way a tree
// holds them: disjoint, ascending, four of them interleaving across every
// segment (rows r ≡ node mod 5), one inside a single stretch of rows, and
// rows that belong to no split node (leaves).
func layerOf(l *histogram.Layout, n int) []NodeSplit {
	splits := make([]NodeSplit, 5)
	for i := range splits {
		p := int32(3 + 7*i)
		splits[i] = NodeSplit{Pos: p, Bucket: l.Cands[p].NumBuckets() / 2}
	}
	for r := 0; r < n; r++ {
		switch node := r % 5; {
		case node < 4:
			splits[node].Rows = append(splits[node].Rows, int32(r))
		case r >= 200 && r < 250:
			splits[4].Rows = append(splits[4].Rows, int32(r))
		}
	}
	return splits
}

// checkClassify runs one layer's Classify and compares every verdict with
// the in-memory predicate; rows of no split node must keep their mask entry.
func checkClassify(t *testing.T, pool *parallel.Pool, sb *SpilledBinned, ref *histogram.Binned, n int) {
	t.Helper()
	splits := layerOf(ref.Layout, n)
	mask := make([]bool, n)
	for r := range mask {
		mask[r] = r%2 == 0
	}
	untouched := append([]bool(nil), mask...)
	sb.Classify(pool, splits, mask)
	split := make([]bool, n)
	for _, s := range splits {
		for _, r := range s.Rows {
			split[r] = true
			if want := ref.Bin(int(r), s.Pos) <= s.Bucket; mask[r] != want {
				t.Fatalf("row %d classify %v want %v", r, mask[r], want)
			}
		}
	}
	for r := range mask {
		if !split[r] && mask[r] != untouched[r] {
			t.Fatalf("row %d belongs to no split but its verdict changed", r)
		}
	}
}

// TestClassifyReadsTheSpillOncePerLayer: under the tightest budget, where the
// spill cache holds a few segments, one layer's classification still reads
// no more than the spill's bytes — every segment at most once, however many
// nodes hold rows in it.
func TestClassifyReadsTheSpillOncePerLayer(t *testing.T) {
	path, full := writeTestFile(t, dataset.SyntheticConfig{NumRows: 1500, NumFeatures: 50, AvgNNZ: 9, Seed: 7, Zipf: 1.2})
	probe, err := Open(path, Options{ChunkRows: 64, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	budget := probe.MinBudget()
	probe.Close()
	src, err := Open(path, Options{Budget: budget, ChunkRows: 64, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	l := layoutFor(t, full, 12)
	pool := parallel.New(2)
	sb, err := src.BuildBinned(l, pool)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()

	read := oocMetrics().readBinned
	before := read.Value()
	checkClassify(t, pool, sb, histogram.NewBinned(full, l, 1), full.NumRows())
	if got := read.Value() - before; got > sb.SpillBytes() {
		t.Errorf("one layer read %d bytes of a %d-byte spill", got, sb.SpillBytes())
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	if peak := src.Tracker().Peak(); peak > int64(budget) {
		t.Fatalf("tracker peak %d exceeds budget %d", peak, budget)
	}
}

func TestSpillFileIsScratch(t *testing.T) {
	path, full := writeTestFile(t, dataset.SyntheticConfig{NumRows: 300, NumFeatures: 20, AvgNNZ: 5, Seed: 6})
	dir := t.TempDir()
	src, err := Open(path, Options{ChunkRows: 64, Parallelism: 1, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	l := layoutFor(t, full, 8)
	sb, err := src.BuildBinned(l, parallel.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if sb.SpillBytes() <= 0 {
		t.Fatalf("SpillBytes = %d", sb.SpillBytes())
	}
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}
	// After Close nothing of the spill may remain on disk.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Fatalf("leftover spill file %s", e.Name())
	}
}
