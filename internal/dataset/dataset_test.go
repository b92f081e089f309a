package dataset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mustBuild(t *testing.T, nf int, rows [][2][]float32, labels []float32) *Dataset {
	t.Helper()
	b := NewBuilder(nf)
	for i, r := range rows {
		idx := make([]int32, len(r[0]))
		for j, v := range r[0] {
			idx[j] = int32(v)
		}
		if err := b.Add(idx, r[1], labels[i]); err != nil {
			t.Fatalf("Add row %d: %v", i, err)
		}
	}
	return b.Build()
}

func TestBuilderRoundTrip(t *testing.T) {
	d := mustBuild(t, 10, [][2][]float32{
		{{0, 3, 7}, {1, 2, 3}},
		{{}, {}},
		{{9}, {-4.5}},
	}, []float32{1, 0, 1})

	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NumRows() != 3 {
		t.Fatalf("NumRows = %d, want 3", d.NumRows())
	}
	if d.NNZ() != 4 {
		t.Fatalf("NNZ = %d, want 4", d.NNZ())
	}
	r0 := d.Row(0)
	if got := r0.Feature(3); got != 2 {
		t.Errorf("row0 feature 3 = %v, want 2", got)
	}
	if got := r0.Feature(4); got != 0 {
		t.Errorf("row0 feature 4 = %v, want 0", got)
	}
	if r0.NNZ() != 3 {
		t.Errorf("row0 NNZ = %d, want 3", r0.NNZ())
	}
	if d.Row(1).NNZ() != 0 {
		t.Errorf("row1 should be empty")
	}
	if got := d.Row(2).Feature(9); got != -4.5 {
		t.Errorf("row2 feature 9 = %v, want -4.5", got)
	}
}

func TestBuilderRejectsUnsortedIndices(t *testing.T) {
	b := NewBuilder(10)
	if err := b.Add([]int32{3, 1}, []float32{1, 1}, 0); err == nil {
		t.Fatal("expected error for unsorted indices")
	}
	if err := b.Add([]int32{2, 2}, []float32{1, 1}, 0); err == nil {
		t.Fatal("expected error for duplicate indices")
	}
}

func TestBuilderDropsZeros(t *testing.T) {
	b := NewBuilder(5)
	if err := b.Add([]int32{0, 1, 2}, []float32{1, 0, 2}, 1); err != nil {
		t.Fatal(err)
	}
	d := b.Build()
	if d.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2 (zero dropped)", d.NNZ())
	}
	if d.Row(0).Feature(1) != 0 {
		t.Fatal("zero-valued entry should read back as 0")
	}
}

func TestFromDenseAndToDense(t *testing.T) {
	rows := [][]float32{
		{1, 0, 2},
		{0, 0, 0},
		{0, 3, 0},
	}
	labels := []float32{1, 0, 1}
	d, err := FromDense(rows, labels)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	back := d.ToDense()
	if !reflect.DeepEqual(rows, back) {
		t.Fatalf("dense round trip mismatch: %v vs %v", rows, back)
	}
}

func TestFromDenseLengthMismatch(t *testing.T) {
	if _, err := FromDense([][]float32{{1}}, []float32{1, 2}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestInferredNumFeatures(t *testing.T) {
	b := NewBuilder(0)
	if err := b.Add([]int32{5, 17}, []float32{1, 1}, 0); err != nil {
		t.Fatal(err)
	}
	d := b.Build()
	if d.NumFeatures != 18 {
		t.Fatalf("inferred NumFeatures = %d, want 18", d.NumFeatures)
	}
}

func TestSelectFeatures(t *testing.T) {
	d := mustBuild(t, 100, [][2][]float32{
		{{1, 50, 99}, {1, 2, 3}},
		{{0, 10}, {4, 5}},
	}, []float32{1, 0})
	s := d.SelectFeatures(11)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.NumFeatures != 11 {
		t.Fatalf("NumFeatures = %d, want 11", s.NumFeatures)
	}
	if s.Row(0).NNZ() != 1 || s.Row(0).Feature(1) != 1 {
		t.Errorf("row0 should keep only feature 1")
	}
	if s.Row(1).NNZ() != 2 {
		t.Errorf("row1 should keep both features")
	}
	// limit beyond range is a no-op copy
	full := d.SelectFeatures(1000)
	if full.NumFeatures != 100 || full.NNZ() != d.NNZ() {
		t.Errorf("over-limit select should copy everything")
	}
}

func TestSubsetAndSplit(t *testing.T) {
	b := NewBuilder(3)
	for i := 0; i < 10; i++ {
		b.AddDense([]float32{float32(i), 0, 1}, float32(i))
	}
	d := b.Build()
	sub := d.Subset(2, 5)
	if sub.NumRows() != 3 {
		t.Fatalf("subset rows = %d, want 3", sub.NumRows())
	}
	if sub.Labels[0] != 2 || sub.Labels[2] != 4 {
		t.Errorf("subset picked wrong rows: %v", sub.Labels)
	}
	train, test := d.Split(0.9)
	if train.NumRows() != 9 || test.NumRows() != 1 {
		t.Fatalf("split sizes %d/%d, want 9/1", train.NumRows(), test.NumRows())
	}
	if test.Labels[0] != 9 {
		t.Errorf("test row should be the last one")
	}
}

// Subset copies a range whose sizes it knows: the arrays are allocated once,
// and the copy is what gathering the same rows one by one produces.
func TestSubsetIsExactlySized(t *testing.T) {
	d := Generate(SyntheticConfig{NumRows: 300, NumFeatures: 40, AvgNNZ: 6, Seed: 5})
	for _, r := range [][2]int{{0, 300}, {17, 211}, {299, 300}, {120, 120}} {
		sub := d.Subset(r[0], r[1])
		rows := make([]int32, 0, r[1]-r[0])
		for i := r[0]; i < r[1]; i++ {
			rows = append(rows, int32(i))
		}
		if want := d.Gather(rows); !reflect.DeepEqual(sub, want) {
			t.Errorf("Subset(%d, %d) differs from Gather of the same rows", r[0], r[1])
		}
		if cap(sub.Indices) != len(sub.Indices) || cap(sub.Values) != len(sub.Values) ||
			cap(sub.RowPtr) != len(sub.RowPtr) || cap(sub.Labels) != len(sub.Labels) {
			t.Errorf("Subset(%d, %d) arrays were regrown", r[0], r[1])
		}
		if err := sub.Validate(); err != nil {
			t.Errorf("Subset(%d, %d): %v", r[0], r[1], err)
		}
	}
}

func TestSubsetPanicsOnBadRange(t *testing.T) {
	d := mustBuild(t, 3, [][2][]float32{{{0}, {1}}}, []float32{1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Subset(0, 2)
}

func TestPartitionRows(t *testing.T) {
	b := NewBuilder(2)
	for i := 0; i < 11; i++ {
		b.AddDense([]float32{float32(i + 1), 1}, float32(i))
	}
	d := b.Build()
	shards := PartitionRows(d, 4)
	if len(shards) != 4 {
		t.Fatalf("got %d shards, want 4", len(shards))
	}
	total := 0
	next := float32(0)
	for i, s := range shards {
		total += s.NumRows()
		lo, hi := ShardRange(11, 4, i)
		if s.NumRows() != hi-lo {
			t.Errorf("shard %d rows %d, ShardRange says %d", i, s.NumRows(), hi-lo)
		}
		for _, l := range s.Labels {
			if l != next {
				t.Fatalf("shard %d out of order: label %v, want %v", i, l, next)
			}
			next++
		}
	}
	if total != 11 {
		t.Fatalf("shards cover %d rows, want 11", total)
	}
	// sizes differ by at most one
	for _, s := range shards {
		if s.NumRows() < 11/4 || s.NumRows() > 11/4+1 {
			t.Errorf("unbalanced shard size %d", s.NumRows())
		}
	}
}

func TestPartitionMoreWorkersThanRows(t *testing.T) {
	d := mustBuild(t, 2, [][2][]float32{{{0}, {1}}, {{1}, {2}}}, []float32{0, 1})
	shards := PartitionRows(d, 5)
	if len(shards) != 5 {
		t.Fatalf("got %d shards, want 5", len(shards))
	}
	n := 0
	for _, s := range shards {
		n += s.NumRows()
	}
	if n != 2 {
		t.Fatalf("shards cover %d rows, want 2", n)
	}
}

func TestShardRangeCoversExactly(t *testing.T) {
	check := func(numRows, w int) bool {
		if numRows < 0 || w <= 0 || numRows > 10000 || w > 100 {
			return true // skip out-of-scope inputs
		}
		prev := 0
		for i := 0; i < w; i++ {
			lo, hi := ShardRange(numRows, w, i)
			if lo != prev || hi < lo {
				return false
			}
			prev = hi
		}
		return prev == numRows
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(func(n, w uint16) bool {
		return check(int(n)%10001, int(w)%100+1)
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := SyntheticConfig{NumRows: 500, NumFeatures: 5000, AvgNNZ: 40, NoiseStd: 0.3, Zipf: 1.4, Seed: 7}
	d := Generate(cfg)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NumRows() != 500 || d.NumFeatures != 5000 {
		t.Fatalf("shape %dx%d", d.NumRows(), d.NumFeatures)
	}
	avg := d.AvgNNZ()
	if avg < 20 || avg > 70 {
		t.Errorf("avg nnz %.1f far from configured 40", avg)
	}
	pos := 0
	for _, l := range d.Labels {
		if l != 0 && l != 1 {
			t.Fatalf("binary label %v out of {0,1}", l)
		}
		if l == 1 {
			pos++
		}
	}
	if pos < 100 || pos > 400 {
		t.Errorf("label balance suspicious: %d/500 positive", pos)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := SyntheticConfig{NumRows: 100, NumFeatures: 1000, AvgNNZ: 20, Seed: 42, Zipf: 1.3}
	a, b := Generate(cfg), Generate(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed should generate identical datasets")
	}
	cfg.Seed = 43
	c := Generate(cfg)
	if reflect.DeepEqual(a.Values, c.Values) {
		t.Fatal("different seeds should differ")
	}
}

func TestGenerateRegressionLabels(t *testing.T) {
	cfg := SyntheticConfig{NumRows: 200, NumFeatures: 100, AvgNNZ: 10, Regression: true, NoiseStd: 0.1, Seed: 3}
	d := Generate(cfg)
	nonBinary := false
	for _, l := range d.Labels {
		if l != 0 && l != 1 {
			nonBinary = true
		}
	}
	if !nonBinary {
		t.Fatal("regression labels should be continuous")
	}
}

func TestGenerateTrainTest(t *testing.T) {
	train, test := GenerateTrainTest(SyntheticConfig{NumRows: 100, NumFeatures: 50, AvgNNZ: 5, Seed: 1})
	if train.NumRows() != 90 || test.NumRows() != 10 {
		t.Fatalf("split %d/%d, want 90/10", train.NumRows(), test.NumRows())
	}
}

func TestPaperShapePresets(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  SyntheticConfig
		m    int
	}{
		{"rcv1", RCV1Like(10, 1), 47_000},
		{"synthesis", SynthesisLike(10, 1), 100_000},
		{"gender", GenderLike(10, 1), 330_000},
		{"synthesis2", Synthesis2Like(10, 1), 1000},
	} {
		if tc.cfg.NumFeatures != tc.m {
			t.Errorf("%s: features %d, want %d", tc.name, tc.cfg.NumFeatures, tc.m)
		}
		d := Generate(tc.cfg)
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

func TestDatasetSizeBytes(t *testing.T) {
	d := mustBuild(t, 3, [][2][]float32{{{0, 1}, {1, 2}}}, []float32{1})
	// rowptr 2*8 + idx 2*4 + val 2*4 + labels 1*4
	if got := d.SizeBytes(); got != 16+8+8+4 {
		t.Fatalf("SizeBytes = %d", got)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	d := mustBuild(t, 5, [][2][]float32{{{0, 2}, {1, 2}}}, []float32{1})
	d.Indices[1] = 0 // duplicate of indices[0] => not strictly increasing
	if err := d.Validate(); err == nil {
		t.Fatal("expected validation error for unsorted indices")
	}
	d2 := mustBuild(t, 5, [][2][]float32{{{0}, {1}}}, []float32{1})
	d2.Indices[0] = 99
	if err := d2.Validate(); err == nil {
		t.Fatal("expected validation error for out-of-range index")
	}
	d3 := mustBuild(t, 5, [][2][]float32{{{0}, {1}}}, []float32{1})
	d3.Values[0] = float32(nan())
	if err := d3.Validate(); err == nil {
		t.Fatal("expected validation error for NaN value")
	}
}

func nan() float64 { return float64(0) / zero }

var zero float64 // defeat constant folding
