package histogram

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dimboost/internal/dataset"
	"dimboost/internal/parallel"
	"dimboost/internal/sketch"
)

// columnsCase is one comparison of Columns.Build with BuildBinned over every
// row: the data, the layout and the build's batch size and parallelism.
type columnsCase struct {
	d          *dataset.Dataset
	layout     *Layout
	grad, hess []float64
	batch, par int
}

// columnsFixture draws rows over features (feature empty never stored, rows
// 0 and every 7th empty) with gradients of many magnitudes, so that any other
// order of the float operations shows in the bits. Values often sit exactly
// on a cut or above the last one. wide gives feature 0 401 buckets (uint16
// bins); sampled keeps every other feature (σ < 1).
func columnsFixture(seed int64, rows, features, nnz int, wide, sampled bool) (*dataset.Dataset, *Layout, []float64, []float64, error) {
	rng := rand.New(rand.NewSource(seed))
	empty := int32(features / 2)
	bld := dataset.NewBuilder(features)
	for r := 0; r < rows; r++ {
		var idxs []int32
		var vals []float32
		for f := int32(0); f < int32(features) && r%7 != 0; f++ {
			if f == empty || rng.Intn(features) >= nnz {
				continue
			}
			v := float32(rng.NormFloat64() * 4)
			switch rng.Intn(4) {
			case 0:
				v = float32(rng.Intn(9) - 4)
			case 1:
				v = 1e3
			}
			if v == 0 {
				continue
			}
			idxs = append(idxs, f)
			vals = append(vals, v)
		}
		if err := bld.Add(idxs, vals, float32(r%2)); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	d := bld.Build()
	set := sketch.NewSet(features, 0.05)
	set.AddDataset(d)
	cands := set.Candidates(8)
	if wide {
		var cuts []float64
		for i := -200; i <= 200; i++ {
			cuts = append(cuts, float64(i)*0.05)
		}
		cands[0] = sketch.FromCuts(cuts)
	}
	feats := AllFeatures(features)
	if sampled {
		feats = feats[:0]
		for f := int32(0); f < int32(features); f++ {
			if f%2 == 0 || f == empty {
				feats = append(feats, f)
			}
		}
	}
	layout, err := NewLayout(feats, cands, features)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	grad, hess := make([]float64, rows), make([]float64, rows)
	for i := range grad {
		grad[i] = math.Ldexp(rng.NormFloat64(), rng.Intn(40)-20)
		hess[i] = math.Ldexp(rng.Float64(), rng.Intn(40)-20)
	}
	return d, layout, grad, hess, nil
}

// checkColumnsBuild builds c's every row with BuildBinned and with
// Columns.Build, materialised and deferred, and compares G and H by their
// bits, the state, the touched set and the deferred mass. It also checks the
// copy against the row-major mirror: every entry in place, each column in
// ascending row order.
func checkColumnsBuild(c columnsCase) error {
	pool := parallel.New(c.par)
	b := NewBinned(c.d, c.layout, c.par)
	cols := NewColumns(b, pool)
	wide := cols.Bins16 != nil
	if cols.NumRows() != b.NumRows() || int64(len(cols.Rows)) != b.NNZ() || wide != b.Wide() {
		return fmt.Errorf("copy of %d rows, %d entries, wide %v; the mirror has %d, %d, %v",
			cols.NumRows(), len(cols.Rows), wide, b.NumRows(), b.NNZ(), b.Wide())
	}
	for p := range c.layout.Features {
		for j := cols.ColPtr[p]; j < cols.ColPtr[p+1]; j++ {
			r := cols.Rows[j]
			if j > cols.ColPtr[p] && cols.Rows[j-1] >= r {
				return fmt.Errorf("position %d: rows %d, %d out of order", p, cols.Rows[j-1], r)
			}
			bin := 0
			if wide {
				bin = int(cols.Bins16[j])
			} else {
				bin = int(cols.Bins8[j])
			}
			if want := b.Bin(int(r), int32(p)); bin != want {
				return fmt.Errorf("position %d row %d: bin %d, the mirror's %d", p, r, bin, want)
			}
		}
	}
	rows := allRows(b.NumRows())
	for _, deferred := range []bool{false, true} {
		opts := BuildOptions{Parallelism: c.par, BatchSize: c.batch, Pool: NewPool(c.layout)}
		want, got := New(c.layout), opts.Pool.Get()
		if deferred {
			want.Defer()
			got.Defer()
		}
		BuildBinned(want, b, rows, c.grad, c.hess, opts)
		cols.Build(got, c.grad, c.hess, opts, pool)
		if err := sameBits(want, got); err != nil {
			return fmt.Errorf("deferred %v: %v", deferred, err)
		}
	}
	return nil
}

// sameBits compares two histograms bit for bit, state included.
func sameBits(want, got *Histogram) error {
	for i := range want.G {
		if math.Float64bits(want.G[i]) != math.Float64bits(got.G[i]) || math.Float64bits(want.H[i]) != math.Float64bits(got.H[i]) {
			return fmt.Errorf("bucket %d: (%v, %v), want (%v, %v)", i, got.G[i], got.H[i], want.G[i], want.H[i])
		}
	}
	if want.Deferred() != got.Deferred() {
		return fmt.Errorf("deferred %v, want %v", got.Deferred(), want.Deferred())
	}
	for w := range touchedWords(want.Layout) {
		if want.ScanWord(w) != got.ScanWord(w) {
			return fmt.Errorf("touched word %d: %064b, want %064b", w, got.ScanWord(w), want.ScanWord(w))
		}
	}
	wg, wh := want.DeferredMass()
	gg, gh := got.DeferredMass()
	if math.Float64bits(wg) != math.Float64bits(gg) || math.Float64bits(wh) != math.Float64bits(gh) {
		return fmt.Errorf("deferred mass (%v, %v), want (%v, %v)", gg, gh, wg, wh)
	}
	return nil
}

// TestColumnsBuildAgrees: the column build of a node that holds every row is
// BuildBinned's bit for bit — one batch, and several with a ragged last one;
// uint8 and uint16 bins; an empty column and empty rows; a σ < 1 layout; and
// P = 1, 2, 3 for both the copy and the build.
func TestColumnsBuildAgrees(t *testing.T) {
	for _, wide := range []bool{false, true} {
		for _, sampled := range []bool{false, true} {
			// 150 features span three touched words.
			d, layout, grad, hess, err := columnsFixture(41, 300, 150, 12, wide, sampled)
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range []int{300, 1000, 64} { // one batch, one, five (the last of 44 rows)
				for _, par := range []int{1, 2, 3} {
					c := columnsCase{d: d, layout: layout, grad: grad, hess: hess, batch: batch, par: par}
					if err := checkColumnsBuild(c); err != nil {
						t.Fatalf("wide %v, sampled %v, batch %d, P = %d: %v", wide, sampled, batch, par, err)
					}
				}
			}
		}
	}
}

// FuzzColumnsBuildAgrees is TestColumnsBuildAgrees under the fuzzer.
func FuzzColumnsBuildAgrees(f *testing.F) {
	f.Add(int64(1), uint16(300), uint16(150), uint16(12), uint16(64), uint8(0b0000)) // five batches
	f.Add(int64(2), uint16(200), uint16(70), uint16(5), uint16(0), uint8(0b0101))    // one batch, uint16 bins
	f.Add(int64(3), uint16(90), uint16(65), uint16(30), uint16(7), uint8(0b1010))    // σ < 1, P = 3
	f.Add(int64(4), uint16(1), uint16(1), uint16(1), uint16(1), uint8(0b0000))       // one empty row
	f.Fuzz(func(t *testing.T, seed int64, rows, features, nnz, batch uint16, flags uint8) {
		c := columnsCase{batch: int(batch % 128), par: int(flags>>2)%3 + 1}
		var err error
		c.d, c.layout, c.grad, c.hess, err = columnsFixture(seed, int(rows%400)+1, int(features%200)+1, int(nnz%40)+1, flags&1 != 0, flags&2 != 0)
		if err != nil {
			t.Skip(err)
		}
		if err := checkColumnsBuild(c); err != nil {
			t.Fatalf("seed %d, %d rows, %d features, batch %d, flags %04b: %v", seed, rows, features, c.batch, flags, err)
		}
	})
}
