package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dimboost/internal/dataset"
	"dimboost/internal/histogram"
	"dimboost/internal/sketch"
)

// fullScanReference is Algorithm 1 as FindSplitRange ran it before the
// touched scan: every sampled position, a Split built and compared with
// Better for every candidate of positive gain. The oracle of invariant 20.
func fullScanReference(h *histogram.Histogram, totalG, totalH, lambda, gamma, minChildHessian float64) Split {
	l := h.Layout
	parent := gainTerm(totalG, totalH, lambda)
	best := Split{}
	for p := 0; p < l.NumFeatures(); p++ {
		lo, hi := l.BucketRange(p)
		var gl, hl float64
		for k := 0; k < hi-lo-1; k++ {
			gl += h.G[lo+k]
			hl += h.H[lo+k]
			gr, hr := totalG-gl, totalH-hl
			if hl < minChildHessian || hr < minChildHessian {
				continue
			}
			gain := 0.5*(gainTerm(gl, hl, lambda)+gainTerm(gr, hr, lambda)-parent) - gamma
			if gain <= 0 {
				continue
			}
			cand := Split{
				Found: true, Feature: l.Features[p], Value: l.Cands[p].SplitValue(k), Gain: gain,
				LeftG: gl, LeftH: hl, RightG: gr, RightH: hr,
			}
			if cand.Better(best) {
				best = cand
			}
		}
	}
	return best
}

// touchedCase is one input of the touched-scan property: a Zipf-sparse
// matrix, a node's row subset cut into batches, and split-finding settings.
type touchedCase struct {
	seed                  int64
	rows, features, nnz   int // nnz is the per-row maximum
	wide                  bool
	batches               int
	lambda, gamma, minHes float64
}

// touchedCaseFrom decodes a case from raw fuzz/quick inputs, covering the
// grid invariant 20 names.
func touchedCaseFrom(seed int64, rows, features, nnz uint16, flags uint8) touchedCase {
	c := touchedCase{
		seed:     seed,
		rows:     int(rows) % 200,
		features: int(features)%300 + 1,
		wide:     flags&1 != 0,
		batches:  int(flags>>1)%5 + 1,
		lambda:   float64(flags >> 4 & 1),
		gamma:    0.1 * float64(flags>>5&1),
		minHes:   []float64{1e-4, 1}[flags>>6&1],
	}
	c.nnz = int(nnz) % (c.features + 1)
	return c
}

// sameSplit reports whether two splits agree in every field, bit for bit.
func sameSplit(a, b Split) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Found == b.Found && a.Feature == b.Feature && eq(a.Value, b.Value) && eq(a.Gain, b.Gain) &&
		eq(a.LeftG, b.LeftG) && eq(a.LeftH, b.LeftH) && eq(a.RightG, b.RightG) && eq(a.RightH, b.RightH)
}

// touchedFixture is a case's data: the matrix under its layout, per-row
// gradients, and the row subset of the node with its gradient sums. dup is the
// id of the last column, a duplicate of the most popular one, so the two tie
// at every cut and the lower feature id has to win in every scan.
type touchedFixture struct {
	rng            *rand.Rand
	layout         *histogram.Layout
	b              *histogram.Binned
	dup            int32
	grad, hess     []float64
	sel            []int32
	totalG, totalH float64
	batch          int
}

func newTouchedFixture(c touchedCase) (*touchedFixture, error) {
	rng := rand.New(rand.NewSource(c.seed))
	dup := c.features // id of the duplicate of feature 0
	cands := make([]sketch.Candidates, c.features+1)
	for f := range cands {
		shift := 0.25 * float64(f%3)
		cands[f] = sketch.FromCuts([]float64{-1.5 - shift, -0.5, 0, 0.5 + shift, 1.5, 3})
	}
	if c.wide {
		// 401 buckets: bin ids escalate to uint16.
		var cuts []float64
		for i := -200; i <= 200; i++ {
			cuts = append(cuts, float64(i)*0.02)
		}
		cands[0] = sketch.FromCuts(cuts)
	}
	cands[dup] = cands[0]

	var zipf *rand.Zipf
	if c.features > 1 {
		zipf = rand.NewZipf(rng, 1.4, 1, uint64(c.features-1))
	}
	bld := dataset.NewBuilder(c.features + 1)
	for r := 0; r < c.rows; r++ {
		vals := map[int32]float32{}
		dense := c.nnz == c.features // the dense corner: every feature in every row
		count := rng.Intn(c.nnz + 1)
		if dense {
			count = c.nnz
		}
		for i := 0; i < count; i++ {
			f := int32(0)
			switch {
			case dense:
				f = int32(i)
			case zipf != nil:
				f = int32(zipf.Uint64())
			}
			v := float32(rng.NormFloat64() * 1.5)
			if v != 0 {
				vals[f] = v
			}
		}
		if v, ok := vals[0]; ok {
			vals[int32(dup)] = v
		}
		var idxs []int32
		for f := int32(0); f <= int32(dup); f++ {
			if _, ok := vals[f]; ok {
				idxs = append(idxs, f)
			}
		}
		vs := make([]float32, len(idxs))
		for i, f := range idxs {
			vs[i] = vals[f]
		}
		if err := bld.Add(idxs, vs, 0); err != nil {
			return nil, err
		}
	}
	d := bld.Build()
	layout, err := histogram.NewLayout(histogram.AllFeatures(c.features+1), cands, c.features+1)
	if err != nil {
		return nil, err
	}
	b := histogram.NewBinned(d, layout, 2)
	if b.Wide() != c.wide {
		return nil, fmt.Errorf("bin width: wide=%v, want %v", b.Wide(), c.wide)
	}

	fx := &touchedFixture{rng: rng, layout: layout, b: b, dup: int32(dup)}
	fx.grad = make([]float64, c.rows)
	fx.hess = make([]float64, c.rows)
	for i := range fx.grad {
		fx.grad[i], fx.hess[i] = rng.NormFloat64(), rng.Float64()
		if rng.Float64() < 0.6 {
			fx.sel = append(fx.sel, int32(i))
			fx.totalG += fx.grad[i]
			fx.totalH += fx.hess[i]
		}
	}
	fx.batch = max((len(fx.sel)+c.batches-1)/c.batches, 1)
	return fx, nil
}

// buildDeferred is the trainer's build of a node over rows: deferred, cut into
// the case's batches.
func (fx *touchedFixture) buildDeferred(rows []int32) *histogram.Histogram {
	h := histogram.New(fx.layout)
	h.Defer()
	histogram.BuildBinned(h, fx.b, rows, fx.grad, fx.hess, histogram.BuildOptions{Parallelism: 2, BatchSize: fx.batch, Pool: histogram.NewPool(fx.layout)})
	return h
}

// checkTouchedScan builds the case's node histogram deferred, and requires
// that (a) materialising it gives the dense build — every batch built with
// BuildSparseBinned into its own zeroed histogram, merged bucket by bucket in
// ascending order — Float64bits-equal, and (b) the split found on the
// deferred histogram is the full scan's of that dense build in every field.
func checkTouchedScan(c touchedCase) error {
	fx, err := newTouchedFixture(c)
	if err != nil {
		return err
	}
	layout, b, dup, grad, hess := fx.layout, fx.b, fx.dup, fx.grad, fx.hess
	sel, totalG, totalH, batch := fx.sel, fx.totalG, fx.totalH, fx.batch

	ref := histogram.New(layout)
	if len(sel) <= batch {
		histogram.BuildSparseBinned(ref, b, sel, grad, hess)
	} else {
		for lo := 0; lo < len(sel); lo += batch {
			part := histogram.New(layout)
			histogram.BuildSparseBinned(part, b, sel[lo:min(lo+batch, len(sel))], grad, hess)
			for i := range ref.G {
				ref.G[i] += part.G[i]
				ref.H[i] += part.H[i]
			}
		}
	}

	h := fx.buildDeferred(sel)
	if !TouchedScanExact(h, totalH, c.minHes) {
		return fmt.Errorf("guard rejects a residue of %g under MinChildHessian %g", totalH, c.minHes)
	}
	got := FindSplit(h, totalG, totalH, c.lambda, c.gamma, c.minHes)
	want := fullScanReference(ref, totalG, totalH, c.lambda, c.gamma, c.minHes)
	if !sameSplit(got, want) {
		return fmt.Errorf("touched scan chose %+v, full scan %+v", got, want)
	}
	if want.Found && want.Feature == dup {
		return fmt.Errorf("tie between features 0 and %d went to the higher id", dup)
	}
	if full := FindSplit(ref, totalG, totalH, c.lambda, c.gamma, c.minHes); !sameSplit(full, want) {
		return fmt.Errorf("FindSplit on the dense build chose %+v, reference %+v", full, want)
	}

	h.Materialize()
	if err := sameBuckets(h, ref); err != nil {
		return fmt.Errorf("materialised against the dense build: %w", err)
	}
	return nil
}

// sameBuckets reports the first bucket in which two materialised histograms
// differ in bits.
func sameBuckets(got, want *histogram.Histogram) error {
	for i := range want.G {
		if math.Float64bits(got.G[i]) != math.Float64bits(want.G[i]) || math.Float64bits(got.H[i]) != math.Float64bits(want.H[i]) {
			return fmt.Errorf("bucket %d: (%v, %v), want (%v, %v)", i, got.G[i], got.H[i], want.G[i], want.H[i])
		}
	}
	return nil
}

// checkDerivedSibling is invariant 21: the case's node is a parent, a random
// subset of its rows — none and all of them included — the child that was
// built, and the sibling derived from the two deferred histograms has to be
// the dense subtraction of their materialised forms: the same buckets once
// materialised, over the parent's touched set and owing the difference of the
// two deferred masses until then, and the same split either way.
func checkDerivedSibling(c touchedCase) error {
	fx, err := newTouchedFixture(c)
	if err != nil {
		return err
	}
	keep := []float64{0, 1, 0.2, 0.5, 0.8}[fx.rng.Intn(5)]
	var built []int32
	sibG, sibH := 0.0, 0.0 // the derived sibling's totals, summed as a split record's are: in row order
	for _, r := range fx.sel {
		if fx.rng.Float64() < keep {
			built = append(built, r)
		} else {
			sibG += fx.grad[r]
			sibH += fx.hess[r]
		}
	}
	parent, child := fx.buildDeferred(fx.sel), fx.buildDeferred(built)

	want := histogram.New(fx.layout)
	mp, mc := parent.Clone(), child.Clone()
	mp.Materialize()
	mc.Materialize()
	want.SetSub(mp, mc)

	got := histogram.New(fx.layout)
	got.SetSub(parent, child)
	// In place, as the trainer subtracts: the same histogram.
	inPlace := parent.Clone()
	inPlace.SetSub(inPlace, child)
	ig, ih := inPlace.DeferredMass()
	if g, h := got.DeferredMass(); math.Float64bits(g) != math.Float64bits(ig) || math.Float64bits(h) != math.Float64bits(ih) {
		return fmt.Errorf("in place the derived mass is (%v, %v), into a zeroed target (%v, %v)", ig, ih, g, h)
	}
	for w := 0; w*64 < fx.layout.NumFeatures(); w++ {
		if inPlace.ScanWord(w) != got.ScanWord(w) {
			return fmt.Errorf("in place the derived touched word %d is %#x, into a zeroed target %#x", w, inPlace.ScanWord(w), got.ScanWord(w))
		}
	}
	inPlace.Materialize()
	pg, ph := parent.DeferredMass()
	cg, ch := child.DeferredMass()
	if g, h := got.DeferredMass(); math.Float64bits(g) != math.Float64bits(pg-cg) || math.Float64bits(h) != math.Float64bits(ph-ch) {
		return fmt.Errorf("derived mass (%v, %v), want (%v, %v)", g, h, pg-cg, ph-ch)
	}
	for w := 0; w*64 < fx.layout.NumFeatures(); w++ {
		if got.ScanWord(w) != parent.ScanWord(w) {
			return fmt.Errorf("derived touched word %d = %#x, the parent's is %#x", w, got.ScanWord(w), parent.ScanWord(w))
		}
	}
	if !TouchedScanExact(got, sibH, c.minHes) {
		return fmt.Errorf("guard rejects a residue of %g under MinChildHessian %g", sibH, c.minHes)
	}
	deferred := FindSplit(got, sibG, sibH, c.lambda, c.gamma, c.minHes)
	got.Materialize()
	if err := sameBuckets(got, want); err != nil {
		return fmt.Errorf("derived then materialised: %w", err)
	}
	if err := sameBuckets(inPlace, want); err != nil {
		return fmt.Errorf("derived in place then materialised: %w", err)
	}
	if full := FindSplit(got, sibG, sibH, c.lambda, c.gamma, c.minHes); !sameSplit(deferred, full) {
		return fmt.Errorf("split on the deferred difference %+v, on the materialised one %+v", deferred, full)
	}
	if ref := fullScanReference(want, sibG, sibH, c.lambda, c.gamma, c.minHes); !sameSplit(deferred, ref) {
		return fmt.Errorf("split on the deferred difference %+v, full scan of the dense one %+v", deferred, ref)
	}
	return nil
}

// touchedSeeds are the corners every run covers: all rows empty, one feature
// only, every feature touched (narrow and wide bins, several batches).
var touchedSeeds = []touchedCase{
	{seed: 1, rows: 40, features: 30, nnz: 0, batches: 3, lambda: 1, minHes: 1e-4},
	{seed: 2, rows: 60, features: 1, nnz: 1, batches: 2, lambda: 1, minHes: 1e-4},
	{seed: 3, rows: 50, features: 12, nnz: 12, batches: 4, lambda: 0, gamma: 0.1, minHes: 1},
	{seed: 4, rows: 50, features: 12, nnz: 12, wide: true, batches: 1, lambda: 1, minHes: 1e-4},
	{seed: 5, rows: 0, features: 5, nnz: 2, batches: 1, lambda: 1, minHes: 1e-4},
}

// TestTouchedScanEqualsFullScan is DESIGN §9 invariant 20.
func TestTouchedScanEqualsFullScan(t *testing.T) {
	for _, c := range touchedSeeds {
		if err := checkTouchedScan(c); err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
	}
	f := func(seed int64, rows, features, nnz uint16, flags uint8) bool {
		c := touchedCaseFrom(seed, rows, features, nnz, flags)
		if err := checkTouchedScan(c); err != nil {
			t.Logf("%+v: %v", c, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(20))}); err != nil {
		t.Fatal(err)
	}
}

// TestDerivedSiblingEqualsDenseSubtraction is DESIGN §9 invariant 21.
func TestDerivedSiblingEqualsDenseSubtraction(t *testing.T) {
	for _, c := range touchedSeeds {
		for seed := int64(0); seed < 5; seed++ { // every share of the parent's rows
			c.seed = 10*c.seed + seed
			if err := checkDerivedSibling(c); err != nil {
				t.Fatalf("%+v: %v", c, err)
			}
		}
	}
	f := func(seed int64, rows, features, nnz uint16, flags uint8) bool {
		c := touchedCaseFrom(seed, rows, features, nnz, flags)
		if err := checkDerivedSibling(c); err != nil {
			t.Logf("%+v: %v", c, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Fatal(err)
	}
}

// FuzzTouchedScanAgrees is the same two properties under the fuzzer.
func FuzzTouchedScanAgrees(f *testing.F) {
	f.Add(int64(1), uint16(40), uint16(29), uint16(0), uint8(0b0001_0100))  // all rows empty
	f.Add(int64(2), uint16(60), uint16(0), uint16(1), uint8(0b0001_0010))   // one feature only
	f.Add(int64(3), uint16(50), uint16(11), uint16(12), uint8(0b0110_0110)) // every feature touched
	f.Add(int64(4), uint16(50), uint16(11), uint16(12), uint8(0b0001_0001)) // the same, uint16 bins
	f.Fuzz(func(t *testing.T, seed int64, rows, features, nnz uint16, flags uint8) {
		c := touchedCaseFrom(seed, rows, features, nnz, flags)
		if err := checkTouchedScan(c); err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if err := checkDerivedSibling(c); err != nil {
			t.Fatalf("derived sibling, %+v: %v", c, err)
		}
	})
}

// TestScanMaterialisesWhenTheGuardFails arms TouchedScanExact in the local
// aggregator's scan. The node's totals are (−1, 5) while its rows sum to
// (−4, 4), as a shard's root that learns its totals from the aggregation
// can see: the residue (3, 1) clears MinChildHessian, so the guard fails.
// Every row holds feature 1 alone, above its last cut, so feature 1 offers
// no split, and the best split of the full scan is untouched feature 0's
// "everything left". A scan of the touched positions alone would find none.
func TestScanMaterialisesWhenTheGuardFails(t *testing.T) {
	cuts := sketch.FromCuts([]float64{-1, 0, 1})
	layout, err := histogram.NewLayout([]int32{0, 1}, []sketch.Candidates{cuts, cuts}, 2)
	if err != nil {
		t.Fatal(err)
	}
	bld := dataset.NewBuilder(2)
	rows := []int32{0, 1, 2, 3}
	for range rows {
		if err := bld.Add([]int32{1}, []float32{5}, 0); err != nil {
			t.Fatal(err)
		}
	}
	d := bld.Build()
	grad, hess := []float64{-1, -1, -1, -1}, []float64{1, 1, 1, 1}
	h := histogram.New(layout)
	h.Defer()
	histogram.BuildBinned(h, histogram.NewBinned(d, layout, 1), rows, grad, hess, histogram.BuildOptions{Parallelism: 1})

	cfg := smallConfig()
	cfg.Lambda, cfg.Gamma, cfg.MinChildHessian = 1, 0, 0.5
	nd := LayerNode{Node: 0, G: -1, H: 5}
	if TouchedScanExact(h, nd.H, cfg.MinChildHessian) {
		t.Fatal("the guard holds; the fixture has to fail it")
	}
	ref := h.Clone()
	ref.Materialize()
	want := fullScanReference(ref, nd.G, nd.H, cfg.Lambda, cfg.Gamma, cfg.MinChildHessian)
	if !want.Found || want.Feature != 0 {
		t.Fatalf("the full scan chose %+v; the fixture needs untouched feature 0's split", want)
	}

	tr, err := NewTrainer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	la := newLocalAggregator(tr, 0)
	la.scan(nd, h, histogram.NewPool(layout), pairRun{tr.pool, &tr.build, &tr.find})
	if got := la.decided[nd.Node].Split; !sameSplit(got, want) {
		t.Fatalf("scan decided %+v, the full scan of the materialised histogram %+v", got, want)
	}
}
