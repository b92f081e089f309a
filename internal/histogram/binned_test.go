package histogram

import (
	"math/rand"
	"testing"

	"dimboost/internal/dataset"
	"dimboost/internal/sketch"
)

// requireBitIdentical asserts exact float64 equality — the binned builds
// promise bit-identity with the float builds, not mere closeness.
func requireBitIdentical(t *testing.T, ctx string, want, got *Histogram) {
	t.Helper()
	for i := range want.G {
		if want.G[i] != got.G[i] {
			t.Fatalf("%s: G[%d] = %v, want %v", ctx, i, got.G[i], want.G[i])
		}
		if want.H[i] != got.H[i] {
			t.Fatalf("%s: H[%d] = %v, want %v", ctx, i, got.H[i], want.H[i])
		}
	}
}

func TestBinnedMatchesFloatBitIdentical(t *testing.T) {
	d, cands, grad, hess := buildFixture(t, 300, 40, 8, 21)
	l, err := NewLayout(AllFeatures(40), cands, 40)
	if err != nil {
		t.Fatal(err)
	}
	rows := allRows(300)
	b := NewBinned(d, l, 4)
	if b.Wide() {
		t.Fatal("10 candidates must not escalate to uint16")
	}
	if b.NumRows() != 300 {
		t.Fatalf("NumRows = %d", b.NumRows())
	}

	hs, hb := New(l), New(l)
	BuildSparse(hs, d, rows, grad, hess)
	BuildSparseBinned(hb, b, rows, grad, hess)
	requireBitIdentical(t, "sparse", hs, hb)

	// Parallel: identical batching and merge order on both paths.
	for _, par := range []int{2, 4} {
		for _, batch := range []int{7, 64} {
			opts := BuildOptions{Parallelism: par, BatchSize: batch}
			pf, pb := New(l), New(l)
			Build(pf, d, rows, grad, hess, opts)
			BuildBinned(pb, b, rows, grad, hess, opts)
			requireBitIdentical(t, "parallel", pf, pb)
		}
	}
}

func TestBinnedSampledSubset(t *testing.T) {
	d, cands, grad, hess := buildFixture(t, 200, 30, 6, 22)
	sampled := []int32{0, 2, 5, 11, 17, 29}
	l, err := NewLayout(sampled, cands, 30)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBinned(d, l, 3)
	// The mirror must keep only sampled-feature entries.
	var kept int64
	for i := 0; i < d.NumRows(); i++ {
		in := d.Row(i)
		for _, f := range in.Indices {
			if l.Pos(f) >= 0 {
				kept++
			}
		}
	}
	if b.NNZ() != kept {
		t.Fatalf("binned NNZ %d, want %d", b.NNZ(), kept)
	}
	rows := allRows(200)
	hs, hb := New(l), New(l)
	BuildSparse(hs, d, rows, grad, hess)
	BuildSparseBinned(hb, b, rows, grad, hess)
	requireBitIdentical(t, "sampled sparse", hs, hb)
}

func TestBinnedBinAccessor(t *testing.T) {
	d, cands, _, _ := buildFixture(t, 150, 25, 5, 23)
	l, err := NewLayout(AllFeatures(25), cands, 25)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBinned(d, l, 2)
	for r := 0; r < d.NumRows(); r++ {
		in := d.Row(r)
		for p := int32(0); p < 25; p++ {
			want := l.Cands[p].Bucket(float64(in.Feature(int(p))))
			if got := b.Bin(r, p); got != want {
				t.Fatalf("row %d feature %d: bin %d, want %d", r, p, got, want)
			}
		}
	}
}

// wideFixture builds a dataset whose feature 0 has >256 buckets (forcing
// uint16 escalation) and whose values frequently land exactly on cut
// boundaries and above the largest cut (clamping).
func wideFixture(t *testing.T, seed int64, rows int) (*dataset.Dataset, []sketch.Candidates) {
	t.Helper()
	const features = 5
	var wideCuts []float64
	for i := -200; i <= 200; i++ {
		wideCuts = append(wideCuts, float64(i)*0.5)
	}
	narrowCuts := []float64{-1.5, 0, 0.25, 2, 8}
	cands := make([]sketch.Candidates, features)
	cands[0] = sketch.FromCuts(wideCuts)
	for f := 1; f < features; f++ {
		cands[f] = sketch.FromCuts(narrowCuts)
	}

	rng := rand.New(rand.NewSource(seed))
	bld := dataset.NewBuilder(features)
	for r := 0; r < rows; r++ {
		var idxs []int32
		var vals []float32
		for f := 0; f < features; f++ {
			if rng.Float64() < 0.5 {
				continue // zero-heavy rows
			}
			cuts := cands[f].Cuts
			var v float64
			switch rng.Intn(3) {
			case 0: // exactly on a cut boundary
				v = cuts[rng.Intn(len(cuts))]
			case 1: // above every cut: clamps into the last bucket
				v = cuts[len(cuts)-1] + 1 + rng.Float64()
			default:
				v = rng.NormFloat64() * 50
			}
			if v == 0 {
				continue // builder drops explicit zeros
			}
			idxs = append(idxs, int32(f))
			vals = append(vals, float32(v))
		}
		if err := bld.Add(idxs, vals, float32(r%2)); err != nil {
			t.Fatal(err)
		}
	}
	return bld.Build(), cands
}

func TestBinnedWideEscalation(t *testing.T) {
	d, cands := wideFixture(t, 31, 250)
	l, err := NewLayout(AllFeatures(5), cands, 5)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBinned(d, l, 4)
	if !b.Wide() {
		t.Fatal("401-bucket feature must escalate bin ids to uint16")
	}
	if b.Bins8 != nil || b.Bins16 == nil {
		t.Fatal("exactly Bins16 must be populated when Wide")
	}
	grad := make([]float64, d.NumRows())
	hess := make([]float64, d.NumRows())
	for i := range grad {
		grad[i] = float64(i%5) - 2
		hess[i] = 0.125 * float64(1+i%4)
	}
	rows := allRows(d.NumRows())
	hs, hb := New(l), New(l)
	BuildSparse(hs, d, rows, grad, hess)
	BuildSparseBinned(hb, b, rows, grad, hess)
	requireBitIdentical(t, "wide sparse", hs, hb)
}

func TestBinnedConstructionParallelism(t *testing.T) {
	d, cands, _, _ := buildFixture(t, 500, 60, 10, 24)
	l, err := NewLayout(AllFeatures(60), cands, 60)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewBinned(d, l, 1)
	for _, par := range []int{2, 3, 8, 1000} {
		b := NewBinned(d, l, par)
		if b.NNZ() != ref.NNZ() || len(b.RowPtr) != len(ref.RowPtr) {
			t.Fatalf("parallelism %d: shape mismatch", par)
		}
		for i := range ref.RowPtr {
			if b.RowPtr[i] != ref.RowPtr[i] {
				t.Fatalf("parallelism %d: RowPtr[%d]", par, i)
			}
		}
		for i := range ref.Pos {
			if b.Pos[i] != ref.Pos[i] || b.Bins8[i] != ref.Bins8[i] {
				t.Fatalf("parallelism %d: entry %d", par, i)
			}
		}
	}
}

func TestPoolRecycles(t *testing.T) {
	_, cands, grad, hess := buildFixture(t, 80, 10, 4, 25)
	l, err := NewLayout(AllFeatures(10), cands, 10)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(l)
	h := p.Get()
	if len(h.G) != l.TotalBuckets {
		t.Fatal("pool histogram has wrong shape")
	}
	h.G[0] = 42
	p.Put(h)
	if p.Idle() != 1 {
		t.Fatalf("Idle = %d, want 1", p.Idle())
	}
	h2 := p.Get()
	if h2 != h {
		t.Fatal("pool did not recycle the returned histogram")
	}
	if h2.G[0] != 0 {
		t.Fatal("recycled histogram not zeroed")
	}
	// nil and foreign-layout puts are ignored.
	p.Put(nil)
	other, err := NewLayout(AllFeatures(10), cands, 10)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(New(other))
	if p.Idle() != 0 {
		t.Fatalf("Idle = %d after ignored puts", p.Idle())
	}
	_ = grad
	_ = hess
}

func TestBuildWithPoolMatchesWithout(t *testing.T) {
	d, cands, grad, hess := buildFixture(t, 600, 40, 9, 26)
	l, err := NewLayout(AllFeatures(40), cands, 40)
	if err != nil {
		t.Fatal(err)
	}
	rows := allRows(600)
	b := NewBinned(d, l, 4)
	ref := New(l)
	BuildBinned(ref, b, rows, grad, hess, BuildOptions{Parallelism: 4, BatchSize: 32})
	pool := NewPool(l)
	got := New(l)
	// Two passes through the same pool: the second reuses the first's
	// partials.
	for pass := 0; pass < 2; pass++ {
		got.Reset()
		BuildBinned(got, b, rows, grad, hess, BuildOptions{Parallelism: 4, BatchSize: 32, Pool: pool})
		requireBitIdentical(t, "pooled", ref, got)
	}
	if pool.Idle() == 0 {
		t.Fatal("pool never received the builder partials back")
	}
}
