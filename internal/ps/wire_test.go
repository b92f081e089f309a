package ps

import (
	"errors"
	"math"
	"testing"

	"dimboost/internal/compress"
	"dimboost/internal/dataset"
	"dimboost/internal/histogram"
)

// TestStalePartitionPushRejected is the regression for the decode path that
// used to trust the client-sent bits/N header: a client whose layout comes
// from an older NEW_TREE (fewer sampled features, so fewer buckets) pushes a
// mis-sized shard, and the server must answer with a typed ShapeError — not
// accept it into the merge buffer, and not panic at merge time.
func TestStalePartitionPushRejected(t *testing.T) {
	const m, p, w = 40, 2, 2
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 200, NumFeatures: m, AvgNNZ: 8, Seed: 21, Zipf: 1.2})
	fx := newFixture(t, m, p, w)
	buildDistributedHistograms(t, fx, d, 0) // installs the current layout

	// The stale client still thinks only the first half of the features were
	// sampled this tree, so its shards are strictly smaller.
	stale := fx.clients[1]
	cands, err := fx.clients[0].PullCandidates(10)
	if err != nil {
		t.Fatal(err)
	}
	oldLayout, err := histogram.NewLayout(histogram.AllFeatures(m/2), cands, m)
	if err != nil {
		t.Fatal(err)
	}
	local := histogram.New(oldLayout)
	for _, bits := range []uint{0, 8} {
		stale.Bits = bits
		err = stale.PushHistogram(0, local)
		var shape *ShapeError
		if !errors.As(err, &shape) {
			t.Fatalf("bits=%d: stale push got %v, want ShapeError", bits, err)
		}
		if shape.Got == shape.Want {
			t.Fatalf("bits=%d: ShapeError with equal geometry: %+v", bits, shape)
		}
	}

	// The buffered state must still be intact: the valid pushes from before
	// still merge and split.
	if _, err := fx.clients[0].PullSplit(0, 1.0, 0.0, 1e-4); err != nil {
		t.Fatalf("pull after rejected stale push: %v", err)
	}
}

// sparseData generates a high-dimensional, mostly-empty workload.
func sparseData(m int) *dataset.Dataset {
	return dataset.Generate(dataset.SyntheticConfig{NumRows: 300, NumFeatures: m, AvgNNZ: 6, Seed: 31, Zipf: 1.4})
}

// TestExactMergeBitIdentical: on the exact wire push and server merge must
// reproduce the worker-side union to the bit, because deferred pushes carry
// float64 verbatim and untouched buckets are exact zeros plus the exact mass
// on both sides (invariant 18).
func TestExactMergeBitIdentical(t *testing.T) {
	const m, p, w = 200, 3, 2
	fx := newFixture(t, m, p, w)
	for _, c := range fx.clients {
		c.Exact = true
	}
	union, layout := buildDistributedHistograms(t, fx, sparseData(m), 0)
	got := mergedHistogram(t, fx.servers, layout, 0)
	for i := range union.G {
		if math.Float64bits(got.G[i]) != math.Float64bits(union.G[i]) ||
			math.Float64bits(got.H[i]) != math.Float64bits(union.H[i]) {
			t.Fatalf("bucket %d: (%v,%v) != (%v,%v)", i, got.G[i], got.H[i], union.G[i], union.H[i])
		}
	}
}

// TestCompressedMergeApproximates: fixed-point pushes merge within the
// quantization error bound of the union, and buckets no row touched stay
// exactly zero.
func TestCompressedMergeApproximates(t *testing.T) {
	const m, p, w = 200, 3, 2
	fx := newFixture(t, m, p, w)
	union, layout := buildDistributedHistograms(t, fx, sparseData(m), 8)
	got := mergedHistogram(t, fx.servers, layout, 0)
	maxAbs := 0.0
	for i := range union.G {
		maxAbs = math.Max(maxAbs, math.Max(math.Abs(union.G[i]), math.Abs(union.H[i])))
	}
	// One 8-bit quantization per worker push, each off by at most
	// maxAbs/127; doubled for per-shard scale slack.
	tol := 2 * float64(w) * maxAbs / 127
	for i := range union.G {
		if math.Abs(got.G[i]-union.G[i]) > tol || math.Abs(got.H[i]-union.H[i]) > tol {
			t.Fatalf("bucket %d: (%v,%v) vs (%v,%v), tol %v", i, got.G[i], got.H[i], union.G[i], union.H[i], tol)
		}
		// Hessians are positive, so a zero H bucket means no row landed
		// there on any worker; quantization must keep it exactly zero.
		if union.H[i] == 0 && (got.G[i] != 0 || got.H[i] != 0) {
			t.Fatalf("untouched bucket %d became (%v,%v)", i, got.G[i], got.H[i])
		}
	}
}

// TestCompactSplitRecords: a nonzero pull width narrows split statistics to
// float32 but must keep Found/Feature/Value exact — bin recovery inside
// SplitPredicate depends on the cut value surviving the wire bit-for-bit.
func TestCompactSplitRecords(t *testing.T) {
	const m, p, w = 50, 3, 2
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 400, NumFeatures: m, AvgNNZ: 10, Seed: 37, Zipf: 1.2})
	full := newFixture(t, m, p, w)
	buildDistributedHistograms(t, full, d, 0)
	want, err := full.clients[0].PullSplit(0, 1.0, 0.0, 1e-4)
	if err != nil {
		t.Fatal(err)
	}

	fx := newFixture(t, m, p, w)
	for _, c := range fx.clients {
		c.PullBits = 8
	}
	buildDistributedHistograms(t, fx, d, 0)
	got, err := fx.clients[0].PullSplit(0, 1.0, 0.0, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Split.Found || !want.Split.Found {
		t.Fatal("no split found")
	}
	if got.Split.Feature != want.Split.Feature ||
		math.Float64bits(got.Split.Value) != math.Float64bits(want.Split.Value) {
		t.Fatalf("split moved under compact records: (%d,%v) vs (%d,%v)",
			got.Split.Feature, got.Split.Value, want.Split.Feature, want.Split.Value)
	}
	relErr := math.Abs(got.Split.Gain-want.Split.Gain) / (1 + math.Abs(want.Split.Gain))
	if relErr > 1e-6 {
		t.Fatalf("gain %v vs %v (rel %v)", got.Split.Gain, want.Split.Gain, relErr)
	}

	// Stored split results travel at full precision on push; a compact pull
	// may narrow the gain but must preserve the exact cut value.
	if err := fx.clients[0].PushSplitResult(1, want); err != nil {
		t.Fatal(err)
	}
	back, err := fx.clients[1].PullSplitResults([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := back[1]
	if !ok {
		t.Fatal("stored split missing")
	}
	if math.Float64bits(rec.Split.Value) != math.Float64bits(want.Split.Value) {
		t.Fatal("compact stored split lost the exact cut value")
	}
}

// TestBadPullEncodingRejected: a malformed negotiation pair (unsupported
// width, or exact+compressed) is rejected before any histogram work.
func TestBadPullEncodingRejected(t *testing.T) {
	const m = 20
	fx := newFixture(t, m, 1, 1)
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 100, NumFeatures: m, AvgNNZ: 6, Seed: 41, Zipf: 1.2})
	buildDistributedHistograms(t, fx, d, 0)
	c := fx.clients[0]

	pull := func(bits uint8, exact bool) error {
		w := c.newRequest(40)
		w.Int32(0)
		w.Float64(1.0)
		w.Float64(0.0)
		w.Float64(1e-4)
		w.Uint8(bits)
		w.Bool(exact)
		w.Bool(false)
		_, err := c.send(0, OpPullSplit, w)
		return err
	}
	if err := pull(3, false); !errors.Is(err, compress.ErrBadWidth) { // unsupported fixed-point width
		t.Fatalf("width 3: %v", err)
	}
	if err := pull(8, true); err == nil { // exact + 8-bit: contradictory
		t.Fatal("exact+compressed encoding accepted")
	}
}

// TestVectorByteAccounting: the byte counters grow by exactly the size of a
// shard that crosses the codec, on encode and on decode.
func TestVectorByteAccounting(t *testing.T) {
	fz := newDeferredFuzz(t)
	h := histogram.New(fz.plan.layout)
	fillDeferred(h, 3, 0.3)
	for _, width := range fuzzWidths {
		_, before := WireBytes()
		body := fz.body(t, 0, h, width)
		d, err := parseShard(body, fz.servers[0])
		if err != nil {
			t.Fatal(err)
		}
		d.fill(histogram.New(fz.servers[0]))
		_, after := WireBytes()
		for _, dir := range []string{"deferred/encode", "deferred/decode"} {
			if got := after[dir] - before[dir]; got != int64(len(body)) {
				t.Fatalf("width %d: %s grew %d, want %d", width, dir, got, len(body))
			}
		}
	}
}
