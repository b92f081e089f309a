package ps

import (
	"errors"
	"math"
	"testing"

	"dimboost/internal/compress"
	"dimboost/internal/dataset"
	"dimboost/internal/histogram"
	"dimboost/internal/wire"
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

// TestHostileHistHeadersRejected drives raw crafted push bodies at the
// server: undecodable widths, non-finite MaxAbs, short payloads. Every one
// must come back as a typed error; before the header
// admission check existed the bits=200 case reached the fixed-point decoder
// at merge time.
func TestHostileHistHeadersRejected(t *testing.T) {
	const m = 20
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 100, NumFeatures: m, AvgNNZ: 6, Seed: 23, Zipf: 1.2})
	fx := newFixture(t, m, 1, 1)
	_, layout := buildDistributedHistograms(t, fx, d, 0)
	buckets := 0
	for _, f := range fx.part.FeaturesOf(0, layout.Features) {
		lo, hi := layout.BucketRange(int(layout.Pos(f)))
		buckets += hi - lo
	}
	c := fx.clients[0]

	// goodF32 is a well-formed float32 h vector; the hostile g vector before
	// it must already have been rejected.
	goodF32 := func(w *wire.Writer) {
		w.Uint8(VecFloat32)
		w.Float64sAs32(make([]float64, buckets))
	}
	cases := []struct {
		name  string
		build func(w *wire.Writer)
		want  error
	}{
		{"undecodable width", func(w *wire.Writer) {
			w.Uint8(VecFixed)
			w.Uint8(200) // would shift out of range in Decode
			w.Uint32(uint32(buckets))
			w.Float64(1.0)
			w.Bytes32(make([]byte, buckets))
			goodF32(w)
		}, compress.ErrBadWidth},
		{"NaN MaxAbs", func(w *wire.Writer) {
			w.Uint8(VecFixed)
			w.Uint8(8)
			w.Uint32(uint32(buckets))
			w.Float64(math.NaN())
			w.Bytes32(make([]byte, buckets))
			goodF32(w)
		}, compress.ErrBadHeader},
		{"data shorter than N", func(w *wire.Writer) {
			w.Uint8(VecFixed)
			w.Uint8(8)
			w.Uint32(uint32(buckets))
			w.Float64(1.0)
			w.Bytes32(make([]byte, buckets/2))
			goodF32(w)
		}, compress.ErrSizeMismatch},
	}
	for _, tc := range cases {
		w := c.newRequest(64)
		w.Int32(0) // node
		tc.build(w)
		_, err := c.send(0, OpPushHist, w)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// sparseData generates a high-dimensional, mostly-empty workload.
func sparseData(m int) *dataset.Dataset {
	return dataset.Generate(dataset.SyntheticConfig{NumRows: 300, NumFeatures: m, AvgNNZ: 6, Seed: 31, Zipf: 1.4})
}

// TestExactPullBitIdentical: on the exact wire the whole loop — push, server
// merge, pull — must reproduce the worker-side union to the bit, because
// deferred pushes carry float64 verbatim and untouched buckets are exact
// zeros plus the exact mass on both sides (invariant 18).
func TestExactPullBitIdentical(t *testing.T) {
	const m, p, w = 200, 3, 2
	fx := newFixture(t, m, p, w)
	for _, c := range fx.clients {
		c.Exact = true
	}
	union, layout := buildDistributedHistograms(t, fx, sparseData(m), 0)
	perOpBefore, _ := WireBytes()
	got, err := fx.clients[0].PullHistogram(0, layout)
	if err != nil {
		t.Fatal(err)
	}
	for i := range union.G {
		if math.Float64bits(got.G[i]) != math.Float64bits(union.G[i]) ||
			math.Float64bits(got.H[i]) != math.Float64bits(union.H[i]) {
			t.Fatalf("bucket %d: (%v,%v) != (%v,%v)", i, got.G[i], got.H[i], union.G[i], union.H[i])
		}
	}
	// The per-op accounting must attribute the pull's response bytes.
	perOpAfter, _ := WireBytes()
	if perOpAfter["pull_hist_shard/out"] <= perOpBefore["pull_hist_shard/out"] {
		t.Fatal("pull_hist_shard/out bytes did not grow")
	}
}

// TestCompressedPullApproximates: fixed-point pushes and pulls stay within
// the quantization error bound of the union, and buckets no row touched stay
// exactly zero through the round trip.
func TestCompressedPullApproximates(t *testing.T) {
	const m, p, w = 200, 3, 2
	fx := newFixture(t, m, p, w)
	for _, c := range fx.clients {
		c.PullBits = 8
	}
	union, layout := buildDistributedHistograms(t, fx, sparseData(m), 8)
	got, err := fx.clients[0].PullHistogram(0, layout)
	if err != nil {
		t.Fatal(err)
	}
	maxAbs := 0.0
	for i := range union.G {
		maxAbs = math.Max(maxAbs, math.Max(math.Abs(union.G[i]), math.Abs(union.H[i])))
	}
	// One 8-bit quantization per worker push plus one on the pull, each off
	// by at most maxAbs/127; doubled for per-shard scale slack.
	tol := 2 * float64(w+1) * maxAbs / 127
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

	w := c.newRequest(16)
	w.Int32(0)
	w.Uint8(3) // unsupported fixed-point width
	w.Bool(false)
	w.Bool(false)
	if _, err := c.send(0, OpPullHistShard, w); !errors.Is(err, compress.ErrBadWidth) {
		t.Fatalf("width 3: %v", err)
	}

	w = c.newRequest(16)
	w.Int32(0)
	w.Uint8(8)
	w.Bool(true) // exact + 8-bit: contradictory
	w.Bool(false)
	if _, err := c.send(0, OpPullHistShard, w); err == nil {
		t.Fatal("exact+compressed encoding accepted")
	}
}

// TestVectorByteAccounting: the per-encoding byte counters must grow by
// exactly the payload sizes that cross the codec, attributed to the encoding
// actually chosen.
func TestVectorByteAccounting(t *testing.T) {
	for _, tc := range []struct {
		ev  vecEncoding
		tag uint8
	}{
		{vecEncoding{exact: true}, VecFloat64},
		{vecEncoding{}, VecFloat32},
		{vecEncoding{bits: 8}, VecFixed},
	} {
		vs := []float64{0, 1.5, -2.25, 3}
		_, before := WireBytes()
		w := wire.NewWriter(64)
		if err := writeHistVector(w, compress.NewEncoder(1), tc.ev, vs); err != nil {
			t.Fatal(err)
		}
		if w.Bytes()[0] != tc.tag {
			t.Fatalf("%+v: encoded as tag %d, want %d", tc.ev, w.Bytes()[0], tc.tag)
		}
		if _, err := readHistVector(wire.NewReader(w.Bytes()), "v", len(vs)); err != nil {
			t.Fatal(err)
		}
		_, after := WireBytes()
		name, n := vecName(tc.tag), int64(w.Len())
		for _, dir := range []string{"/encode", "/decode"} {
			if got := after[name+dir] - before[name+dir]; got != n {
				t.Fatalf("%s%s grew %d, want %d", name, dir, got, n)
			}
		}
		for _, other := range vecTags {
			if o := vecName(other); o != name && after[o+"/encode"] != before[o+"/encode"] {
				t.Fatalf("%s/encode grew on a %s write", o, name)
			}
		}
	}
}
