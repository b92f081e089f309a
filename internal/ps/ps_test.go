package ps

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"dimboost/internal/compress"
	"dimboost/internal/core"
	"dimboost/internal/dataset"
	"dimboost/internal/histogram"
	"dimboost/internal/sketch"
	"dimboost/internal/transport"
	"dimboost/internal/wire"
)

func TestPartitionCoversAllFeatures(t *testing.T) {
	for _, tc := range []struct{ m, p, r int }{
		{100, 1, 0}, {100, 4, 0}, {330, 7, 0}, {10, 3, 5}, {5, 8, 0}, {1000, 50, 0},
	} {
		part, err := NewPartition(tc.m, tc.p, tc.r)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, tc.p)
		for f := 0; f < tc.m; f++ {
			sv := part.ServerOf(int32(f))
			if sv < 0 || sv >= tc.p {
				t.Fatalf("m=%d p=%d: feature %d on server %d", tc.m, tc.p, f, sv)
			}
			counts[sv]++
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		if total != tc.m {
			t.Fatalf("m=%d p=%d: covered %d", tc.m, tc.p, total)
		}
	}
}

func TestPartitionRangesContiguous(t *testing.T) {
	part, _ := NewPartition(101, 4, 7)
	covered := 0
	for r := 0; r < part.NumRanges; r++ {
		lo, hi := part.RangeBounds(r)
		if int(lo) != covered {
			t.Fatalf("range %d starts at %d, want %d", r, lo, covered)
		}
		covered = int(hi)
		// every feature in the range maps back to this range's server
		sv := part.serverOfRange(r)
		for f := lo; f < hi; f++ {
			if part.ServerOf(f) != sv {
				t.Fatalf("feature %d: server %d, range server %d", f, part.ServerOf(f), sv)
			}
		}
	}
	if covered != 101 {
		t.Fatalf("ranges cover %d", covered)
	}
}

func TestPartitionBalance(t *testing.T) {
	// with the default 8 ranges/server, no server should be starved
	part, _ := NewPartition(100_000, 10, 0)
	counts := make([]int, 10)
	for f := 0; f < 100_000; f++ {
		counts[part.ServerOf(int32(f))]++
	}
	for sv, c := range counts {
		if c == 0 {
			t.Fatalf("server %d owns no features", sv)
		}
		if c > 40_000 {
			t.Fatalf("server %d owns %d features — hash badly skewed", sv, c)
		}
	}
}

func TestPartitionErrorsAndPanics(t *testing.T) {
	if _, err := NewPartition(0, 1, 0); err == nil {
		t.Fatal("0 features should fail")
	}
	if _, err := NewPartition(10, 0, 0); err == nil {
		t.Fatal("0 servers should fail")
	}
	part, _ := NewPartition(10, 2, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range feature should panic")
		}
	}()
	part.ServerOf(10)
}

func TestFeaturesOfPreservesOrder(t *testing.T) {
	part, _ := NewPartition(50, 3, 0)
	all := make([]int32, 50)
	for i := range all {
		all[i] = int32(i)
	}
	seen := 0
	for sv := 0; sv < 3; sv++ {
		fs := part.FeaturesOf(sv, all)
		for i := 1; i < len(fs); i++ {
			if fs[i] <= fs[i-1] {
				t.Fatal("FeaturesOf not sorted")
			}
		}
		seen += len(fs)
	}
	if seen != 50 {
		t.Fatalf("FeaturesOf covered %d", seen)
	}
}

// cluster is a test fixture: p servers and w clients over a MemNetwork.
type psFixture struct {
	net     *transport.MemNetwork
	part    *Partition
	servers []*Server
	clients []*Client
}

func newFixture(t testing.TB, numFeatures, p, w int) *psFixture {
	t.Helper()
	net := transport.NewMemNetwork()
	part, err := NewPartition(numFeatures, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	fx := &psFixture{net: net, part: part}
	names := make([]string, p)
	for i := 0; i < p; i++ {
		names[i] = serverName(i)
		ep, err := net.Endpoint(names[i])
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(i, part, 0.02)
		ep.Handle(srv.Handler())
		fx.servers = append(fx.servers, srv)
	}
	for i := 0; i < w; i++ {
		ep, err := net.Endpoint(workerName(i))
		if err != nil {
			t.Fatal(err)
		}
		fx.clients = append(fx.clients, NewClient(ep, part, names, i))
	}
	return fx
}

func serverName(i int) string { return "server-" + string(rune('0'+i)) }
func workerName(i int) string { return "worker-" + string(rune('0'+i)) }

func TestSketchPushPullEndToEnd(t *testing.T) {
	const m, p, w = 60, 3, 4
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 400, NumFeatures: m, AvgNNZ: 10, Seed: 3, Zipf: 1.2})
	shards := dataset.PartitionRows(d, w)
	fx := newFixture(t, m, p, w)

	for i, c := range fx.clients {
		set := sketch.NewSet(m, 0.02)
		set.AddDataset(shards[i])
		if err := c.PushSketches(set); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for _, srv := range fx.servers {
		total += srv.NumSketches()
	}
	// every feature with at least one nonzero has a sketch on exactly one server
	whole := sketch.NewSet(m, 0.02)
	whole.AddDataset(d)
	want := 0
	for f := 0; f < m; f++ {
		if whole.Feature(f) != nil {
			want++
		}
	}
	if total != want {
		t.Fatalf("servers hold %d sketches, want %d", total, want)
	}

	cands, err := fx.clients[0].PullCandidates(12)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != m {
		t.Fatalf("candidates for %d features", len(cands))
	}
	ref := whole.Candidates(12)
	for f := 0; f < m; f++ {
		if whole.Feature(f) == nil {
			if cands[f].NumBuckets() != 1 {
				t.Fatalf("feature %d should be trivial", f)
			}
			continue
		}
		if cands[f].NumBuckets() < 1 || cands[f].NumBuckets() > ref[f].NumBuckets()+12 {
			t.Fatalf("feature %d has implausible bucket count %d", f, cands[f].NumBuckets())
		}
		if cands[f].Cuts[cands[f].ZeroBucket] != 0 {
			t.Fatalf("feature %d lost its zero bucket", f)
		}
	}
	// Proposal dropped the sketches: a later push is refused whole on every
	// server (it was merged and then ignored for every proposed feature),
	// and a later pull, at another k too, answers the first pull's
	// candidates.
	if err := fx.clients[1].PushSketches(whole); !errors.Is(err, ErrSketchAfterProposal) {
		t.Fatalf("sketch push after proposal: %v, want ErrSketchAfterProposal", err)
	}
	for _, srv := range fx.servers {
		if n := srv.NumSketches(); n != 0 {
			t.Fatalf("server %d holds %d sketches after proposing candidates", srv.id, n)
		}
	}
	again, err := fx.clients[2].PullCandidates(3)
	if err != nil {
		t.Fatal(err)
	}
	for f := range cands {
		if !slices.Equal(cands[f].Cuts, again[f].Cuts) || cands[f].ZeroBucket != again[f].ZeroBucket {
			t.Fatalf("feature %d: candidates %v at the first pull, %v after a late push", f, cands[f], again[f])
		}
	}
}

func TestSampledFeaturesRoundTrip(t *testing.T) {
	fx := newFixture(t, 30, 2, 2)
	feats := []int32{1, 5, 9, 22}
	if err := fx.clients[0].PushSampled(feats); err != nil {
		t.Fatal(err)
	}
	got, err := fx.clients[1].PullSampled()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(feats) {
		t.Fatalf("got %v", got)
	}
	for i := range feats {
		if got[i] != feats[i] {
			t.Fatalf("got %v", got)
		}
	}
}

// TestSampledFeaturesRejectedWhenMalformed: PUSH_SAMPLED reads its list as
// NEW_TREE does — strictly ascending ids inside the partition — and a
// refused list leaves the stored one as it was.
func TestSampledFeaturesRejectedWhenMalformed(t *testing.T) {
	fx := newFixture(t, 30, 2, 2)
	feats := []int32{1, 5, 9, 22}
	if err := fx.clients[0].PushSampled(feats); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]int32{{5, 1}, {3, 3}, {1, 30}, {-1, 2}} {
		if err := fx.clients[0].PushSampled(bad); err == nil {
			t.Errorf("sampled list %v was accepted", bad)
		}
	}
	got, err := fx.clients[1].PullSampled()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(feats) {
		t.Fatalf("after the refused lists the servers hold %v, want %v", got, feats)
	}
}

// buildDistributedHistograms pushes per-worker histograms for node 0 and
// returns the worker-side union histogram and layout for comparison.
func buildDistributedHistograms(t *testing.T, fx *psFixture, d *dataset.Dataset, bits uint) (*histogram.Histogram, *histogram.Layout) {
	t.Helper()
	m := d.NumFeatures
	w := len(fx.clients)
	shards := dataset.PartitionRows(d, w)
	for i, c := range fx.clients {
		set := sketch.NewSet(m, 0.02)
		set.AddDataset(shards[i])
		if err := c.PushSketches(set); err != nil {
			t.Fatal(err)
		}
	}
	cands, err := fx.clients[0].PullCandidates(10)
	if err != nil {
		t.Fatal(err)
	}
	sampled := histogram.AllFeatures(m)
	if err := fx.clients[0].NewTree(sampled); err != nil {
		t.Fatal(err)
	}
	layout, err := histogram.NewLayout(sampled, cands, m)
	if err != nil {
		t.Fatal(err)
	}
	union := histogram.New(layout)
	for i, c := range fx.clients {
		c.Bits = bits
		sh := shards[i]
		grad := make([]float64, sh.NumRows())
		hess := make([]float64, sh.NumRows())
		rows := make([]int32, sh.NumRows())
		for r := range rows {
			rows[r] = int32(r)
			grad[r] = math.Sin(float64(i*1000 + r))
			hess[r] = 0.3 + 0.05*float64(r%4)
		}
		local := histogram.New(layout)
		histogram.BuildSparse(local, sh, rows, grad, hess)
		union.Add(local)
		if err := c.PushHistogram(0, local); err != nil {
			t.Fatal(err)
		}
	}
	return union, layout
}

func TestTwoPhaseSplitMatchesLocal(t *testing.T) {
	const m, p, w = 50, 3, 4
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 500, NumFeatures: m, AvgNNZ: 10, Seed: 7, Zipf: 1.2})
	fx := newFixture(t, m, p, w)
	union, _ := buildDistributedHistograms(t, fx, d, 0)

	totalG, totalH := union.FeatureTotals(0)
	want := core.FindSplit(union, totalG, totalH, 1.0, 0.0, 1e-4)

	res, err := fx.clients[1].PullSplit(0, 1.0, 0.0, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasTotals {
		t.Fatal("no totals returned")
	}
	// float32 wire narrowing costs ~1e-7 relative precision
	if math.Abs(res.G-totalG) > 1e-3 || math.Abs(res.H-totalH) > 1e-3 {
		t.Fatalf("totals (%v,%v), want (%v,%v)", res.G, res.H, totalG, totalH)
	}
	if !want.Found || !res.Split.Found {
		t.Fatalf("splits not found: local %v remote %v", want.Found, res.Split.Found)
	}
	if res.Split.Feature != want.Feature || math.Abs(res.Split.Value-want.Value) > 1e-6 {
		t.Fatalf("split (%d,%v), want (%d,%v)", res.Split.Feature, res.Split.Value, want.Feature, want.Value)
	}
	if math.Abs(res.Split.Gain-want.Gain) > 1e-3*(1+math.Abs(want.Gain)) {
		t.Fatalf("gain %v, want %v", res.Split.Gain, want.Gain)
	}
}

func TestCompressedPushStillFindsGoodSplit(t *testing.T) {
	const m, p, w = 50, 3, 4
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 500, NumFeatures: m, AvgNNZ: 10, Seed: 13, Zipf: 1.2})

	fxFull := newFixture(t, m, p, w)
	unionFull, _ := buildDistributedHistograms(t, fxFull, d, 0)
	totalG, totalH := unionFull.FeatureTotals(0)
	exact := core.FindSplit(unionFull, totalG, totalH, 1.0, 0.0, 1e-4)

	fx := newFixture(t, m, p, w)
	buildDistributedHistograms(t, fx, d, 8)
	res, err := fx.clients[0].PullSplit(0, 1.0, 0.0, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Split.Found {
		t.Fatal("compressed path found no split")
	}
	// the 8-bit split's gain must be close to the exact best gain
	if res.Split.Gain < exact.Gain*0.8 {
		t.Fatalf("compressed gain %v far below exact %v", res.Split.Gain, exact.Gain)
	}
}

func TestSplitResultStoreFetch(t *testing.T) {
	fx := newFixture(t, 20, 3, 2)
	if err := fx.clients[0].NewTree(histogram.AllFeatures(20)); err != nil {
		t.Fatal(err)
	}
	s1 := core.Decision{Split: core.Split{Found: true, Feature: 3, Value: 1.5, Gain: 2.0, LeftG: 1, LeftH: 2, RightG: 3, RightH: 4}, HasTotals: true, G: 4, H: 6}
	s2 := core.Decision{Split: core.Split{Found: true, Feature: 7, Value: -0.5, Gain: 1.0}}
	if err := fx.clients[0].PushSplitResult(1, s1); err != nil {
		t.Fatal(err)
	}
	if err := fx.clients[1].PushSplitResult(2, s2); err != nil {
		t.Fatal(err)
	}
	got, err := fx.clients[0].PullSplitResults([]int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d results", len(got))
	}
	if got[1] != s1 || got[2] != s2 {
		t.Fatalf("round trip mangled splits: %+v", got)
	}
	if _, ok := got[3]; ok {
		t.Fatal("node 3 should be absent")
	}
}

func TestServerRejectsBadTraffic(t *testing.T) {
	fx := newFixture(t, 20, 2, 1)
	ep, _ := fx.net.Endpoint("rogue")
	// Unknown ops, the retired one-phase shard pull (8) among them, with a
	// well-formed envelope and pull body.
	for _, op := range []uint8{200, 8} {
		w := fx.clients[0].newRequest(7)
		w.Int32(0)
		writeEncoding(w, vecEncoding{})
		w.Bool(false)
		if _, err := ep.Call(serverName(0), transport.Message{Op: op, Body: w.Bytes()}); err == nil || !strings.Contains(err.Error(), "unknown op") {
			t.Fatalf("op %d: got %v, want the unknown-op error", op, err)
		}
	}
	// push histogram before NEW_TREE
	c := fx.clients[0]
	cands := make([]sketch.Candidates, 20)
	for i := range cands {
		cands[i] = sketch.FromCuts([]float64{0})
	}
	layout, _ := histogram.NewLayout(histogram.AllFeatures(20), cands, 20)
	if err := c.PushHistogram(0, histogram.New(layout)); err == nil {
		t.Fatal("push before NEW_TREE should fail")
	}
	// pull split with nothing pushed
	if err := c.NewTree(histogram.AllFeatures(20)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PullSplit(0, 1, 0, 0); err == nil {
		t.Fatal("pull split with no pushes should fail")
	}
	// truncated body
	if _, err := ep.Call(serverName(0), transport.Message{Op: OpPushHist, Body: []byte{1, 2}}); err == nil {
		t.Fatal("truncated body should fail")
	}
	// a second, non-duplicate push for a (node, worker) whose first one is
	// already merged and read: the node used to restart from this one shard
	hist := histogram.New(layout)
	if err := c.PushHistogram(0, hist); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PullSplit(0, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	var repush *RepushError
	if err := c.PushHistogram(0, hist); !errors.As(err, &repush) {
		t.Fatalf("re-push after the merge got %v, want RepushError", err)
	}

	// Deferred shard pushes no client writes — bits past the shard, another
	// shard size, count mismatches, presence bits past the touched buckets,
	// present counts that disagree, non-finite masses and scales, bad widths,
	// mixed tags, every truncation — are refused, typed, before anything is
	// merged or parked.
	checkHostileDeferredPushes(t, fx, 0)

	// Split results every worker's SPLIT_TREE would panic or split on NaN
	// with — a feature outside the partition, a negative one, one this tree
	// did not sample, non-finite statistics — are refused before they are
	// stored; the same node's valid split is then stored as sent.
	if err := c.NewTree([]int32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	good := core.Decision{Split: core.Split{Found: true, Feature: 2, Value: 0.5, Gain: 1, LeftG: -1, LeftH: 2, RightG: 1, RightH: 3}, HasTotals: true, G: 0, H: 5}
	for _, bad := range []struct {
		name string
		edit func(d *core.Decision)
		want error
	}{
		{"feature 1<<20", func(d *core.Decision) { d.Split.Feature = 1 << 20 }, ErrBadFeatureID},
		{"feature -5", func(d *core.Decision) { d.Split.Feature = -5 }, ErrBadFeatureID},
		{"unsampled feature 7", func(d *core.Decision) { d.Split.Feature = 7 }, ErrBadFeatureID},
		{"NaN value", func(d *core.Decision) { d.Split.Value = math.NaN() }, compress.ErrNonFinite},
		{"infinite gain", func(d *core.Decision) { d.Split.Gain = math.Inf(1) }, compress.ErrNonFinite},
		{"NaN left gradient", func(d *core.Decision) { d.Split.LeftG = math.NaN() }, compress.ErrNonFinite},
		{"infinite node hessian", func(d *core.Decision) { d.H = math.Inf(-1) }, compress.ErrNonFinite},
	} {
		d := good
		bad.edit(&d)
		if err := c.PushSplitResult(0, d); !errors.Is(err, bad.want) {
			t.Errorf("split result with %s: got %v, want %v", bad.name, err, bad.want)
		}
	}
	if got, err := c.PullSplitResults([]int{0}); err != nil || len(got) != 0 {
		t.Fatalf("refused split results left %v stored (%v)", got, err)
	}
	if err := c.PushSplitResult(0, good); err != nil {
		t.Fatal(err)
	}
	if got, err := c.PullSplitResults([]int{0}); err != nil || got[0] != good {
		t.Fatalf("the valid split result came back as %+v (%v)", got[0], err)
	}

	// Sketch summaries no GK produces, for features the server does not own,
	// or repeating a feature fail the whole batch — a valid summary ahead of
	// the bad one included — before anything reaches candidate proposal.
	type summary struct {
		f      int64 // sent as its distance from the previous id
		values []float64
		gs     []uint64
	}
	var owned []int64
	for f := int32(0); f < 20; f++ {
		if fx.part.ServerOf(f) == 0 {
			owned = append(owned, int64(f))
		}
	}
	pushSketches := func(batch ...summary) error {
		w := c.newRequest(64)
		w.Uvarint(uint64(len(batch)))
		prev := int64(-1)
		for _, s := range batch {
			w.Uvarint(uint64(s.f - prev))
			prev = s.f
			// The float64 form with (g, Δ) pairs: head n<<2 | 2.
			w.Uvarint(uint64(len(s.values))<<2 | 2)
			for _, v := range s.values {
				w.Float64(v)
			}
			for _, g := range s.gs {
				w.Uvarint(g)
				w.Uvarint(0)
			}
		}
		_, err := c.send(0, OpPushSketch, w)
		return err
	}
	valid := summary{owned[0], []float64{-1, 0, 2}, []uint64{1, 2, 1}}
	nan := math.NaN()
	for _, bad := range []summary{
		{owned[1], []float64{nan, 1}, []uint64{1, 1}},
		{owned[1], []float64{1, nan, 0}, []uint64{1, 1, 1}},
		{owned[1], []float64{0, math.Inf(1)}, []uint64{1, 1}},
		{owned[1], []float64{math.Inf(-1), 0}, []uint64{1, 1}},
		{owned[1], []float64{0, 1}, []uint64{1, 0}},
	} {
		if err := pushSketches(valid, bad); !errors.Is(err, sketch.ErrInvalidSummary) {
			t.Errorf("sketch push %v/%v got %v, want sketch.ErrInvalidSummary", bad.values, bad.gs, err)
		}
	}
	// Ids cannot go below 0 any more; the id a delta would wrap to −1 as an
	// int32 is past the partition like 20 is.
	for _, f := range []int64{1<<32 - 1, 20} {
		if err := pushSketches(summary{f, []float64{1}, []uint64{1}}); !errors.Is(err, ErrBadFeatureID) {
			t.Errorf("sketch push for feature %d outside the partition got %v, want ErrBadFeatureID", f, err)
		}
	}
	if err := pushSketches(summary{owned[1], []float64{1}, []uint64{1}}, summary{owned[0], []float64{2}, []uint64{1}}); !errors.Is(err, ErrBadFeatureID) {
		t.Errorf("sketch push of %d, then %d got %v, want ErrBadFeatureID", owned[1], owned[0], err)
	}
	for _, f := range []int64{owned[0], owned[1]} {
		if err := pushSketches(summary{f, []float64{1}, []uint64{1}}, summary{f, []float64{2}, []uint64{1}}); !errors.Is(err, ErrBadFeatureID) {
			t.Errorf("sketch push repeating feature %d got %v, want ErrBadFeatureID", f, err)
		}
	}
	var notOwned int64
	for fx.part.ServerOf(int32(notOwned)) == 0 {
		notOwned++
	}
	if err := pushSketches(summary{notOwned, []float64{1}, []uint64{1}}); !errors.Is(err, ErrBadFeatureID) {
		t.Errorf("sketch push for server 1's feature %d got %v, want ErrBadFeatureID", notOwned, err)
	}
	if n := len(fx.servers[0].pendingSketches); n != 0 {
		t.Fatalf("rejected sketch pushes left %d features buffered", n)
	}
	if err := pushSketches(valid); err != nil {
		t.Fatalf("valid sketch push: %v", err)
	}
}

// recordingEndpoint captures the last request per op so tests can replay
// byte-identical duplicates — what a transport retry produces when the
// original attempt landed but its response was lost.
type recordingEndpoint struct {
	transport.Endpoint
	lastTo  map[uint8]string
	lastReq map[uint8]transport.Message
}

func newRecordingEndpoint(ep transport.Endpoint) *recordingEndpoint {
	return &recordingEndpoint{
		Endpoint: ep,
		lastTo:   make(map[uint8]string),
		lastReq:  make(map[uint8]transport.Message),
	}
}

func (e *recordingEndpoint) Call(to string, req transport.Message) (transport.Message, error) {
	e.lastTo[req.Op] = to
	// Clients reuse request buffers once Call returns; keep a copy.
	req.Body = append([]byte(nil), req.Body...)
	e.lastReq[req.Op] = req
	return e.Endpoint.Call(to, req)
}

func (e *recordingEndpoint) replay(op uint8) (transport.Message, error) {
	return e.Endpoint.Call(e.lastTo[op], e.lastReq[op])
}

// TestDuplicatePushDoesNotDoubleCount: a replayed PUSH_HIST must not corrupt
// the merged histogram. Without seq-based dedupe the duplicate re-creates
// the node's pending set with only one worker's shard and invalidates the
// merge, so a later pull would see a histogram missing every other worker.
func TestDuplicatePushDoesNotDoubleCount(t *testing.T) {
	const m, p, w = 40, 1, 2
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 300, NumFeatures: m, AvgNNZ: 8, Seed: 17, Zipf: 1.2})
	fx := newFixture(t, m, p, w)
	// route worker 0 through a recording endpoint
	rec := newRecordingEndpoint(fx.clients[0].ep)
	fx.clients[0].ep = rec

	buildDistributedHistograms(t, fx, d, 0)
	res1, err := fx.clients[0].PullSplit(0, 1.0, 0.0, 1e-4)
	if err != nil {
		t.Fatal(err)
	}

	// replay worker 0's histogram push: must be acknowledged, not re-applied
	if _, err := rec.replay(OpPushHist); err != nil {
		t.Fatalf("duplicate push rejected: %v", err)
	}
	res2, err := fx.clients[0].PullSplit(0, 1.0, 0.0, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if res2.G != res1.G || res2.H != res1.H {
		t.Fatalf("duplicate push changed totals: (%v,%v) vs (%v,%v)",
			res2.G, res2.H, res1.G, res1.H)
	}
	if res2.Split != res1.Split {
		t.Fatalf("duplicate push changed the split: %+v vs %+v", res2.Split, res1.Split)
	}
}

// TestDuplicateNewTreeDoesNotResetState: a replayed NEW_TREE must not wipe
// histograms pushed after the original.
func TestDuplicateNewTreeDoesNotResetState(t *testing.T) {
	const m, p, w = 40, 1, 2
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 300, NumFeatures: m, AvgNNZ: 8, Seed: 19, Zipf: 1.2})
	fx := newFixture(t, m, p, w)
	rec := newRecordingEndpoint(fx.clients[0].ep)
	fx.clients[0].ep = rec

	buildDistributedHistograms(t, fx, d, 0) // client 0 issues NEW_TREE inside
	if _, err := rec.replay(OpNewTree); err != nil {
		t.Fatalf("duplicate NEW_TREE rejected: %v", err)
	}
	if _, err := fx.clients[0].PullSplit(0, 1.0, 0.0, 1e-4); err != nil {
		t.Fatalf("pushed histograms were lost to a duplicate NEW_TREE: %v", err)
	}
}

func TestNodeOwnerSpread(t *testing.T) {
	part, _ := NewPartition(10, 4, 0)
	owners := map[int]bool{}
	for n := 0; n < 8; n++ {
		owners[part.NodeOwner(n)] = true
	}
	if len(owners) != 4 {
		t.Fatalf("node ownership uses %d servers, want 4", len(owners))
	}
}

// sketchRecorder keeps each server's PUSH_SKETCH request body and the
// capacity it arrived with.
type sketchRecorder struct {
	transport.Endpoint
	mu     sync.Mutex
	bodies map[string][]byte
	caps   map[string]int
}

func (e *sketchRecorder) Call(to string, req transport.Message) (transport.Message, error) {
	if req.Op == OpPushSketch {
		e.mu.Lock()
		e.bodies[to], e.caps[to] = append([]byte(nil), req.Body...), cap(req.Body)
		e.mu.Unlock()
	}
	return e.Endpoint.Call(to, req)
}

// TestPushSketchesRequestIsSizedOnce: every server's CREATE_SKETCH request
// carries the bytes a reference writer puts together from each summary's
// arrays — the count, then per owned feature in order its id delta and its
// summary: the head, the values as float32 when every one of them is a
// float32, and the (g, Δ) pairs unless every tuple is (1, 0) — and is
// allocated at exactly that size. Both summary forms and both value widths
// occur.
func TestPushSketchesRequestIsSizedOnce(t *testing.T) {
	const m, p = 400, 3
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 500, NumFeatures: m, AvgNNZ: 20, Seed: 9, Zipf: 1.2})
	set := sketch.NewSet(m, 0.02)
	set.AddDataset(d)
	for f := 0; f < m; f += 7 {
		set.Add(f, 0.1) // no float32 equals 0.1
	}
	fx := newFixture(t, m, p, 1)
	rec := &sketchRecorder{Endpoint: fx.clients[0].ep, bodies: map[string][]byte{}, caps: map[string]int{}}
	fx.clients[0].ep = rec
	if err := fx.clients[0].PushSketches(set); err != nil {
		t.Fatal(err)
	}
	forms := map[string]int{}
	for sv := 0; sv < p; sv++ {
		var feats []int
		for f := 0; f < m; f++ {
			if set.Feature(f) != nil && fx.part.ServerOf(int32(f)) == sv {
				feats = append(feats, f)
			}
		}
		want := wire.NewWriter(1024)
		want.Uvarint(uint64(len(feats)))
		prev := -1
		for _, f := range feats {
			want.Uvarint(uint64(f - prev))
			prev = f
			values, gs, deltas := set.Feature(f).Summary()
			f32, counts := true, false
			for i, v := range values {
				f32 = f32 && float64(float32(v)) == v
				counts = counts || gs[i] != 1 || deltas[i] != 0
			}
			head := uint64(len(values)) << 2
			if f32 {
				head |= 1
			}
			if counts {
				head |= 2
			}
			forms[fmt.Sprintf("float32=%v counts=%v", f32, counts)]++
			want.Uvarint(head)
			for _, v := range values {
				if f32 {
					want.Float32(float32(v))
				} else {
					want.Float64(v)
				}
			}
			for i := range values {
				if counts {
					want.Uvarint(gs[i])
					want.Uvarint(deltas[i])
				}
			}
		}
		got := rec.bodies[serverName(sv)]
		if len(got) < envelopeSize || !bytes.Equal(got[envelopeSize:], want.Bytes()) {
			t.Fatalf("server %d: %d request bytes, want the envelope and %d bytes", sv, len(got), want.Len())
		}
		if c := rec.caps[serverName(sv)]; c != len(got) {
			t.Fatalf("server %d: request buffer of capacity %d for %d bytes", sv, c, len(got))
		}
	}
	if len(forms) != 4 {
		t.Fatalf("summary forms %v: want every value width with and without counts", forms)
	}
}

// TestFeatureListForms: a sampled-feature list round-trips through whichever
// form is smaller — every feature of 100 000 in 13 bytes — and run lists no
// client writes are refused without expanding them.
func TestFeatureListForms(t *testing.T) {
	for _, feats := range [][]int32{nil, {1, 5, 9, 22}, {0, 1, 2, 10, 11, 12, 13, 40}, everyKth(3)(&Partition{NumFeatures: 500}), histogram.AllFeatures(100_000)} {
		w := wire.NewWriter(0)
		writeFeatures(w, feats)
		got, err := readFeatures(wire.NewReader(w.Bytes()), 100_000)
		if err != nil || len(got) != len(feats) {
			t.Fatalf("%d features: read back %d (%v)", len(feats), len(got), err)
		}
		for i := range feats {
			if got[i] != feats[i] {
				t.Fatalf("%d features: position %d is %d, want %d", len(feats), i, got[i], feats[i])
			}
		}
		if plain := 1 + 4 + 4*len(feats); w.Len() > plain {
			t.Fatalf("%d features: %d bytes, more than the %d of the plain list", len(feats), w.Len(), plain)
		}
	}
	w := wire.NewWriter(0)
	writeFeatures(w, histogram.AllFeatures(100_000))
	if w.Len() != 13 {
		t.Fatalf("every feature of 100 000 in %d bytes, want one run (13)", w.Len())
	}
	runs := func(rs ...int64) []byte {
		w := wire.NewWriter(0)
		w.Uint8(featureRuns)
		w.Uint32(uint32(len(rs) / 2))
		for i := 0; i < len(rs); i += 2 {
			w.Int32(int32(rs[i]))
			w.Uint32(uint32(rs[i+1]))
		}
		return w.Bytes()
	}
	huge := runs(0, 1)
	binary.LittleEndian.PutUint32(huge[1:], 1<<30)
	for name, b := range map[string][]byte{
		"past the limit":     runs(99_990, 20),
		"overlapping":        runs(0, 10, 5, 3),
		"descending":         runs(50, 2, 10, 2),
		"empty run":          runs(3, 0),
		"negative start":     runs(-4, 8),
		"more runs than fit": huge,
		"unknown form":       {7, 0, 0, 0, 0},
		"truncated":          runs(0, 4)[:7],
	} {
		if _, err := readFeatures(wire.NewReader(b), 100_000); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
