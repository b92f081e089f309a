package ps

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"testing"

	"dimboost/internal/core"
	"dimboost/internal/faultinject"
	"dimboost/internal/histogram"
	"dimboost/internal/obs"
	"dimboost/internal/transport"
)

// deriveFixture is one split of one tree as the workers drive it: every
// worker pushes the root, the root is pulled, every worker pushes the root's
// left child — the built one — and the right child is left to be derived.
// Every push body is captured on its way out.
type deriveFixture struct {
	fx       *psFixture
	layout   *histogram.Layout
	captured []*capturingEndpoint // per worker
}

const (
	deriveParent  = 0
	deriveBuilt   = 1
	deriveDerived = 2
)

func newDeriveFixture(t *testing.T, workers int, wrap func(worker int, ep transport.Endpoint) transport.Endpoint) *deriveFixture {
	t.Helper()
	const m, p = 150, 2
	fx := newFixture(t, m, p, workers)
	cands := shapedCands(m)
	for _, srv := range fx.servers {
		for f := range cands {
			srv.cands[int32(f)] = cands[f]
		}
	}
	sampled := everyKth(2)(fx.part)
	layout, err := histogram.NewLayout(sampled, cands, m)
	if err != nil {
		t.Fatal(err)
	}
	df := &deriveFixture{fx: fx, layout: layout}
	for w, c := range fx.clients {
		c.Exact = true
		if wrap != nil {
			c.ep = wrap(w, c.ep)
		}
		ce := &capturingEndpoint{Endpoint: c.ep, sent: map[string][][]byte{}}
		c.ep = ce
		df.captured = append(df.captured, ce)
	}
	if err := fx.clients[0].NewTree(sampled); err != nil {
		t.Fatal(err)
	}
	df.pushFromAll(t, deriveParent)
	if _, err := fx.clients[0].PullSplit(deriveParent, 1.0, 0.0, 1e-6); err != nil {
		t.Fatal(err)
	}
	df.pushFromAll(t, deriveBuilt)
	return df
}

// pushFromAll pushes a node from every worker, the highest id first so the
// server parks and folds as well as decoding in place.
func (df *deriveFixture) pushFromAll(t *testing.T, node int) {
	t.Helper()
	for w := len(df.fx.clients) - 1; w >= 0; w-- {
		h := histogram.New(df.layout)
		fillHist(h, int64(1000*w+node), 0.5)
		if err := df.fx.clients[w].PushHistogram(node, h); err != nil {
			t.Fatal(err)
		}
	}
}

// mergedFromPayloads decodes what the workers sent server sv for their
// push-th push and adds it up in ascending worker id: the merged shard as the
// wire defines it, computed without the server.
func (df *deriveFixture) mergedFromPayloads(t *testing.T, sv, push int) *histogram.Histogram {
	t.Helper()
	var bodies [][]byte
	for _, ce := range df.captured {
		bodies = append(bodies, ce.sent[serverName(sv)][push][envelopeSize+4:]) // envelope, node id
	}
	return mergePayloads(t, df.fx.servers[sv].tree.layout, bodies)
}

// mergePayloads folds push bodies, in order, into a fresh shard the way a
// server's node accumulator does.
func mergePayloads(t *testing.T, layout *histogram.Layout, bodies [][]byte) *histogram.Histogram {
	t.Helper()
	n := &nodeShard{tree: &treeShards{layout: layout, pool: histogram.NewPool(layout)}, hist: histogram.New(layout)}
	n.hist.Defer()
	for w, body := range bodies {
		d, err := parseShard(body, layout)
		if err != nil {
			t.Fatalf("payload %d: %v", w, err)
		}
		n.add(d)
	}
	return n.hist
}

// serverShard is a copy of a server's shard of a node, materialised. It reads
// the shard as a pull does, so parked pushes are folded in first and the node
// is sealed.
func serverShard(t *testing.T, srv *Server, node int32) *histogram.Histogram {
	t.Helper()
	_, n := srv.current(node)
	if n == nil {
		t.Fatalf("server %d holds no shard of node %d", srv.id, node)
	}
	var m *histogram.Histogram
	if err := n.read(func(h *histogram.Histogram) error {
		m = h.Clone()
		m.Materialize()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return m
}

// shardBits is a server's shard of a node, materialised, bit for bit.
func shardBits(t *testing.T, srv *Server, node int32) []uint64 {
	t.Helper()
	return histBits(serverShard(t, srv, node))
}

// mergedHistogram reassembles a node's merged histogram under the workers'
// layout from every server's shard of it.
func mergedHistogram(t *testing.T, servers []*Server, layout *histogram.Layout, node int32) *histogram.Histogram {
	t.Helper()
	h := histogram.New(layout)
	for _, srv := range servers {
		sh := serverShard(t, srv, node)
		for p, f := range sh.Layout.Features {
			lo, hi := sh.Layout.BucketRange(p)
			at, _ := layout.BucketRange(int(layout.Pos(f)))
			copy(h.G[at:], sh.G[lo:hi])
			copy(h.H[at:], sh.H[lo:hi])
		}
	}
	return h
}

// histBits is a histogram's materialised buckets, G then H, bit for bit; h
// itself is left as it was.
func histBits(h *histogram.Histogram) []uint64 {
	m := h.Clone()
	m.Materialize()
	var out []uint64
	for _, v := range append(append([]float64(nil), m.G...), m.H...) {
		out = append(out, math.Float64bits(v))
	}
	return out
}

// TestDerivedShardIsParentMinusSibling: on the exact wire, with two and with
// three workers, the shard every server derives for the node nobody pushed is
// Float64bits-equal to histogram.SetSub of the merged parent and the merged
// sibling — both recomputed here from the captured push payloads — and the
// split it answers with is Algorithm 1's on that difference.
func TestDerivedShardIsParentMinusSibling(t *testing.T) {
	for _, workers := range []int{2, 3} {
		df := newDeriveFixture(t, workers, nil)
		m, _ := psMetrics()
		derived0 := m.derived.Value()
		got, err := df.fx.clients[workers-1].PullDerivedSplit(deriveDerived, 1.0, 0.0, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		if n := m.derived.Value() - derived0; n != int64(len(df.fx.servers)) {
			t.Fatalf("w=%d: %d shards derived, want one per server", workers, n)
		}
		var want core.Split
		for sv, srv := range df.fx.servers {
			diff := histogram.New(srv.tree.layout)
			diff.SetSub(df.mergedFromPayloads(t, sv, 0), df.mergedFromPayloads(t, sv, 1))
			bits := shardBits(t, srv, deriveDerived)
			for i, v := range histBits(diff) {
				if bits[i] != v {
					t.Fatalf("w=%d server %d bucket %d: derived %x, parent − sibling %x", workers, sv, i, bits[i], v)
				}
			}
			diff.Materialize() // the full scan: the server's touched one must agree
			tg, th := diff.FeatureTotals(0)
			if s := core.FindSplit(diff, tg, th, 1.0, 0.0, 1e-6); s.Better(want) {
				want = s
			}
		}
		if got.Split != want {
			t.Fatalf("w=%d: derived node split %+v, want %+v", workers, got.Split, want)
		}
		// The derived shard is a sealed node like any other: a second pull,
		// with or without the marker, reads it, and a push is too late.
		again, err := df.fx.clients[0].PullSplit(deriveDerived, 1.0, 0.0, 1e-6)
		if err != nil || again != got {
			t.Fatalf("w=%d: second pull %+v (%v), want %+v", workers, again, err, got)
		}
		var repush *RepushError
		h := histogram.New(df.layout)
		if err := df.fx.clients[0].PushHistogram(deriveDerived, h); !errors.As(err, &repush) || !repush.Sealed {
			t.Fatalf("w=%d: push for a derived node: %v, want a sealed RepushError", workers, err)
		}
		// And it is the next layer's parent.
		df.pushFromAll(t, 5)
		if _, err := df.fx.clients[0].PullDerivedSplit(6, 1.0, 0.0, 1e-6); err != nil {
			t.Fatalf("w=%d: deriving a child of the derived node: %v", workers, err)
		}
		if n := m.derived.Value() - derived0; n != 2*int64(len(df.fx.servers)) {
			t.Fatalf("w=%d: %d shards derived after the second layer and two repeat pulls, want two per server", workers, n)
		}
	}
}

// TestDerivedHistogramReassembles: the derived node's shards, reassembled
// across the servers, are the reassembled parent − sibling, bucket for bucket.
// The operands are reassembled before the derivation, which retires the
// parent.
func TestDerivedHistogramReassembles(t *testing.T) {
	df := newDeriveFixture(t, 2, nil)
	parent := mergedHistogram(t, df.fx.servers, df.layout, deriveParent)
	sibling := mergedHistogram(t, df.fx.servers, df.layout, deriveBuilt)
	if _, err := df.fx.clients[0].PullDerivedSplit(deriveDerived, 1.0, 0.0, 1e-6); err != nil {
		t.Fatal(err)
	}
	got := mergedHistogram(t, df.fx.servers, df.layout, deriveDerived)
	want := histogram.New(df.layout)
	want.SetSub(parent, sibling)
	for i := range want.G {
		if math.Float64bits(got.G[i]) != math.Float64bits(want.G[i]) || math.Float64bits(got.H[i]) != math.Float64bits(want.H[i]) {
			t.Fatalf("bucket %d: (%v, %v), want (%v, %v)", i, got.G[i], got.H[i], want.G[i], want.H[i])
		}
	}
}

// TestLostDeriveReplyIsIdempotent: the reply to a derive pull is dropped
// after the server derived and stored the shard; the retry finds the stored
// shard instead of deriving again, and shard and answer equal the fault-free
// run's bit for bit.
func TestLostDeriveReplyIsIdempotent(t *testing.T) {
	clean := newDeriveFixture(t, 3, nil)
	want, err := clean.fx.clients[1].PullDerivedSplit(deriveDerived, 1.0, 0.0, 1e-6)
	if err != nil {
		t.Fatal(err)
	}

	var faults *faultinject.Network
	retries := 0
	faulty := newDeriveFixture(t, 3, func(w int, ep transport.Endpoint) transport.Endpoint {
		if w != 1 {
			return ep
		}
		faults = faultinject.New(singleEndpointNetwork{ep}, faultinject.Spec{Rules: []faultinject.Rule{
			{Endpoint: serverName(1), Op: OpPullSplit, Count: 1, RespLossRate: 1},
		}})
		fep, err := faults.Endpoint(ep.Name())
		if err != nil {
			t.Fatal(err)
		}
		re := transport.NewRetryEndpoint(fep, transport.RetryPolicy{MaxAttempts: 3, BaseDelay: 1, MaxDelay: 1})
		re.OnRetry = func(string, int, error) { retries++ }
		return re
	})
	m, _ := psMetrics()
	derived0 := m.derived.Value()
	got, err := faulty.fx.clients[1].PullDerivedSplit(deriveDerived, 1.0, 0.0, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if lost := faults.Stats().RespLosses; lost != 1 || retries != 1 {
		t.Fatalf("%d replies lost, %d retries; want one of each", lost, retries)
	}
	if n := m.derived.Value() - derived0; n != int64(len(faulty.fx.servers)) {
		t.Fatalf("%d shards derived across a retried pull, want one per server", n)
	}
	if got != want {
		t.Fatalf("after a lost reply: %+v, fault-free %+v", got, want)
	}
	for sv := range faulty.fx.servers {
		a, b := shardBits(t, faulty.fx.servers[sv], deriveDerived), shardBits(t, clean.fx.servers[sv], deriveDerived)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("server %d bucket %d: %x after a lost reply, %x fault-free", sv, i, a[i], b[i])
			}
		}
	}
}

// TestDeriveWithoutOperandsIsTypedError: a derive pull for a node whose
// sibling was never pushed — or whose parent the server never saw — names the
// missing node in a DeriveError; it never answers from a zero histogram, and
// it leaves nothing behind that a later pull could read.
func TestDeriveWithoutOperandsIsTypedError(t *testing.T) {
	df := newDeriveFixture(t, 2, nil)
	c := df.fx.clients[0]
	var de *DeriveError
	// Node 4's sibling (3) was never pushed; its parent (1) was.
	if _, err := c.PullDerivedSplit(4, 1.0, 0.0, 1e-6); !errors.As(err, &de) || de.Node != 4 || de.Missing != 3 {
		t.Fatalf("derive without a sibling: %v, want a DeriveError naming node 3", err)
	}
	// Node 12's parent (5) does not exist at all.
	if _, err := c.PullDerivedSplit(12, 1.0, 0.0, 1e-6); !errors.As(err, &de) || de.Missing != 5 {
		t.Fatalf("derive without a parent: %v, want a DeriveError naming node 5", err)
	}
	// The root has no parent to derive from.
	df2 := newFixture(t, 150, 2, 1)
	if err := df2.clients[0].NewTree(everyKth(2)(df2.part)); err != nil {
		t.Fatal(err)
	}
	if _, err := df2.clients[0].PullDerivedSplit(0, 1.0, 0.0, 1e-6); err == nil {
		t.Fatal("derive for the root answered")
	}
	for _, srv := range df.fx.servers {
		for _, node := range []int32{4, 12} {
			if _, n := srv.current(node); n != nil {
				t.Fatalf("server %d kept a shard for node %d after refusing to derive it", srv.id, node)
			}
		}
	}
	// An unmarked pull of the same node is the old error, not a derivation.
	if _, err := c.PullSplit(4, 1.0, 0.0, 1e-6); err == nil || errors.As(err, &de) {
		t.Fatalf("unmarked pull of an unpushed node: %v, want the plain no-histogram error", err)
	}
}

// replyRecorder keeps a copy of the last split-pull reply each server sent,
// safe for the concurrent calls of one fan-out.
type replyRecorder struct {
	transport.Endpoint
	mu   sync.Mutex
	last map[string][]byte
}

func (e *replyRecorder) Call(to string, req transport.Message) (transport.Message, error) {
	resp, err := e.Endpoint.Call(to, req)
	if err == nil && req.Op == OpPullSplit {
		e.mu.Lock()
		e.last[to] = append([]byte(nil), resp.Body...)
		e.mu.Unlock()
	}
	return resp, err
}

// TestPullOrderDoesNotChangeReplies: a pull may not change the state of a
// shard another request can read. One server takes identical pushes — a
// materialised parent, and a deferred child at a fixed-point width, whose
// exact mass is then the node total it reports — and the built child and its
// derived sibling are pulled in both orders. Deriving the sibling first must
// not materialise the built child under the later pull (which would report
// the noisy bucket sums as its totals instead): every reply is byte-identical
// whichever order the pulls arrive in.
func TestPullOrderDoesNotChangeReplies(t *testing.T) {
	const workers = 3
	wt := newWireTree(t, workers)
	pullBoth := func(derivedFirst bool) map[int][]byte {
		fx := newFixture(t, wt.m, 1, workers)
		for f := range wt.cands {
			fx.servers[0].cands[int32(f)] = wt.cands[f]
		}
		for _, c := range fx.clients {
			c.Bits = 8
		}
		if err := fx.clients[0].NewTree(histogram.AllFeatures(wt.m)); err != nil {
			t.Fatal(err)
		}
		for w, c := range fx.clients {
			if err := c.PushHistogram(deriveParent, wt.dense[w][0].Clone()); err != nil {
				t.Fatal(err)
			}
			if err := c.PushHistogram(deriveBuilt, wt.deferred[w][1].Clone()); err != nil {
				t.Fatal(err)
			}
		}
		if _, n := fx.servers[0].current(deriveBuilt); !n.hist.Deferred() {
			t.Fatal("the built child's shard is not deferred: the fixture no longer pushes in touched space")
		}
		rec := &replyRecorder{Endpoint: fx.clients[0].ep, last: map[string][]byte{}}
		fx.clients[0].ep = rec
		order := []int{deriveBuilt, deriveDerived}
		if derivedFirst {
			order = []int{deriveDerived, deriveBuilt}
		}
		out := map[int][]byte{}
		for _, node := range order {
			pull := fx.clients[0].PullSplit
			if node == deriveDerived {
				pull = fx.clients[0].PullDerivedSplit
			}
			if _, err := pull(node, 1.0, 0.0, 1e-6); err != nil {
				t.Fatal(err)
			}
			out[node] = rec.last[serverName(0)]
		}
		return out
	}
	builtFirst, derivedFirst := pullBoth(false), pullBoth(true)
	for _, node := range []int{deriveBuilt, deriveDerived} {
		if !bytes.Equal(builtFirst[node], derivedFirst[node]) {
			t.Errorf("node %d: the split reply depends on the pull order:\n built first   %x\n derived first %x", node, builtFirst[node], derivedFirst[node])
		}
	}
}

// TestStalePullOfDerivedFromNodeIsTypedError: deriving a node subtracts its
// sibling from the parent's shard in place and retires the parent. A pull of
// the parent that arrives afterwards gets a RetiredError naming the parent
// and the child — never the child's buckets, which would split the parent on
// another node's data — with or without the derive marker; a push for it is
// still too late; and the parent's entry stays, so the next derive pull of the
// child finds the installed shard.
func TestStalePullOfDerivedFromNodeIsTypedError(t *testing.T) {
	df := newDeriveFixture(t, 2, nil)
	c := df.fx.clients[0]
	want, err := c.PullDerivedSplit(deriveDerived, 1.0, 0.0, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	var re *RetiredError
	for _, pull := range []func(int, float64, float64, float64) (core.Decision, error){c.PullSplit, c.PullDerivedSplit} {
		got, err := pull(deriveParent, 1.0, 0.0, 1e-6)
		if !errors.As(err, &re) || re.Node != deriveParent || re.Child != deriveDerived {
			t.Fatalf("pull of the retired parent: %+v, %v; want a RetiredError naming nodes %d and %d", got, err, deriveParent, deriveDerived)
		}
	}
	var repush *RepushError
	if err := c.PushHistogram(deriveParent, histogram.New(df.layout)); !errors.As(err, &repush) {
		t.Fatalf("push for the retired parent: %v, want a RepushError", err)
	}
	for _, srv := range df.fx.servers {
		if _, n := srv.current(deriveParent); n == nil || n.hist != nil || n.child == nil {
			t.Fatalf("server %d: the retired parent's entry is gone or still holds a histogram", srv.id)
		}
	}
	m, _ := psMetrics()
	derived0 := m.derived.Value()
	if again, err := c.PullDerivedSplit(deriveDerived, 1.0, 0.0, 1e-6); err != nil || again != want {
		t.Fatalf("derive pull after the stale ones: %+v (%v), want %+v", again, err, want)
	}
	if n := m.derived.Value() - derived0; n != 0 {
		t.Fatalf("a repeated derive pull derived %d shards again", n)
	}
}

// TestRacingDerivePullsDeriveOnce: two workers send the derive pull of one
// node at once. One of them subtracts in place and retires the parent; the
// other must find the child through the retired parent or the installed
// shard, never derive again from the consumed buffer. Every server's two
// replies are byte-identical and each server counts one derivation. Run under
// -race, the rounds also check the parent's lock covers the hand-over.
func TestRacingDerivePullsDeriveOnce(t *testing.T) {
	m, _ := psMetrics()
	for round := 0; round < 50; round++ {
		df := newDeriveFixture(t, 2, nil)
		recs := make([]*replyRecorder, 2)
		for w, c := range df.fx.clients {
			recs[w] = &replyRecorder{Endpoint: c.ep, last: map[string][]byte{}}
			c.ep = recs[w]
		}
		derived0 := m.derived.Value()
		start := make(chan struct{})
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for w, c := range df.fx.clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				_, errs[w] = c.PullDerivedSplit(deriveDerived, 1.0, 0.0, 1e-6)
			}()
		}
		close(start)
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("round %d worker %d: %v", round, w, err)
			}
		}
		for sv := range df.fx.servers {
			a, b := recs[0].last[serverName(sv)], recs[1].last[serverName(sv)]
			if a == nil || !bytes.Equal(a, b) {
				t.Fatalf("round %d server %d: racing derive pulls answered differently:\n %x\n %x", round, sv, a, b)
			}
		}
		if n := m.derived.Value() - derived0; n != int64(len(df.fx.servers)) {
			t.Fatalf("round %d: %d shards derived by two racing pulls, want one per server", round, n)
		}
	}
}

// growFullTree drives one full tree through the fleet as the workers do:
// per built layer every worker pushes each built node, then each node is
// pulled — the built child plainly, its sibling with the derive marker.
// depth counts levels, leaves included, so depth−1 layers are built.
func growFullTree(t *testing.T, fx *psFixture, layout *histogram.Layout, sampled []int32, depth int, seed int64) {
	t.Helper()
	if err := fx.clients[0].NewTree(sampled); err != nil {
		t.Fatal(err)
	}
	built, derived := []int{0}, []int(nil)
	for d := 0; d < depth-1; d++ {
		if d > 0 {
			parents := append(built, derived...)
			built, derived = nil, nil
			for _, p := range parents {
				built, derived = append(built, 2*p+1), append(derived, 2*p+2)
			}
		}
		for _, node := range built {
			for w, c := range fx.clients {
				h := histogram.New(layout)
				fillHist(h, seed+int64(1000*w+node), 0.5)
				if err := c.PushHistogram(node, h); err != nil {
					t.Fatal(err)
				}
			}
		}
		c := fx.clients[0]
		for _, node := range built {
			if _, err := c.PullSplit(node, 1.0, 0.0, 1e-6); err != nil {
				t.Fatalf("layer %d node %d: %v", d, node, err)
			}
		}
		for _, node := range derived {
			if _, err := c.PullDerivedSplit(node, 1.0, 0.0, 1e-6); err != nil {
				t.Fatalf("layer %d derived node %d: %v", d, node, err)
			}
		}
	}
}

// counterValue reads one unlabelled counter of the default registry.
func counterValue(name string) int64 {
	for _, s := range obs.Default().Snapshot() {
		if s.Name == name {
			var v int64
			for _, series := range s.Series {
				v += series.Value
			}
			return v
		}
	}
	return 0
}

// TestServerHoldsOneLayerOfShards pins the servers' histogram footprint: over
// a two-tree, depth-6 run each server's pool allocates at most the widest
// built layer's 2^(depth−2) node shards plus two scratch histograms, because
// a derivation turns its parent's shard into the child's instead of taking a
// fresh one. Keeping every node of the tree until NEW_TREE took 31. The
// count is read as the histograms parked in each pool once a third NEW_TREE
// has returned the second tree's shards; that every histogram the pools
// allocated came back is checked against the pool-miss counter.
func TestServerHoldsOneLayerOfShards(t *testing.T) {
	const m, servers, workers, depth = 150, 2, 2, 6
	fx := newFixture(t, m, servers, workers)
	cands := shapedCands(m)
	for _, srv := range fx.servers {
		for f := range cands {
			srv.cands[int32(f)] = cands[f]
		}
	}
	sampled := histogram.AllFeatures(m)
	layout, err := histogram.NewLayout(sampled, cands, m)
	if err != nil {
		t.Fatal(err)
	}
	const misses = "dimboost_train_hist_pool_misses_total"
	misses0 := counterValue(misses)
	for tree := int64(0); tree < 2; tree++ {
		growFullTree(t, fx, layout, sampled, depth, 100*tree)
	}
	pools := make([]*histogram.Pool, servers)
	for sv, srv := range fx.servers {
		pools[sv] = srv.tree.pool
	}
	if err := fx.clients[0].NewTree(sampled); err != nil {
		t.Fatal(err)
	}
	total := 0
	for sv, srv := range fx.servers {
		if srv.tree.pool != pools[sv] {
			t.Fatalf("server %d: NEW_TREE over the same sample replaced the pool", sv)
		}
		n := pools[sv].Idle()
		t.Logf("server %d: %d histograms", sv, n)
		total += n
		if limit := 1<<(depth-2) + 2; n > limit {
			t.Errorf("server %d: the pool allocated %d histograms over two depth-%d trees, want at most %d (one layer of shards and scratch)", sv, n, depth, limit)
		}
	}
	if got := counterValue(misses) - misses0; got != int64(total) {
		t.Fatalf("the pools allocated %d histograms and hold %d: one was dropped, so the count above undercounts", got, total)
	}
}
