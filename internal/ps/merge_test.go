package ps

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"dimboost/internal/core"
	"dimboost/internal/faultinject"
	"dimboost/internal/histogram"
	"dimboost/internal/transport"
)

// mergeFixture is three workers' histograms for a few nodes of one tree,
// pushed at 8 bits (every shard carries stochastic rounding) or as exact
// float64 — either way a change in decode order or a doubled shard moves
// the merged floats.
type mergeFixture struct {
	fx    *psFixture
	hists [][]*histogram.Histogram // [worker][node]
}

const (
	mergeWorkers = 3
	mergeNodes   = 4
)

func newMergeFixture(t *testing.T, exact bool, wrap func(worker int, ep transport.Endpoint) transport.Endpoint) *mergeFixture {
	t.Helper()
	const m, p = 150, 2
	fx := newFixture(t, m, p, mergeWorkers)
	cands := shapedCands(m)
	for _, srv := range fx.servers {
		for f := range cands {
			srv.cands[int32(f)] = cands[f]
		}
	}
	sampled := everyKth(2)(fx.part)
	layout := workerLayout(t, sampled, cands, m)
	mf := &mergeFixture{fx: fx, hists: make([][]*histogram.Histogram, mergeWorkers)}
	for w, c := range fx.clients {
		c.Bits, c.Exact = 8, exact
		if exact {
			c.Bits = 0
		}
		if wrap != nil {
			c.ep = wrap(w, c.ep)
		}
		for node := 0; node < mergeNodes; node++ {
			h := histogram.New(layout)
			fillHist(h, int64(1000*w+node), 0.5)
			mf.hists[w] = append(mf.hists[w], h)
		}
	}
	if err := fx.clients[0].NewTree(sampled); err != nil {
		t.Fatal(err)
	}
	return mf
}

// mergedState reads every node back: the servers' accumulators bit for bit,
// and the split each node yields.
type mergedState struct {
	buckets [][]uint64 // [server*nodes+node] → g then h bits
	splits  []core.Decision
}

func (mf *mergeFixture) state(t *testing.T) mergedState {
	t.Helper()
	var st mergedState
	for node := 0; node < mergeNodes; node++ {
		res, err := mf.fx.clients[0].PullSplit(node, 1.0, 0.0, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		st.splits = append(st.splits, res)
	}
	for _, srv := range mf.fx.servers {
		for node := int32(0); node < mergeNodes; node++ {
			st.buckets = append(st.buckets, shardBits(t, srv, node))
		}
	}
	return st
}

func (st mergedState) equal(t *testing.T, other mergedState, what string) {
	t.Helper()
	for i := range st.buckets {
		for j := range st.buckets[i] {
			if st.buckets[i][j] != other.buckets[i][j] {
				t.Fatalf("%s: accumulator %d bucket %d differs: %x vs %x", what, i, j, st.buckets[i][j], other.buckets[i][j])
			}
		}
	}
	for node := range st.splits {
		if st.splits[node] != other.splits[node] {
			t.Fatalf("%s: node %d split %+v vs %+v", what, node, st.splits[node], other.splits[node])
		}
	}
}

// pushInOrder pushes node by node with the workers in the given order.
func (mf *mergeFixture) pushInOrder(t *testing.T, order []int) {
	t.Helper()
	for node := 0; node < mergeNodes; node++ {
		for _, w := range order {
			if err := mf.fx.clients[w].PushHistogram(node, mf.hists[w][node]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestMergeOrderIndependentOfArrival: float addition does not commute at
// the bit level, so the merged shard is defined as the sum in ascending
// worker id. In-order arrivals take the direct-decode path, reversed ones
// the parked path, and concurrent workers a mix of both plus the per-node
// locks; all must agree to the bit, in the accumulators and in the splits
// found on them. On the exact wire the odd workers also walk the nodes
// backwards, so pushes interleave across nodes; at 8 bits every worker keeps
// ascending node order, because its rounding stream (not the server) ties a
// payload to the pushes before it.
func TestMergeOrderIndependentOfArrival(t *testing.T) {
	for _, exact := range []bool{false, true} {
		ascending := newMergeFixture(t, exact, nil)
		ascending.pushInOrder(t, []int{0, 1, 2})
		want := ascending.state(t)

		descending := newMergeFixture(t, exact, nil)
		descending.pushInOrder(t, []int{2, 1, 0})
		want.equal(t, descending.state(t), "workers 2,1,0")

		for round := 0; round < 10; round++ {
			mixed := newMergeFixture(t, exact, nil)
			var wg sync.WaitGroup
			for w := range mixed.fx.clients {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < mergeNodes; i++ {
						node := i
						if exact && w%2 == 1 {
							node = mergeNodes - 1 - i
						}
						if err := mixed.fx.clients[w].PushHistogram(node, mixed.hists[w][node]); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			want.equal(t, mixed.state(t), "concurrent pushes")
		}
	}
}

// TestLostPushResponseAppliesOnce: the fault network delivers two of worker
// 1's pushes (one per server) but drops their responses; the retry endpoint
// resends, the envelope dedup acknowledges without re-applying, and the
// merge equals the fault-free one — nothing doubled, nothing missing.
func TestLostPushResponseAppliesOnce(t *testing.T) {
	clean := newMergeFixture(t, false, nil)
	clean.pushInOrder(t, []int{0, 1, 2})
	want := clean.state(t)

	spec := faultinject.Spec{Rules: []faultinject.Rule{
		{Endpoint: serverName(0), Op: OpPushHist, After: 1, Count: 1, RespLossRate: 1},
		{Endpoint: serverName(1), Op: OpPushHist, After: 2, Count: 1, RespLossRate: 1},
	}}
	var faults *faultinject.Network
	var retries atomic.Int64
	faulty := newMergeFixture(t, false, func(w int, ep transport.Endpoint) transport.Endpoint {
		if w != 1 {
			return ep
		}
		// The fixture's endpoints come from its own mem network; put the
		// fault schedule and a retry policy around this one.
		faults = faultinject.New(singleEndpointNetwork{ep}, spec)
		fep, err := faults.Endpoint(ep.Name())
		if err != nil {
			t.Fatal(err)
		}
		re := transport.NewRetryEndpoint(fep, transport.RetryPolicy{MaxAttempts: 3, BaseDelay: 1, MaxDelay: 1})
		re.OnRetry = func(string, int, error) { retries.Add(1) }
		return re
	})
	m, _ := psMetrics()
	dedup0 := m.dedupHits.Value()
	faulty.pushInOrder(t, []int{0, 1, 2})
	if lost, dedup := faults.Stats().RespLosses, m.dedupHits.Value()-dedup0; lost != 2 || retries.Load() != 2 || dedup != 2 {
		t.Fatalf("%d responses lost, %d retries, %d dedup hits; want 2 of each", lost, retries.Load(), dedup)
	}
	want.equal(t, faulty.state(t), "after lost push responses")
}

// singleEndpointNetwork adapts one existing endpoint to the Network
// interface faultinject wraps.
type singleEndpointNetwork struct{ ep transport.Endpoint }

func (n singleEndpointNetwork) Endpoint(string) (transport.Endpoint, error) { return n.ep, nil }
func (n singleEndpointNetwork) Close() error                                { return nil }

// TestRepushRejected: once a worker's shard for a node is accepted, a
// second, different push for the same (node, worker) cannot be merged —
// before or after the node was pulled — and a first push after the pull is
// too late. All are typed rejections that leave the merged node untouched.
func TestRepushRejected(t *testing.T) {
	mf := newMergeFixture(t, false, nil)
	c := mf.fx.clients
	push := func(w, node int) error { return c[w].PushHistogram(node, mf.hists[w][node]) }
	var repush *RepushError

	// before any pull: worker 0 is merged, worker 2 parked
	for _, w := range []int{0, 2} {
		if err := push(w, 0); err != nil {
			t.Fatal(err)
		}
		if err := push(w, 0); !errors.As(err, &repush) || repush.Sealed || repush.Worker != int32(w) {
			t.Fatalf("second push from worker %d: %v, want RepushError", w, err)
		}
	}
	before, err := c[0].PullSplit(0, 1.0, 0.0, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	// after the pull: a repeat, and a worker that never pushed
	if err := push(0, 0); !errors.As(err, &repush) || repush.Sealed {
		t.Fatalf("re-push after pull: %v, want RepushError", err)
	}
	if err := push(1, 0); !errors.As(err, &repush) || !repush.Sealed {
		t.Fatalf("late first push after pull: %v, want sealed RepushError", err)
	}
	after, err := c[0].PullSplit(0, 1.0, 0.0, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("rejected pushes changed the node: %+v vs %+v", after, before)
	}
}
