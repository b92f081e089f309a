package ps

import (
	"math"
	"testing"

	"dimboost/internal/histogram"
	"dimboost/internal/sketch"
)

// pushBench is the paper-shaped push fixture: a 100K-feature layout at ~2.3
// buckets per feature, two servers, 16-bit pushes, one worker's histogram
// with the mostly-empty tail a Zipf-distributed dataset produces.
type pushBench struct {
	fx     *psFixture
	hist   *histogram.Histogram
	sample []int32
}

func newPushBench(tb testing.TB, features int) *pushBench {
	tb.Helper()
	const servers = 2
	fx := newFixture(tb, features, servers, 1)
	cands := make([]sketch.Candidates, features)
	for f := range cands {
		cuts := []float64{0, 1}
		if f%3 == 0 {
			cuts = []float64{0, 0.5, 1}
		}
		cands[f] = sketch.FromCuts(cuts)
		// Install the candidates directly; pushing 100K sketches is not what
		// is being measured.
		fx.servers[fx.part.ServerOf(int32(f))].cands[int32(f)] = cands[f]
	}
	pb := &pushBench{fx: fx, sample: histogram.AllFeatures(features)}
	layout, err := histogram.NewLayout(pb.sample, cands, features)
	if err != nil {
		tb.Fatal(err)
	}
	pb.hist = histogram.New(layout)
	for i := range pb.hist.G {
		if i%7 < 3 || i < layout.TotalBuckets/20 {
			pb.hist.G[i] = math.Sin(float64(i))
			pb.hist.H[i] = 0.25 + 0.1*math.Cos(float64(i))
		}
	}
	fx.clients[0].Bits = 16
	pb.newTree(tb)
	return pb
}

// newTree resets the servers' per-tree state (and with it every node
// accumulator).
func (pb *pushBench) newTree(tb testing.TB) {
	if err := pb.fx.clients[0].NewTree(pb.sample); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkPushHistogram measures one worker's full push of one node:
// shard, quantize, frame, deliver, and the servers' decode-and-merge. Every
// iteration pushes a fresh node (a second push of a node is an error), so
// the servers' accumulators are recycled with NEW_TREE off the clock.
func BenchmarkPushHistogram(b *testing.B) {
	pb := newPushBench(b, 100_000)
	c := pb.fx.clients[0]
	const nodesPerTree = 16
	b.SetBytes(int64(2 * 2 * pb.hist.Layout.TotalBuckets)) // 16-bit G and H
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%nodesPerTree == 0 {
			b.StopTimer()
			pb.newTree(b)
			b.StartTimer()
		}
		if err := c.PushHistogram(i%nodesPerTree, pb.hist); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPushAllocationsScaleWithServers guards the copy-free push path: once
// the per-tree plan and the request buffers exist, a push (client and
// servers together — the fixture runs both in process) allocates a small
// constant per server: goroutine and response bookkeeping plus a new node's
// accumulator. Re-hashing features, growing shard slices or copying payloads
// would show up as thousands of objects at this width.
func TestPushAllocationsScaleWithServers(t *testing.T) {
	pb := newPushBench(t, 20_000)
	c := pb.fx.clients[0]
	node := 0
	push := func() {
		if err := c.PushHistogram(node, pb.hist); err != nil {
			t.Fatal(err)
		}
		node++
	}
	push() // builds the plan, sizes the request buffers
	perPush := testing.AllocsPerRun(10, push)
	if limit := 24.0 * float64(len(pb.fx.servers)); perPush > limit {
		t.Fatalf("a steady-state push allocated %.0f objects, want at most %.0f (O(servers), not O(features))", perPush, limit)
	}
}
