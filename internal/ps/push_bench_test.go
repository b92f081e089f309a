package ps

import (
	"math"
	"testing"

	"dimboost/internal/dataset"
	"dimboost/internal/histogram"
	"dimboost/internal/sketch"
)

// pushBench is the paper-shaped push fixture: a 100K-feature layout at ~2.3
// buckets per feature, two servers, 16-bit pushes, and one worker's node
// histogram in two forms: materialised, with the mostly-empty tail a
// Zipf-distributed dataset produces — what bench/ pushes — and built
// deferred over a Zipf dataset's rows, as workers build and push it.
type pushBench struct {
	fx             *psFixture
	hist, deferred *histogram.Histogram
	sample         []int32
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
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 2000, NumFeatures: features, AvgNNZ: 100, Seed: 3, Zipf: 1.3})
	rows := make([]int32, d.NumRows())
	grad, hess := make([]float64, len(rows)), make([]float64, len(rows))
	for r := range rows {
		rows[r], grad[r], hess[r] = int32(r), math.Sin(float64(r)), 0.25
	}
	pb.deferred = histogram.New(layout)
	pb.deferred.Defer()
	histogram.BuildBinned(pb.deferred, histogram.NewBinned(d, layout, 1), rows, grad, hess, histogram.BuildOptions{Parallelism: 1})
	if !pb.deferred.Deferred() {
		tb.Fatal("the binned build did not stay deferred")
	}
	fx.clients[0].Bits = 16
	pb.newTree(tb)
	return pb
}

// pushRow is one histogram a push benchmark or test runs over.
type pushRow struct {
	name string
	hist *histogram.Histogram
}

func (pb *pushBench) rows() []pushRow {
	return []pushRow{{"materialised", pb.hist}, {"deferred", pb.deferred}}
}

// newTree resets the servers' per-tree state (and with it every node
// accumulator).
func (pb *pushBench) newTree(tb testing.TB) {
	if err := pb.fx.clients[0].NewTree(pb.sample); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkPushHistogram measures one worker's full push of one node:
// shard, quantize, frame, deliver, and the servers' decode-and-merge, for the
// deferred histogram a worker pushes and for the materialised one bench/
// pushes. Every iteration pushes a fresh node (a second push of a node is an
// error), so the servers' accumulators are recycled with NEW_TREE off the
// clock. Bytes are the layout's 16-bit G and H, for both rows.
func BenchmarkPushHistogram(b *testing.B) {
	pb := newPushBench(b, 100_000)
	c := pb.fx.clients[0]
	const nodesPerTree = 16
	for _, row := range pb.rows() {
		b.Run(row.name, func(b *testing.B) {
			pb.newTree(b)
			b.SetBytes(int64(2 * 2 * row.hist.Layout.TotalBuckets))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%nodesPerTree == 0 {
					b.StopTimer()
					pb.newTree(b)
					b.StartTimer()
				}
				if err := c.PushHistogram(i%nodesPerTree, row.hist); err != nil {
					b.Fatal(err)
				}
			}
		})
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
	for _, row := range pb.rows() {
		pb.newTree(t)
		node := 0
		push := func() {
			if err := c.PushHistogram(node, row.hist); err != nil {
				t.Fatal(err)
			}
			node++
		}
		push() // builds the plan, sizes the request buffers
		perPush := testing.AllocsPerRun(10, push)
		if limit := 24.0 * float64(len(pb.fx.servers)); perPush > limit {
			t.Fatalf("%s: a steady-state push allocated %.0f objects, want at most %.0f (O(servers), not O(features))", row.name, perPush, limit)
		}
	}
}
