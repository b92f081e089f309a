package ps

import "dimboost/internal/histogram"

// shardPlan is the geometry of one tree's histogram shards. Partition
// ranges are contiguous in feature id and a layout's buckets follow its
// ascending feature list, so the shard a server owns is a handful of
// contiguous spans of the worker's flat bucket arrays — at most NumRanges
// in total — and shipping or reassembling it needs no per-feature work.
// A plan is built once per (partition, layout) and is immutable.
type shardPlan struct {
	layout *histogram.Layout
	// spans[sv] lists server sv's bucket spans in ascending order; their
	// concatenation is the server's shard in its own layout order.
	spans [][]bucketSpan
	// size[sv] is the bucket count of server sv's shard.
	size []int
}

// bucketSpan is the flat bucket range [lo, hi).
type bucketSpan struct{ lo, hi int }

func newShardPlan(part *Partition, layout *histogram.Layout) *shardPlan {
	pl := &shardPlan{
		layout: layout,
		spans:  make([][]bucketSpan, part.NumServers),
		size:   make([]int, part.NumServers),
	}
	part.runs(layout.Features, func(sv, lo, hi int) {
		b := bucketSpan{int(layout.Offsets[lo]), int(layout.Offsets[hi])}
		pl.size[sv] += b.hi - b.lo
		if n := len(pl.spans[sv]); n > 0 && pl.spans[sv][n-1].hi == b.lo {
			pl.spans[sv][n-1].hi = b.hi // neighbouring ranges on one server
			return
		}
		pl.spans[sv] = append(pl.spans[sv], b)
	})
	return pl
}

// parts appends server sv's shard of a flat bucket array to dst[:0] as one
// slice per span, aliasing flat.
func (pl *shardPlan) parts(dst [][]float64, sv int, flat []float64) [][]float64 {
	dst = dst[:0]
	for _, sp := range pl.spans[sv] {
		dst = append(dst, flat[sp.lo:sp.hi])
	}
	return dst
}
