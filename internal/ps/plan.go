package ps

import (
	"encoding/binary"
	"math"
	"math/bits"

	"dimboost/internal/histogram"
	"dimboost/internal/wire"
)

// shardPlan is the geometry of one tree's histogram shards. Partition
// ranges are contiguous in feature id and a layout's buckets follow its
// ascending feature list, so the positions a server owns are a handful of
// contiguous ranges of the worker's sampled positions — at most NumRanges in
// total for a worker's layout — and splitting a histogram's touched set
// among the servers needs no per-feature lookup. A server's shard holds only
// the features that can split (histogram.Splittable), so a position whose
// candidates can not is in no range: a histogram laid out over every
// sampled feature, as the benchmark harness lays one out, pushes the shards
// a worker's layout would. A plan is built once per (partition, layout) and
// is immutable.
type shardPlan struct {
	layout *histogram.Layout
	// pos[sv] lists server sv's sampled-position ranges in ascending order:
	// the server's own positions number them consecutively, and npos[sv] is
	// their count.
	pos  [][]bucketSpan
	npos []int
}

// bucketSpan is the flat bucket range [lo, hi) — or, in shardPlan.pos, the
// sampled-position range.
type bucketSpan struct{ lo, hi int }

func newShardPlan(part *Partition, layout *histogram.Layout) *shardPlan {
	pl := &shardPlan{
		layout: layout,
		pos:    make([][]bucketSpan, part.NumServers),
		npos:   make([]int, part.NumServers),
	}
	part.runs(layout.Features, func(sv, lo, hi int) {
		for p := lo; p < hi; p++ {
			if layout.Cands[p].CanSplit() {
				pl.npos[sv]++
				pl.pos[sv] = appendSpan(pl.pos[sv], bucketSpan{p, p + 1}) // neighbouring positions and ranges on one server join
			}
		}
	})
	return pl
}

// appendSpan appends s, joining it to the last span when they touch.
func appendSpan(spans []bucketSpan, s bucketSpan) []bucketSpan {
	if n := len(spans); n > 0 && spans[n-1].hi == s.lo {
		spans[n-1].hi = s.hi
		return spans
	}
	return append(spans, s)
}

// spanParts appends flat's slice of every span to dst[:0], aliasing flat.
func spanParts(dst [][]float64, spans []bucketSpan, flat []float64) [][]float64 {
	dst = dst[:0]
	for _, sp := range spans {
		dst = append(dst, flat[sp.lo:sp.hi])
	}
	return dst
}

// touchedShard is one server's share of a deferred histogram: the touched
// set renumbered into the server's positions, the bucket runs of those
// positions in the worker's flat arrays, and which of their buckets are
// present — what a deferred push carries.
type touchedShard struct {
	touched   []uint64     // bit q: server position q was touched
	positions int          // touched positions
	gaps      int          // wire bytes of the touched set as a gap list
	runs      []bucketSpan // ascending, touching runs joined
	buckets   int          // Σ run lengths
	// presence has bit k (little-endian) set when touched bucket k, in run
	// order, has a G or an H that is not +0 bit for bit; present counts them.
	presence []byte
	present  int
}

// touched fills ts with server sv's share of a deferred histogram's touched
// set, walking the set bits only, with the size of its gap list and with the
// presence of its buckets.
func (pl *shardPlan) touched(ts *touchedShard, sv int, h *histogram.Histogram) {
	words := (pl.npos[sv] + 63) / 64
	if cap(ts.touched) < words {
		ts.touched = make([]uint64, words)
	}
	ts.touched = ts.touched[:words]
	clear(ts.touched)
	ts.runs, ts.buckets, ts.positions, ts.gaps = ts.runs[:0], 0, 0, 0
	offs := pl.layout.Offsets
	base, prev := 0, -1 // server position of the range's first position, of the last touched one
	for _, r := range pl.pos[sv] {
		for w := r.lo >> 6; w<<6 < r.hi; w++ {
			set := h.ScanWord(w)
			if first := w << 6; first < r.lo {
				set &^= 1<<(r.lo-first) - 1
			}
			if rest := r.hi - w<<6; rest < 64 {
				set &= 1<<rest - 1
			}
			for ; set != 0; set &= set - 1 {
				p := w<<6 + bits.TrailingZeros64(set)
				q := base + p - r.lo
				ts.touched[q>>6] |= 1 << (q & 63)
				ts.positions++
				ts.gaps += wire.UvarintLen(uint64(q - prev))
				prev = q
				b := bucketSpan{int(offs[p]), int(offs[p+1])}
				ts.runs = appendSpan(ts.runs, b)
				ts.buckets += b.hi - b.lo
			}
		}
		base += r.hi - r.lo
	}
	ts.gaps += wire.UvarintLen(uint64(ts.positions))
	// Presence bits gather in a register, 64 buckets to a store.
	pw := (ts.buckets + 63) / 64
	if cap(ts.presence) < 8*pw {
		ts.presence = make([]byte, 8*pw)
	}
	ts.presence = ts.presence[:8*pw]
	var acc uint64
	k := 0
	for _, r := range ts.runs {
		for i := r.lo; i < r.hi; i++ {
			x := math.Float64bits(h.G[i]) | math.Float64bits(h.H[i])
			acc |= (x | -x) >> 63 << (k & 63) // 1 unless x is 0
			if k++; k&63 == 0 {
				binary.LittleEndian.PutUint64(ts.presence[8*(k/64-1):], acc)
				acc = 0
			}
		}
	}
	if k&63 != 0 {
		binary.LittleEndian.PutUint64(ts.presence[8*(k/64):], acc)
	}
	ts.present = 0
	for i := 0; i < pw; i++ {
		ts.present += bits.OnesCount64(binary.LittleEndian.Uint64(ts.presence[8*i:]))
	}
	ts.presence = ts.presence[:(ts.buckets+7)/8]
}
