package ps

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"dimboost/internal/compress"
	"dimboost/internal/histogram"
	"dimboost/internal/wire"
)

// The deferred shard push. A node histogram built deferred — a touched
// bitset plus the zero mass every untouched position is owed, see
// histogram.Histogram — crosses the wire in touched space. Each server's
// shard is two VecDeferred vectors. The G vector is
//
//	tag u8 | width u8 | positions u32 | touched ⌈positions/8⌉ bytes |
//	mass | maxAbs f64 | count u32 | data
//
// and the H vector the same without positions and touched set: it is read
// against the G vector's. positions is the shard's sampled-position count and
// bit q of the touched bytes (little-endian) stands for the server's position
// q. mass is float32 on the raw float32 wire and float64 otherwise. count is
// the number of buckets of the touched positions and data their values,
// position by position, at the width: IEEE floats for the raw widths,
// fixed point scaled by maxAbs otherwise (maxAbs is 0 on raw widths). The
// bucket runs follow from the touched set and the receiver's shard layout, so
// they never cross the wire; the receiver decodes them through compress's
// span machinery.

// ErrTouchedOutsideShard reports a deferred push whose touched set names a
// position past the end of the receiver's shard.
var ErrTouchedOutsideShard = errors.New("ps: touched position outside the shard")

// validSpanWidth reports whether width is one span values may have: a raw
// float width or a fixed-point one.
func validSpanWidth(width uint) bool {
	return width == compress.RawFloat32 || width == compress.RawFloat64 || compress.ValidWidth(width)
}

// finite reports whether x is neither NaN nor an infinity.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// massSize is the wire size of a deferred mass at a width.
func massSize(width uint) int {
	if width == compress.RawFloat32 {
		return 4
	}
	return 8
}

// wireMass is a deferred mass as a width carries it: narrowed to float32 on
// the raw float32 wire, verbatim otherwise.
func wireMass(mass float64, width uint) float64 {
	if width == compress.RawFloat32 {
		return float64(float32(mass))
	}
	return mass
}

// deferredShardSize is the exact wire size of a deferred shard push — both
// vectors — of npos positions whose touched ones hold count buckets.
func deferredShardSize(npos, count int, width uint) int {
	vec := 1 + 1 + massSize(width) + 8 + 4 + compress.SpanDataSize(count, width)
	return 2*vec + 4 + (npos+7)/8
}

// materialisedSize is the exact wire size of server sv's shard of one
// deferred vector (flat, owing mass) once materialised: what writeHistVector
// would put on the wire. The sparse encoding's shape is counted position by
// position without materialising: a touched position's buckets as they are,
// an untouched one's as zeros around a zero bucket holding 0 + mass.
func (pl *shardPlan) materialisedSize(sv int, ev vecEncoding, h *histogram.Histogram, flat []float64, mass float64) int {
	size := denseVecSize(pl.size[sv], ev)
	if !ev.sparse {
		return size
	}
	l := pl.layout
	nnz, runs, inRun := 0, 0, false
	nonzero := func(v bool) {
		if v {
			nnz++
			if !inRun {
				runs++
			}
		}
		inRun = v
	}
	for _, r := range pl.pos[sv] {
		for p := r.lo; p < r.hi; p++ {
			lo, hi := l.BucketRange(p)
			if h.ScanWord(p>>6)&(1<<(p&63)) != 0 {
				for _, v := range flat[lo:hi] {
					nonzero(v != 0)
				}
				continue
			}
			z := lo + l.Cands[p].ZeroBucket
			if z > lo {
				nonzero(false)
			}
			nonzero(mass != 0)
			if z < hi-1 {
				nonzero(false)
			}
		}
	}
	return min(size, 1+compress.SparseWireSize(nnz, runs, ev.spanBits()))
}

// writeDeferredVector appends one deferred vector of a server's shard; the G
// vector (touched true) carries the shard's touched set.
func writeDeferredVector(w *wire.Writer, enc *compress.Encoder, width uint, ts *touchedShard, npos int, touched bool, mass float64, parts [][]float64) error {
	if !validSpanWidth(width) {
		return fmt.Errorf("%w: %d", compress.ErrBadWidth, width)
	}
	maxAbs := 0.0
	if width != compress.RawFloat32 && width != compress.RawFloat64 {
		var finite bool
		if maxAbs, finite = compress.MaxAbs(parts...); !finite {
			return compress.ErrNonFinite
		}
	}
	start := w.Len()
	w.Uint8(VecDeferred)
	w.Uint8(uint8(width))
	if touched {
		w.Uint32(uint32(npos))
		b := w.Extend((npos + 7) / 8)
		for i := range b {
			b[i] = byte(ts.touched[i>>3] >> (8 * (i & 7)))
		}
	}
	if width == compress.RawFloat32 {
		w.Float32(float32(mass))
	} else {
		w.Float64(mass)
	}
	w.Float64(maxAbs)
	w.Uint32(uint32(ts.buckets))
	enc.PackSpans(w.Extend(compress.SpanDataSize(ts.buckets, width)), width, maxAbs, parts...)
	vectorBytes(VecDeferred, dirEncode, int64(w.Len()-start))
	return nil
}

// deferredShard is a parsed deferred push: its touched set and both vectors,
// every header field checked against the receiver's shard layout and the
// data aliased from the message, so it can no longer fail to merge.
type deferredShard struct {
	touched []uint64
	g, h    deferredVector
}

// deferredVector is one parsed deferred vector: the mass and the touched
// buckets as a compress.Sparse whose spans are the touched positions' bucket
// runs.
type deferredVector struct {
	mass   float64
	values compress.Sparse
	size   int // bytes on the wire, tag included
}

// parseDeferredShard consumes the two vectors of a deferred shard push under
// the receiver's shard layout. Hostile or stale-layout payloads yield typed
// errors, never panics.
func parseDeferredShard(r *wire.Reader, layout *histogram.Layout) (*deferredShard, error) {
	start := r.Remaining()
	r.Uint8() // VecDeferred, checked by the caller
	width := uint(r.Uint8())
	npos := int(r.Uint32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if want := layout.NumFeatures(); npos != want {
		return nil, &ShapeError{What: "pushed touched set", Got: npos, Want: want}
	}
	raw := r.Raw((npos + 7) / 8)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if rest := npos & 7; rest != 0 && raw[len(raw)-1]>>rest != 0 {
		return nil, fmt.Errorf("%w: a bit past position %d", ErrTouchedOutsideShard, npos-1)
	}
	d := &deferredShard{touched: make([]uint64, (npos+63)/64)}
	for i, b := range raw {
		d.touched[i>>3] |= uint64(b) << (8 * (i & 7))
	}
	spans, count := touchedSpans(layout, d.touched)
	var err error
	if d.g, err = parseDeferredBody(r, "pushed g shard", width, spans, count, layout.TotalBuckets); err != nil {
		return nil, err
	}
	d.g.size = start - r.Remaining()

	start = r.Remaining()
	if tag := r.Uint8(); tag != VecDeferred {
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: deferred g shard followed by a vector tagged %d", compress.ErrBadHeader, tag)
	}
	width = uint(r.Uint8())
	if d.h, err = parseDeferredBody(r, "pushed h shard", width, spans, count, layout.TotalBuckets); err != nil {
		return nil, err
	}
	d.h.size = start - r.Remaining()
	return d, nil
}

// parseDeferredBody consumes a deferred vector after its width byte (and,
// for the G vector, its touched set): count must equal the touched positions'
// bucket count, the mass must be finite.
func parseDeferredBody(r *wire.Reader, what string, width uint, spans []compress.Span, count, n int) (deferredVector, error) {
	var v deferredVector
	if !validSpanWidth(width) {
		if err := r.Err(); err != nil {
			return v, err
		}
		return v, fmt.Errorf("%w: %s width %d", compress.ErrBadWidth, what, width)
	}
	if width == compress.RawFloat32 {
		v.mass = float64(r.Float32())
	} else {
		v.mass = r.Float64()
	}
	v.values = compress.Sparse{Bits: width, N: n, MaxAbs: r.Float64(), Spans: spans}
	got := int(r.Uint32())
	if err := r.Err(); err != nil {
		return v, err
	}
	if !finite(v.mass) {
		return v, fmt.Errorf("%w: %s deferred mass %v", compress.ErrBadHeader, what, v.mass)
	}
	if got != count {
		return v, &ShapeError{What: what + " touched buckets", Got: got, Want: count}
	}
	v.values.Data = r.Raw(compress.SpanDataSize(count, width))
	if err := r.Err(); err != nil {
		return v, err
	}
	return v, v.values.Validate()
}

// touchedSpans returns the bucket runs of a touched set under a layout —
// touching positions' runs joined — and their bucket count.
func touchedSpans(layout *histogram.Layout, touched []uint64) ([]compress.Span, int) {
	var spans []compress.Span
	count := 0
	offs := layout.Offsets
	for w, set := range touched {
		for ; set != 0; set &= set - 1 {
			p := w<<6 + bits.TrailingZeros64(set)
			lo, hi := uint32(offs[p]), uint32(offs[p+1])
			if k := len(spans) - 1; k >= 0 && spans[k].Start+spans[k].Count == lo {
				spans[k].Count += hi - lo
			} else {
				spans = append(spans, compress.Span{Start: lo, Count: hi - lo})
			}
			count += int(hi - lo)
		}
	}
	return spans, count
}

// fill writes the shard into a zeroed histogram of the receiver's layout,
// leaving it deferred.
func (d *deferredShard) fill(h *histogram.Histogram) error {
	h.SetDeferred(d.touched, d.g.mass, d.h.mass)
	if err := d.g.values.DecodeInto(h.G); err != nil {
		return err
	}
	if err := d.h.values.DecodeInto(h.H); err != nil {
		return err
	}
	vectorBytes(VecDeferred, dirDecode, int64(d.g.size+d.h.size))
	return nil
}
