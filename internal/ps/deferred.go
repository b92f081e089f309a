package ps

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"dimboost/internal/compress"
	"dimboost/internal/histogram"
	"dimboost/internal/wire"
)

// The deferred shard push, the one form a histogram crosses the wire in. A
// node histogram built deferred — a touched bitset plus the zero mass every
// untouched position is owed, see histogram.Histogram — travels in touched
// space; a materialised one travels with every position touched and its node
// totals as the mass. Each server's shard is two VecDeferred vectors. The G
// vector is
//
//	tag u8 | width u8 | positions u32 | touched set |
//	mass | maxAbs f64 | count u32 | [present u32 | presence ⌈count/8⌉ bytes] |
//	data
//
// and the H vector
//
//	tag u8 | width u8 | mass | maxAbs f64 | count u32 | data
//
// positions is the shard's sampled-position count. The touched set names the
// server's touched positions in one of two forms: a bitmap of ⌈positions/8⌉
// bytes, bit q (little-endian) for position q, or, when the G vector's width
// byte carries gapsFlag, a gap list
//
//	count uvarint | gap uvarint × count
//
// of the touched positions in ascending order, each gap measured from the
// position before it and the first from −1, so no gap is 0. The writer sends
// the gap list exactly when it is smaller than the bitmap. mass is float32 on
// the raw float32 wire and float64 otherwise. The G vector's count is the
// number of buckets of the touched positions. A touched bucket is present
// unless its G and its H are both +0, bit for bit, so a −0 is present. When
// the G vector's width byte carries presentFlag, present and a presence
// bitmap follow — bit k, little-endian, for touched bucket k, position by
// position — and only the present buckets have values on the wire; without
// it every touched bucket has. The H vector's count is the number of values
// each vector carries, and data holds them at the width: IEEE floats for the
// raw widths, fixed point scaled by maxAbs otherwise (maxAbs is 0 on raw
// widths). The writer sets presentFlag exactly when the bitmap costs less
// than the values it leaves out, so a push never grows. The bucket runs
// follow from the touched set and the receiver's shard layout, so they never
// cross the wire; the receiver walks the touched set and the presence bits.

// presentFlag marks, in the G vector's width byte, a push that sends only its
// present buckets, behind their bitmap; gapsFlag one that sends its touched
// set as gaps. No width has either bit set (RawFloat64 is 0x40).
const (
	presentFlag = 0x80
	gapsFlag    = 0x20
)

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

// wireMass is a deferred mass as a width carries it: narrowed to float32 on
// the raw float32 wire, verbatim otherwise.
func wireMass(mass float64, width uint) float64 {
	if width == compress.RawFloat32 {
		return float64(float32(mass))
	}
	return mass
}

// sendsGaps reports whether a deferred push sends the touched set ts of npos
// positions as gaps: whenever they are smaller than the bitmap.
func sendsGaps(ts *touchedShard, npos int) bool { return ts.gaps < (npos+7)/8 }

// presenceSize is what a deferred push spends past its headers when it sends
// its present buckets behind their bitmap: the present count, the bitmap and
// both vectors' values.
func presenceSize(count, present int, width uint) int {
	return 4 + (count+7)/8 + 2*compress.SpanDataSize(present, width)
}

// sendsPresence reports whether a deferred push of count touched buckets,
// present of them present, sends the presence bitmap.
func sendsPresence(count, present int, width uint) bool {
	return presenceSize(count, present, width) < 2*compress.SpanDataSize(count, width)
}

// writeDeferredShard appends server shard ts of a deferred histogram as its G
// and H vectors: the masses, and the touched buckets' values, gParts and
// hParts. Both scales are taken before either vector is quantised, and the
// G vector's rounding decisions are drawn before the H vector's.
func writeDeferredShard(w *wire.Writer, enc *compress.Encoder, width uint, ts *touchedShard, npos int, massG, massH float64, gParts, hParts [][]float64) error {
	if !validSpanWidth(width) {
		return fmt.Errorf("%w: %d", compress.ErrBadWidth, width)
	}
	var maxG, maxH float64
	if width != compress.RawFloat32 && width != compress.RawFloat64 {
		var finG, finH bool
		maxG, finG = compress.MaxAbs(gParts...)
		maxH, finH = compress.MaxAbs(hParts...)
		if !finG || !finH {
			return compress.ErrNonFinite
		}
	}
	presence, gaps := sendsPresence(ts.buckets, ts.present, width), sendsGaps(ts, npos)
	sent, flags := ts.buckets, uint8(0)
	if presence {
		sent, flags = ts.present, presentFlag
	}
	if gaps {
		flags |= gapsFlag
	}
	start := w.Len()
	w.Uint8(VecDeferred)
	w.Uint8(uint8(width) | flags)
	w.Uint32(uint32(npos))
	if gaps {
		w.Uvarint(uint64(ts.positions))
		prev := -1
		for i, set := range ts.touched {
			for ; set != 0; set &= set - 1 {
				q := i<<6 + bits.TrailingZeros64(set)
				w.Uvarint(uint64(q - prev))
				prev = q
			}
		}
	} else {
		b := w.Extend((npos + 7) / 8)
		for i := range b {
			b[i] = byte(ts.touched[i>>3] >> (8 * (i & 7)))
		}
	}
	putMass(w, width, massG)
	w.Float64(maxG)
	w.Uint32(uint32(ts.buckets))
	if presence {
		w.Uint32(uint32(ts.present))
		w.Raw(ts.presence)
	}
	packDeferred(w, enc, width, maxG, presence, ts, sent, gParts)
	w.Uint8(VecDeferred)
	w.Uint8(uint8(width))
	putMass(w, width, massH)
	w.Float64(maxH)
	w.Uint32(uint32(sent))
	packDeferred(w, enc, width, maxH, presence, ts, sent, hParts)
	vectorBytes(dirEncode, int64(w.Len()-start))
	return nil
}

// putMass appends a deferred mass as a width carries it.
func putMass(w *wire.Writer, width uint, mass float64) {
	if width == compress.RawFloat32 {
		w.Float32(float32(mass))
	} else {
		w.Float64(mass)
	}
}

// packDeferred appends one vector's sent values: the present buckets' when
// the push sends presence, every touched bucket's otherwise.
func packDeferred(w *wire.Writer, enc *compress.Encoder, width uint, maxAbs float64, presence bool, ts *touchedShard, sent int, parts [][]float64) {
	data := w.Extend(compress.SpanDataSize(sent, width))
	if presence {
		enc.PackPresent(data, width, maxAbs, ts.presence, parts...)
	} else {
		enc.PackSpans(data, width, maxAbs, parts...)
	}
}

// deferredShard is a parsed deferred push: its touched set, its presence
// bitmap and both vectors, every header field checked against the receiver's
// shard layout and the data aliased from the message, so it can no longer
// fail to merge.
type deferredShard struct {
	touched  []uint64
	presence []byte // nil when every touched bucket was sent
	sent     int    // values each vector carries
	g, h     deferredVector
}

// quantized reports whether the shard's buckets travelled in fixed point.
func (d *deferredShard) quantized() bool {
	return d.g.width != compress.RawFloat32 && d.g.width != compress.RawFloat64
}

// deferredVector is one parsed deferred vector: the mass, and the values
// sent at their width.
type deferredVector struct {
	width  uint
	mass   float64
	maxAbs float64
	data   []byte
	size   int // bytes on the wire, tag included
}

// parseDeferredShard consumes the two vectors of a deferred shard push under
// the receiver's shard layout. Hostile or stale-layout payloads yield typed
// errors, never panics; so does a push leading with any tag but VecDeferred.
func parseDeferredShard(r *wire.Reader, layout *histogram.Layout) (*deferredShard, error) {
	start := r.Remaining()
	if tag := r.Uint8(); tag != VecDeferred {
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: a pushed shard tagged %d", compress.ErrBadHeader, tag)
	}
	flags := r.Uint8()
	npos := int(r.Uint32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if want := layout.NumFeatures(); npos != want {
		return nil, &ShapeError{What: "pushed touched set", Got: npos, Want: want}
	}
	d := &deferredShard{touched: make([]uint64, (npos+63)/64)}
	var err error
	if flags&gapsFlag != 0 {
		err = d.parseGaps(r, npos)
	} else {
		err = d.parseBitmap(r, npos)
	}
	if err != nil {
		return nil, err
	}
	count := touchedBuckets(layout, d.touched)
	if d.g, err = parseDeferredHeader(r, "pushed g shard", uint(flags&^(presentFlag|gapsFlag))); err != nil {
		return nil, err
	}
	if err := readCount(r, "pushed g shard touched buckets", count); err != nil {
		return nil, err
	}
	sent := count
	if flags&presentFlag != 0 {
		if sent, err = d.parsePresence(r, count); err != nil {
			return nil, err
		}
	}
	if d.g.data = r.Raw(compress.SpanDataSize(sent, d.g.width)); r.Err() != nil {
		return nil, r.Err()
	}
	d.g.size = start - r.Remaining()

	start = r.Remaining()
	if tag := r.Uint8(); tag != VecDeferred {
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: deferred g shard followed by a vector tagged %d", compress.ErrBadHeader, tag)
	}
	if d.h, err = parseDeferredHeader(r, "pushed h shard", uint(r.Uint8())); err != nil {
		return nil, err
	}
	if err := readCount(r, "pushed h shard values", sent); err != nil {
		return nil, err
	}
	if d.h.data = r.Raw(compress.SpanDataSize(sent, d.h.width)); r.Err() != nil {
		return nil, r.Err()
	}
	d.h.size = start - r.Remaining()
	d.sent = sent
	return d, nil
}

// parseBitmap consumes a touched set sent as a bitmap of npos positions: no
// bit past them.
func (d *deferredShard) parseBitmap(r *wire.Reader, npos int) error {
	raw := r.Raw((npos + 7) / 8)
	if err := r.Err(); err != nil {
		return err
	}
	if rest := npos & 7; rest != 0 && raw[len(raw)-1]>>rest != 0 {
		return fmt.Errorf("%w: a bit past position %d", ErrTouchedOutsideShard, npos-1)
	}
	for i, b := range raw {
		d.touched[i>>3] |= uint64(b) << (8 * (i & 7))
	}
	return nil
}

// parseGaps consumes a touched set sent as gaps over npos positions: a count
// no larger than the positions or the bytes left (a gap takes at least one),
// and gaps that are not 0 and reach no position past the last.
func (d *deferredShard) parseGaps(r *wire.Reader, npos int) error {
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return err
	}
	if n > uint64(npos) {
		return fmt.Errorf("%w: %d touched positions in a shard of %d", ErrTouchedOutsideShard, n, npos)
	}
	if n > uint64(r.Remaining()) {
		return fmt.Errorf("%w: %d touched positions in %d bytes", wire.ErrTruncated, n, r.Remaining())
	}
	prev := -1
	for ; n > 0; n-- {
		gap := r.Uvarint()
		if err := r.Err(); err != nil {
			return err
		}
		if gap == 0 {
			return fmt.Errorf("%w: touched position %d repeated", compress.ErrBadHeader, prev)
		}
		if gap >= uint64(npos-prev) {
			return fmt.Errorf("%w: position %d + %d", ErrTouchedOutsideShard, prev, gap)
		}
		prev += int(gap)
		d.touched[prev>>6] |= 1 << (prev & 63)
	}
	return nil
}

// parseDeferredHeader consumes a deferred vector's mass and scale, after its
// width byte (and, for the G vector, its touched set). The width must be a
// span width, the mass finite and the scale finite and non-negative.
func parseDeferredHeader(r *wire.Reader, what string, width uint) (deferredVector, error) {
	v := deferredVector{width: width}
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
	v.maxAbs = r.Float64()
	if err := r.Err(); err != nil {
		return v, err
	}
	if !finite(v.mass) {
		return v, fmt.Errorf("%w: %s deferred mass %v", compress.ErrBadHeader, what, v.mass)
	}
	if !finite(v.maxAbs) || v.maxAbs < 0 {
		return v, fmt.Errorf("%w: %s scale %v", compress.ErrBadHeader, what, v.maxAbs)
	}
	return v, nil
}

// readCount consumes a u32 count that must be want.
func readCount(r *wire.Reader, what string, want int) error {
	got := int(r.Uint32())
	if err := r.Err(); err != nil {
		return err
	}
	if got != want {
		return &ShapeError{What: what, Got: got, Want: want}
	}
	return nil
}

// parsePresence consumes the present count and the presence bitmap of count
// touched buckets: no bit past them, and as many set as the count says,
// which it returns.
func (d *deferredShard) parsePresence(r *wire.Reader, count int) (int, error) {
	present := int(r.Uint32())
	d.presence = r.Raw((count + 7) / 8)
	if err := r.Err(); err != nil {
		return 0, err
	}
	if rest := count & 7; rest != 0 && d.presence[len(d.presence)-1]>>rest != 0 {
		return 0, fmt.Errorf("%w: a presence bit past touched bucket %d", compress.ErrBadHeader, count-1)
	}
	set := 0
	for _, b := range d.presence {
		set += bits.OnesCount8(b)
	}
	if present != set {
		return 0, &ShapeError{What: "pushed g shard present buckets", Got: present, Want: set}
	}
	return present, nil
}

// touchedBuckets returns the bucket count of a touched set's positions under
// a layout.
func touchedBuckets(layout *histogram.Layout, touched []uint64) int {
	count := 0
	offs := layout.Offsets
	for w, set := range touched {
		for ; set != 0; set &= set - 1 {
			p := w<<6 + bits.TrailingZeros64(set)
			count += int(offs[p+1] - offs[p])
		}
	}
	return count
}

// fill writes the shard into a zeroed histogram of the receiver's layout,
// leaving it deferred: the masses, and every sent bucket's values where its
// touched position lies. Absent buckets stay +0. Each vector's values are
// decoded in one pass into scratch, then the touched set and the presence
// bits are walked once, branch-free, to place them.
func (d *deferredShard) fill(h *histogram.Histogram) {
	h.SetDeferred(d.touched, d.g.mass, d.h.mass)
	sent := d.sent
	sp := valueScratch.Get().(*[]float64)
	defer valueScratch.Put(sp)
	if cap(*sp) < 2*sent+2 {
		*sp = make([]float64, 2*sent+2)
	}
	// One slot past each vector's values: an absent bucket after the last
	// present one reads it, and stores it masked to +0.
	gv, hv := (*sp)[:sent+1], (*sp)[sent+1:2*sent+2]
	compress.UnpackSpan(gv[:sent], d.g.data, d.g.width, d.g.maxAbs)
	compress.UnpackSpan(hv[:sent], d.h.data, d.h.width, d.h.maxAbs)
	offs := h.Layout.Offsets
	k, at := 0, 0 // touched buckets walked, values stored
	for w, set := range d.touched {
		for ; set != 0; set &= set - 1 {
			p := w<<6 + bits.TrailingZeros64(set)
			lo, hi := int(offs[p]), int(offs[p+1])
			if d.presence == nil {
				copy(h.G[lo:hi], gv[at:])
				copy(h.H[lo:hi], hv[at:])
				at += hi - lo
				continue
			}
			for b := lo; b < hi; b, k = b+1, k+1 {
				bit := uint64(d.presence[k>>3]>>(k&7)) & 1
				mask := -bit // every bit of a present bucket's value, none of an absent one's
				h.G[b] = math.Float64frombits(math.Float64bits(gv[at]) & mask)
				h.H[b] = math.Float64frombits(math.Float64bits(hv[at]) & mask)
				at += int(bit)
			}
		}
	}
	vectorBytes(dirDecode, int64(d.g.size+d.h.size))
}

// valueScratch holds the decoded values fill places, one slice per
// concurrent push.
var valueScratch = sync.Pool{New: func() any { return new([]float64) }}
