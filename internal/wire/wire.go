// Package wire provides the compact binary codec used by DimBoost's RPC
// layer. Messages are hand-encoded little-endian buffers: a Writer appends
// typed fields, a Reader consumes them with a sticky error, so message
// definitions read as straight-line code without reflection (the role Netty
// codecs play in the paper's Java implementation).
//
// Gradient histograms travel as float32 ("full precision" wire format, the
// h of the paper's cost model) or as compressed fixed-point payloads from
// internal/compress.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

var (
	// ErrTruncated is returned when a Reader runs past the end of its buffer.
	ErrTruncated = errors.New("wire: truncated message")
	// ErrVarint is returned for a varint that overflows 64 bits.
	ErrVarint = errors.New("wire: varint overflows 64 bits")
)

// Writer appends binary fields to a growing buffer.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with the given capacity hint.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset empties the writer but keeps its storage, so one Writer can frame
// a stream of messages without reallocating. Slices handed out by Bytes or
// Extend earlier are overwritten by later appends.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Extend appends n zero bytes and returns them for the caller to fill in
// place — how a codec writes packed data straight into the message instead
// of through a temporary. The slice is only valid until the next append.
func (w *Writer) Extend(n int) []byte {
	start := len(w.buf)
	if n <= cap(w.buf)-start {
		w.buf = w.buf[:start+n]
		clear(w.buf[start:])
	} else {
		w.buf = append(w.buf, make([]byte, n)...)
	}
	return w.buf[start:]
}

// Len returns the current encoded size.
func (w *Writer) Len() int { return len(w.buf) }

// Uint8 appends one byte.
func (w *Writer) Uint8(v uint8) { w.buf = append(w.buf, v) }

// Uint32 appends a little-endian uint32.
func (w *Writer) Uint32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// Uint64 appends a little-endian uint64.
func (w *Writer) Uint64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// Int32 appends an int32.
func (w *Writer) Int32(v int32) { w.Uint32(uint32(v)) }

// Int64 appends an int64.
func (w *Writer) Int64(v int64) { w.Uint64(uint64(v)) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.Uint8(1)
	} else {
		w.Uint8(0)
	}
}

// Float32 appends an IEEE-754 float32.
func (w *Writer) Float32(v float32) { w.Uint32(math.Float32bits(v)) }

// Float64 appends an IEEE-754 float64.
func (w *Writer) Float64(v float64) { w.Uint64(math.Float64bits(v)) }

// Uvarint appends v as an unsigned varint (encoding/binary's format): seven
// bits a byte, UvarintLen(v) bytes.
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// UvarintLen returns the number of bytes Uvarint appends for v.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// String appends a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.Uint32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Bytes32 appends a length-prefixed byte slice.
func (w *Writer) Bytes32(b []byte) {
	w.Uint32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// Raw appends bytes verbatim, without a length prefix — for framing an
// already-encoded payload behind a header.
func (w *Writer) Raw(b []byte) {
	w.buf = append(w.buf, b...)
}

// Int32s appends a length-prefixed []int32.
func (w *Writer) Int32s(vs []int32) {
	w.Uint32(uint32(len(vs)))
	for _, v := range vs {
		w.Int32(v)
	}
}

// Uint32s appends a length-prefixed []uint32.
func (w *Writer) Uint32s(vs []uint32) {
	w.Uint32(uint32(len(vs)))
	for _, v := range vs {
		w.Uint32(v)
	}
}

// Uint64s appends a length-prefixed []uint64.
func (w *Writer) Uint64s(vs []uint64) {
	w.Uint32(uint32(len(vs)))
	for _, v := range vs {
		w.Uint64(v)
	}
}

// Float64s appends a length-prefixed []float64 at full precision.
func (w *Writer) Float64s(vs []float64) {
	w.Uint32(uint32(len(vs)))
	for _, v := range vs {
		w.Float64(v)
	}
}

// Float64sAs32 appends a length-prefixed []float64 narrowed to float32 — the
// paper's histogram wire format (4 bytes per bucket statistic).
func (w *Writer) Float64sAs32(vs []float64) {
	w.Uint32(uint32(len(vs)))
	for _, v := range vs {
		w.Float32(float32(v))
	}
}

// Reader consumes a buffer written by Writer. The first decoding error
// sticks; callers check Err once at the end.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader wraps a received buffer.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the sticky error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// Rest returns the unread remainder of the buffer without consuming it.
// The slice aliases the reader's buffer.
func (r *Reader) Rest() []byte { return r.data[r.off:] }

// Skip advances past n bytes without decoding them.
func (r *Reader) Skip(n int) {
	if r.err != nil {
		return
	}
	if n < 0 || r.off+n > len(r.data) {
		r.err = fmt.Errorf("%w: skip %d at offset %d of %d", ErrTruncated, n, r.off, len(r.data))
		return
	}
	r.off += n
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.data) {
		r.err = fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrTruncated, n, r.off, len(r.data))
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// Raw reads n bytes verbatim, the inverse of Writer.Raw. The slice aliases
// the reader's buffer; nil after an error.
func (r *Reader) Raw(n int) []byte {
	if n < 0 {
		r.Skip(n) // records the truncation error
		return nil
	}
	return r.take(n)
}

// Uint8 reads one byte.
func (r *Reader) Uint8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Uint32 reads a uint32.
func (r *Reader) Uint32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// Uint64 reads a uint64.
func (r *Reader) Uint64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int32 reads an int32.
func (r *Reader) Int32() int32 { return int32(r.Uint32()) }

// Int64 reads an int64.
func (r *Reader) Int64() int64 { return int64(r.Uint64()) }

// Bool reads a bool.
func (r *Reader) Bool() bool { return r.Uint8() != 0 }

// Float32 reads a float32.
func (r *Reader) Float32() float32 { return math.Float32frombits(r.Uint32()) }

// Float64 reads a float64.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Uvarint reads an unsigned varint. One that runs past the buffer is
// ErrTruncated, one that overflows 64 bits ErrVarint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	switch {
	case n == 0:
		r.err = fmt.Errorf("%w: varint at offset %d of %d", ErrTruncated, r.off, len(r.data))
		return 0
	case n < 0:
		r.err = fmt.Errorf("%w at offset %d", ErrVarint, r.off)
		return 0
	}
	r.off += n
	return v
}

// length reads and sanity-checks a collection length against the bytes that
// could possibly remain.
func (r *Reader) length(elemSize int) int {
	n := int(r.Uint32())
	if r.err != nil {
		return 0
	}
	if elemSize > 0 && n*elemSize > r.Remaining() {
		r.err = fmt.Errorf("%w: declared %d elements of %d bytes, %d bytes remain", ErrTruncated, n, elemSize, r.Remaining())
		return 0
	}
	return n
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.length(1)
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Bytes32 reads a length-prefixed byte slice (copied).
func (r *Reader) Bytes32() []byte {
	n := r.length(1)
	b := r.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// Int32s reads a length-prefixed []int32.
func (r *Reader) Int32s() []int32 {
	n := r.length(4)
	if r.err != nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = r.Int32()
	}
	return out
}

// Uint32s reads a length-prefixed []uint32.
func (r *Reader) Uint32s() []uint32 {
	n := r.length(4)
	if r.err != nil {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = r.Uint32()
	}
	return out
}

// Uint64s reads a length-prefixed []uint64.
func (r *Reader) Uint64s() []uint64 {
	n := r.length(8)
	if r.err != nil {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	return out
}

// Float64s reads a length-prefixed []float64.
func (r *Reader) Float64s() []float64 {
	n := r.length(8)
	if r.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Float64()
	}
	return out
}

// Float64sFrom32 reads a length-prefixed []float32 widened to []float64,
// the inverse of Float64sAs32.
func (r *Reader) Float64sFrom32() []float64 {
	n := r.length(4)
	if r.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(r.Float32())
	}
	return out
}
