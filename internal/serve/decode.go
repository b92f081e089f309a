package serve

import (
	"math"
	"strconv"
	"unsafe"
)

// decodePredict decodes a JSON /predict body in one pass over its bytes into
// req, whose instances must have been reset (predictBuf.resetReq). It
// accepts exactly one shape:
//
//	{"instances":[{"indices":[…],"values":[…]},…]}
//
// with JSON whitespace anywhere, the two instance keys in either order and
// each optional, integer indices within int32, and values that
// strconv.ParseFloat(s, 32) accepts — the call encoding/json makes for a
// float32 field — decoded to ParseFloat's bits. Anything else —
// another key, a case variant or escape in a key, a repeated key, null, a
// fraction or exponent in an index, an out-of-range number, a syntax error,
// truncation, trailing non-whitespace — makes it report false, leaving req
// partly written; the caller then resets req and decodes the same bytes with
// encoding/json, so the accepted set, the statuses and the error texts are
// encoding/json's. It writes no error of its own.
func decodePredict(body []byte, req *predictRequest) bool {
	s := scanner{b: body}
	if !s.consume('{') {
		return false
	}
	if !s.consume('}') {
		if string(s.key()) != "instances" || !s.instances(req) || !s.consume('}') {
			return false
		}
	}
	s.ws()
	return s.i == len(s.b)
}

// scanner is a read position in a JSON body.
type scanner struct {
	b []byte
	i int
}

// ws skips JSON whitespace. Every whitespace byte is at most ' ', so any
// other byte ends it on one comparison.
func (s *scanner) ws() {
	for s.i < len(s.b) && s.b[s.i] <= ' ' {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was there.
func (s *scanner) consume(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// key reads an object key and its colon and returns the bytes between the
// quotes as they stand, or nil. An escaped key comes back with its
// backslash, so it matches none of the schema's names.
func (s *scanner) key() []byte {
	if !s.consume('"') {
		return nil
	}
	start := s.i
	for s.i < len(s.b) && s.b[s.i] != '"' {
		s.i++
	}
	if s.i == len(s.b) {
		return nil
	}
	k := s.b[start:s.i]
	s.i++
	if !s.consume(':') {
		return nil
	}
	return k
}

// instances reads the instances array, reusing the capacity resetReq left
// in req.Instances and in each element's slices.
func (s *scanner) instances(req *predictRequest) bool {
	if !s.consume('[') {
		return false
	}
	if s.consume(']') {
		return true
	}
	for {
		if n := len(req.Instances); n < cap(req.Instances) {
			req.Instances = req.Instances[:n+1]
		} else {
			req.Instances = append(req.Instances, jsonInstance{})
		}
		if !s.instance(&req.Instances[len(req.Instances)-1]) {
			return false
		}
		if s.consume(']') {
			return true
		}
		if !s.consume(',') {
			return false
		}
	}
}

// instance reads one {"indices":[…],"values":[…]} object into ji.
func (s *scanner) instance(ji *jsonInstance) bool {
	ji.Indices, ji.Values = ji.Indices[:0], ji.Values[:0]
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		return true
	}
	var haveIndices, haveValues bool
	for {
		ok := false
		switch string(s.key()) {
		case "indices":
			if !haveIndices {
				haveIndices = true
				ji.Indices, ok = s.int32s(ji.Indices)
			}
		case "values":
			if !haveValues {
				haveValues = true
				ji.Values, ok = s.float32s(ji.Values)
			}
		}
		if !ok {
			return false
		}
		if s.consume('}') {
			return true
		}
		if !s.consume(',') {
			return false
		}
	}
}

// open reads the '[' of an array, reporting whether it was there and whether
// the array is empty, its ']' read too.
func (s *scanner) open() (ok, empty bool) {
	ok = s.consume('[')
	return ok, ok && s.consume(']')
}

// next reads the separator after an array element and the whitespace after
// it: ok is false on anything but ',' or ']', and more is true after ','.
func (s *scanner) next() (ok, more bool) {
	s.ws()
	if s.i == len(s.b) {
		return false, false
	}
	c := s.b[s.i]
	s.i++
	if c == ',' {
		s.ws()
		return true, true
	}
	return c == ']', false
}

// int32s appends the elements of a JSON array of int32 integers to dst.
// It and float32s call their element reader directly: through a func value
// the scanner would escape, one allocation per body.
func (s *scanner) int32s(dst []int32) ([]int32, bool) {
	ok, empty := s.open()
	if !ok || empty {
		return dst, ok
	}
	for {
		v, ok := s.int32()
		if !ok {
			return dst, false
		}
		dst = append(dst, v)
		if ok, more := s.next(); !more {
			return dst, ok
		}
	}
}

// float32s appends the elements of a JSON array of numbers to dst.
func (s *scanner) float32s(dst []float32) ([]float32, bool) {
	ok, empty := s.open()
	if !ok || empty {
		return dst, ok
	}
	for {
		v, ok := s.float32()
		if !ok {
			return dst, false
		}
		dst = append(dst, v)
		if ok, more := s.next(); !more {
			return dst, ok
		}
	}
}

// int32 reads a JSON integer in int32 range: an optional minus sign, then 0
// or a run of digits that starts with 1–9. A fraction, an exponent or a
// digit after a leading 0 ends the integer and then fails the separator
// check in next.
func (s *scanner) int32() (int32, bool) {
	b, i := s.b, s.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var v int64
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i]-'1' <= 8:
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if v = v*10 + int64(b[i]-'0'); v > 1<<31 {
				return 0, false
			}
		}
	default:
		return 0, false
	}
	if neg {
		v = -v
	}
	if v > 1<<31-1 {
		return 0, false
	}
	s.i = i
	return int32(v), true
}

// pow10 holds the powers of ten that are exact in a float64.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// float32 reads a number by the JSON grammar, which strconv.ParseFloat is
// looser than (it takes "inf", "0x1p3", "+1", ".5", "01"), and returns the
// float32 strconv.ParseFloat(s, 32) gives for it — what encoding/json does
// for a float32 field; a range error (a magnitude past float32) fails.
//
// While it checks the grammar it gathers the digits into m, up to 19
// significant ones (leading zeros count for none), and the fraction digits
// and the exponent part into e, so that the number is m × 10^e when no digit
// was dropped. When m < 2^53 (which also means none was: 19 digits are at
// least 10^18) and |e| ≤ 22, both m and 10^|e| are exact float64s, and one
// multiplication or division gives f, the float64 nearest the number.
// Narrowing f to float32 is then exact unless f is itself a float32
// rounding midpoint (its low 29 bits are 1<<28): a midpoint strictly between
// the number and f would be a float64 nearer the number than f, so the
// number and f round to the same float32. The range keeps the result normal
// and finite in float32 (10^-22 > 2^-126, 2^53·10^22 < MaxFloat32). m == 0
// is ±0 by the sign. Every other number — 17 or more significant digits, as
// a float64 formatter often writes, an exponent past ±22, or a midpoint —
// is parsed by ParseFloat.
func (s *scanner) float32() (float32, bool) {
	b, i := s.b, s.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var m uint64
	e := 0
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i]-'1' <= 8:
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if m < 1e18 {
				m = m*10 + uint64(b[i]-'0')
			}
		}
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		start := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if m < 1e18 {
				m = m*10 + uint64(b[i]-'0')
				e--
			}
		}
		if i == start {
			return 0, false
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		start := i
		x := 0
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if x < 1e4 {
				x = x*10 + int(b[i]-'0')
			}
		}
		if i == start {
			return 0, false
		}
		if eneg {
			x = -x
		}
		e += x
	}
	if m == 0 {
		s.i = i
		if neg {
			return math.Float32frombits(1 << 31), true
		}
		return 0, true
	}
	if m < 1<<53 && -22 <= e && e <= 22 {
		f := float64(m)
		if e < 0 {
			f /= pow10[-e]
		} else {
			f *= pow10[e]
		}
		if math.Float64bits(f)&(1<<29-1) != 1<<28 {
			if neg {
				f = -f
			}
			s.i = i
			return float32(f), true
		}
	}
	// The view aliases the body only for the call: ParseFloat copies the
	// string into any error it returns, and the body is not written meanwhile.
	f, err := strconv.ParseFloat(unsafe.String(&b[s.i], i-s.i), 32)
	if err != nil {
		return 0, false
	}
	s.i = i
	return float32(f), true
}
