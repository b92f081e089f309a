package serve

import (
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
// float32 field, so the bits are the same by construction. Anything else —
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

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) {
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
				ji.Indices, ok = readArray(s, ji.Indices, (*scanner).int32)
			}
		case "values":
			if !haveValues {
				haveValues = true
				ji.Values, ok = readArray(s, ji.Values, (*scanner).float32)
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

// readArray appends the elements of a JSON array of numbers to dst.
func readArray[T int32 | float32](s *scanner, dst []T, elem func(*scanner) (T, bool)) ([]T, bool) {
	if !s.consume('[') {
		return dst, false
	}
	if s.consume(']') {
		return dst, true
	}
	for {
		s.ws()
		v, ok := elem(s)
		if !ok {
			return dst, false
		}
		dst = append(dst, v)
		if s.consume(']') {
			return dst, true
		}
		if !s.consume(',') {
			return dst, false
		}
	}
}

// int32 reads a JSON integer in int32 range: an optional minus sign and
// digits without a leading zero. A fraction or exponent ends the digits and
// then fails readArray's separator check.
func (s *scanner) int32() (int32, bool) {
	b, i := s.b, s.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var v int64
	for i < len(b) && b[i]-'0' <= 9 {
		v = v*10 + int64(b[i]-'0')
		if v > 1<<31 {
			return 0, false
		}
		i++
	}
	if i == start || (i-start > 1 && b[start] == '0') {
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

// float32 checks the JSON number grammar, which strconv.ParseFloat is looser
// than (it takes "inf", "0x1p3", "+1", ".5", "01"), and then parses the
// number exactly as encoding/json does for a float32 field; a range error
// (a magnitude past float32) fails.
func (s *scanner) float32() (float32, bool) {
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i]-'1' <= 8:
		i = digits(b, i+1)
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return 0, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return 0, false
		}
		i = j
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

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && b[i]-'0' <= 9 {
		i++
	}
	return i
}
