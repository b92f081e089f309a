package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"dimboost/internal/core"
	"dimboost/internal/dataset"
	"dimboost/internal/obs"
)

// canonicalBody is a well-formed two-instance /predict body.
const canonicalBody = `{"instances":[{"indices":[1,5,9],"values":[0.5,1.25,-3]},{"indices":[2],"values":[7]}]}`

// testBodyLimit is the MaxBodyBytes of the handlers below, small enough that
// the fuzzer reaches it.
const testBodyLimit = 1 << 10

// predictBodyCases are the differential table and the fuzz seed corpus.
// fast says whether the one-pass decoder takes the body itself; every other
// body falls back to encoding/json.
var predictBodyCases = []struct {
	name string
	body string
	fast bool
}{
	{"canonical", canonicalBody, true},
	{"keys swapped", `{"instances":[{"values":[0.5,1.25],"indices":[5,1]}]}`, true},
	{"whitespace everywhere", " \t\n{ \"instances\" :\r[ { \"indices\" : [ 1 , 5 ] , \"values\" : [ 0.5 , 2 ] } , {\n} ] } \n", true},
	{"empty object", `{}`, true},
	{"empty instances", `{"instances":[]}`, true},
	{"empty instance", `{"instances":[{}]}`, true},
	{"missing values", `{"instances":[{"indices":[1]}]}`, true},
	{"length mismatch", `{"instances":[{"indices":[1,2],"values":[1]}]}`, true},
	{"negative index", `{"instances":[{"indices":[-1],"values":[1]}]}`, true},
	{"duplicate index", `{"instances":[{"indices":[2,2],"values":[1,1]}]}`, true},
	{"index -0", `{"instances":[{"indices":[-0],"values":[1]}]}`, true},
	{"index int32 max", `{"instances":[{"indices":[2147483647],"values":[1]}]}`, true},
	{"index int32 min", `{"instances":[{"indices":[-2147483648],"values":[1]}]}`, true},
	{"value -0", `{"instances":[{"indices":[1],"values":[-0]}]}`, true},
	{"value 1E-45", `{"instances":[{"indices":[1],"values":[1E-45]}]}`, true},
	{"value 1e-50", `{"instances":[{"indices":[1],"values":[1e-50]}]}`, true},
	{"value exponent forms", `{"instances":[{"indices":[1,2,3],"values":[1e+2,2.5E-1,0.0e0]}]}`, true},
	{"value float32 max", `{"instances":[{"indices":[1],"values":[3.4028234663852886e38]}]}`, true},
	{"trailing whitespace", canonicalBody + " \r\n\t", true},
	// Numbers the exact float32 fast path leaves to strconv.ParseFloat, and
	// numbers next to where it stops; all are taken.
	{"value on a float32 midpoint", `{"instances":[{"indices":[1,2],"values":[16777217,-16777217.0]}]}`, true},
	{"values either side of a midpoint, 16 digits", `{"instances":[{"indices":[1,2],"values":[16777217.00000001,16777216.99999999]}]}`, true},
	{"values either side of a midpoint, 17 digits", `{"instances":[{"indices":[1,2],"values":[16777217.000000001,16777216.999999999]}]}`, true},
	{"values either side of a midpoint, 18 digits", `{"instances":[{"indices":[1,2],"values":[16777217.0000000001,16777216.9999999999]}]}`, true},
	{"values whose float64 is a float32 midpoint", `{"instances":[{"indices":[1,2,3,4,5],"values":[0.8741166293621063,89.89711380004883,8.56102587931673e-06,5.315642991922757e+27,1.282265678538462e24]}]}`, true},
	{"value 19 significant digits", `{"instances":[{"indices":[1,2],"values":[1234567890123456789,0.1234567890123456789]}]}`, true},
	{"value 20 significant digits", `{"instances":[{"indices":[1,2],"values":[12345678901234567891,0.12345678901234567891]}]}`, true},
	{"value 2^53 and 2^53-1", `{"instances":[{"indices":[1,2],"values":[9007199254740992,9007199254740991]}]}`, true},
	{"value 1e22 1e23 1e-22 1e-23", `{"instances":[{"indices":[1,2,3,4],"values":[1e22,1e23,1e-22,1e-23]}]}`, true},
	{"value 25 fraction zeros", `{"instances":[{"indices":[1],"values":[0.00000000000000000000000001234]}]}`, true},
	{"value -0.0e0", `{"instances":[{"indices":[1],"values":[-0.0e0]}]}`, true},
	{"value 0e999", `{"instances":[{"indices":[1],"values":[0e999]}]}`, true},

	{"unknown key", `{"instances":[{"indices":[1],"values":[1],"weight":3}]}`, false},
	{"unknown top-level key", `{"model":"a","instances":[{"indices":[1],"values":[1]}]}`, false},
	{"case-variant key", `{"instances":[{"Indices":[1],"values":[1]}]}`, false},
	{"escape in key", `{"instances":[{"ind\u0069ces":[1],"values":[1]}]}`, false},
	{"escaped quote in key", `{"instances":[{"ind\"ices":[1],"values":[1]}]}`, false},
	{"null instances", `{"instances":null}`, false},
	{"null instance", `{"instances":[null,{"indices":[1],"values":[1]}]}`, false},
	{"null arrays", `{"instances":[{"indices":null,"values":null}]}`, false},
	{"null body", `null`, false},
	{"index 1.0", `{"instances":[{"indices":[1.0],"values":[1]}]}`, false},
	{"index 1e3", `{"instances":[{"indices":[1e3],"values":[1]}]}`, false},
	{"index 01", `{"instances":[{"indices":[01],"values":[1]}]}`, false},
	{"index 2147483648", `{"instances":[{"indices":[2147483648],"values":[1]}]}`, false},
	{"index -2147483649", `{"instances":[{"indices":[-2147483649],"values":[1]}]}`, false},
	{"index string", `{"instances":[{"indices":["1"],"values":[1]}]}`, false},
	{"value 1e40", `{"instances":[{"indices":[1],"values":[1e40]}]}`, false},
	{"value 1e999", `{"instances":[{"indices":[1],"values":[1e999]}]}`, false},
	{"value NaN", `{"instances":[{"indices":[1],"values":[NaN]}]}`, false},
	{"value +1", `{"instances":[{"indices":[1],"values":[+1]}]}`, false},
	{"value .5", `{"instances":[{"indices":[1],"values":[.5]}]}`, false},
	{"value 5.", `{"instances":[{"indices":[1],"values":[5.]}]}`, false},
	{"value 1e", `{"instances":[{"indices":[1],"values":[1e]}]}`, false},
	{"value 01.5", `{"instances":[{"indices":[1],"values":[01.5]}]}`, false},
	{"trailing comma", `{"instances":[{"indices":[1,],"values":[1]}]}`, false},
	{"trailing garbage", canonicalBody + `x`, false},
	{"second value", canonicalBody + canonicalBody, false},
	{"truncated", canonicalBody[:len(canonicalBody)-7], false},
	{"empty body", ``, false},
	{"duplicate instance key", `{"instances":[{"indices":[1],"indices":[2],"values":[1]}]}`, false},
	{"duplicate top-level key", `{"instances":[{"indices":[1],"values":[1]}],"instances":[{"values":[2]}]}`, false},
	{"top-level array", `[{"indices":[1],"values":[1]}]`, false},
	{"byte order mark", "\xef\xbb\xbf" + canonicalBody, false},
	// The one intended behaviour change: a complete value followed by enough
	// bytes to cross MaxBodyBytes was scored, and is now a 413.
	{"whitespace past MaxBodyBytes", canonicalBody + strings.Repeat(" ", testBodyLimit), true},
	{"garbage past MaxBodyBytes", canonicalBody + strings.Repeat("x", testBodyLimit), false},
}

// referencePredict is what /predict answers for a JSON body by the decoder
// it used before the one-pass one: encoding/json over the body, then the same
// validation and scoring. The one intended difference is encoded here too: a
// body over the limit is refused whole with 413, even when a complete JSON
// value ends before the limit.
func referencePredict(m *core.Model, limit int64, body []byte) (status int, errText string, scores []float64) {
	if int64(len(body)) > limit {
		return http.StatusRequestEntityTooLarge, "bad JSON: " + (&http.MaxBytesError{Limit: limit}).Error(), nil
	}
	var req predictRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return http.StatusBadRequest, "bad JSON: " + err.Error(), nil
	}
	if len(req.Instances) == 0 {
		return http.StatusBadRequest, "no instances", nil
	}
	for i, ji := range req.Instances {
		in, err := jsonToInstance(ji)
		if err != nil {
			return http.StatusBadRequest, fmt.Sprintf("instance %d: %v", i, err), nil
		}
		scores = append(scores, m.Predict(in))
	}
	return http.StatusOK, "", scores
}

// jsonToInstance is jsonToInstanceInto into fresh slices.
func jsonToInstance(ji jsonInstance) (dataset.Instance, error) {
	return jsonToInstanceInto(ji, dataset.Instance{}, &predictBuf{})
}

// checkDecodersAgree runs the one-pass decoder on body, into a request that
// already holds a previous body's instances, and reports whether it took the
// body. When it did, encoding/json must accept the same bytes and decode
// them to the same instances, bit for bit.
func checkDecodersAgree(t *testing.T, body []byte) bool {
	t.Helper()
	var b predictBuf
	decodePredict([]byte(canonicalBody), &b.req)
	b.resetReq()
	if !decodePredict(body, &b.req) {
		return false
	}
	var want predictRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&want); err != nil {
		t.Fatalf("one-pass decoder took a body encoding/json refuses (%v): %q", err, body)
	}
	if len(b.req.Instances) != len(want.Instances) {
		t.Fatalf("%d instances, encoding/json %d: %q", len(b.req.Instances), len(want.Instances), body)
	}
	for i, w := range want.Instances {
		g := b.req.Instances[i]
		if len(g.Indices) != len(w.Indices) || len(g.Values) != len(w.Values) {
			t.Fatalf("instance %d: %d/%d indices/values, encoding/json %d/%d: %q",
				i, len(g.Indices), len(g.Values), len(w.Indices), len(w.Values), body)
		}
		for k := range w.Indices {
			if g.Indices[k] != w.Indices[k] {
				t.Fatalf("instance %d index %d: %d, encoding/json %d: %q", i, k, g.Indices[k], w.Indices[k], body)
			}
		}
		for k := range w.Values {
			if math.Float32bits(g.Values[k]) != math.Float32bits(w.Values[k]) {
				t.Fatalf("instance %d value %d: %v, encoding/json %v: %q", i, k, g.Values[k], w.Values[k], body)
			}
		}
	}
	return true
}

// checkHandlerMatchesReference posts body to h and requires the status, the
// error text and the scores of referencePredict.
func checkHandlerMatchesReference(t *testing.T, h *Handler, m *core.Model, body []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	status, errText, scores := referencePredict(m, h.MaxBodyBytes, body)
	if w.Code != status {
		t.Fatalf("status %d, reference %d (%s): %q", w.Code, status, errText, body)
	}
	if status != http.StatusOK {
		var out map[string]string
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		if out["error"] != errText {
			t.Fatalf("error %q, reference %q: %q", out["error"], errText, body)
		}
		return
	}
	var out predictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Scores) != len(scores) {
		t.Fatalf("%d scores, reference %d: %q", len(out.Scores), len(scores), body)
	}
	for i := range scores {
		if math.Float64bits(out.Scores[i]) != math.Float64bits(scores[i]) {
			t.Fatalf("score %d: %v, reference %v: %q", i, out.Scores[i], scores[i], body)
		}
	}
}

// TestPredictBodyDecodersAgree is invariant 22: the one-pass decoder takes
// the bodies it is meant to, decodes each to exactly what encoding/json
// does, and through the handler every body — taken or fallen back — gets the
// status, error text and scores the encoding/json decoder gave it.
func TestPredictBodyDecodersAgree(t *testing.T) {
	m, _ := trainedModel(t)
	h := New(m)
	h.MaxBodyBytes = testBodyLimit
	for _, c := range predictBodyCases {
		t.Run(c.name, func(t *testing.T) {
			if fast := checkDecodersAgree(t, []byte(c.body)); fast != c.fast {
				t.Errorf("one-pass decoder took the body: %v, want %v", fast, c.fast)
			}
			checkHandlerMatchesReference(t, h, m, []byte(c.body))
		})
	}
}

// FuzzPredictBody holds invariant 22 on arbitrary bytes, all through one
// handler so its pooled buffers carry every earlier body's state.
func FuzzPredictBody(f *testing.F) {
	for _, c := range predictBodyCases {
		f.Add([]byte(c.body))
	}
	f.Add(spineBody(rand.New(rand.NewSource(1)), 2, 8, 60))
	m, _ := trainedModel(f)
	h := New(m)
	h.MaxBodyBytes = testBodyLimit
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodersAgree(t, body)
		checkHandlerMatchesReference(t, h, m, body)
	})
}

// jsonNumber builds a number in the JSON grammar from fuzz input: digits
// (each byte taken mod 10, at most 40) split at point into an integer part,
// its leading zeros trimmed, and a fraction after fracZeros zeros, with a
// minus sign by form bit 0 and an exponent of exp mod 401 by form bit 1,
// written e or E by bit 2 and signed none, +, - or none by bits 3-4.
func jsonNumber(digits []byte, point, fracZeros uint8, exp int16, form uint8) string {
	if len(digits) > 40 {
		digits = digits[:40]
	}
	ds := make([]byte, len(digits))
	for k, d := range digits {
		ds[k] = '0' + d%10
	}
	p := int(point) % (len(ds) + 1)
	intPart := strings.TrimLeft(string(ds[:p]), "0")
	if intPart == "" {
		intPart = "0"
	}
	var sb strings.Builder
	if form&1 != 0 {
		sb.WriteByte('-')
	}
	sb.WriteString(intPart)
	if frac := strings.Repeat("0", int(fracZeros%32)) + string(ds[p:]); frac != "" {
		sb.WriteString("." + frac)
	}
	if form&2 != 0 {
		sb.WriteString([]string{"e", "E"}[form>>2&1])
		sb.WriteString([]string{"", "+", "-", ""}[form>>3&3])
		x := int(exp) % 401
		if x < 0 {
			x = -x
		}
		sb.WriteString(strconv.Itoa(x))
	}
	return sb.String()
}

// FuzzFloat32Agrees is invariant 22 for one number: on numbers in the JSON
// grammar — long mantissas, fraction zeros, signs, exponents up to ±400 —
// scanner.float32 accepts exactly what strconv.ParseFloat(s, 32) accepts,
// with the same Float32bits, and stops at the number's end.
func FuzzFloat32Agrees(f *testing.F) {
	f.Add([]byte{1, 6, 7, 7, 7, 2, 1, 7}, uint8(8), uint8(0), int16(0), uint8(0))                            // a float32 midpoint
	f.Add([]byte{1, 6, 7, 7, 7, 2, 1, 7, 0, 0, 0, 0, 0, 0, 0, 0, 1}, uint8(8), uint8(0), int16(0), uint8(1)) // -16777217.000000001
	// Two whose float64 is a float32 midpoint the number is not on.
	f.Add([]byte{8, 7, 4, 1, 1, 6, 6, 2, 9, 3, 6, 2, 1, 0, 6, 3}, uint8(0), uint8(0), int16(0), uint8(0))
	f.Add([]byte{5, 3, 1, 5, 6, 4, 2, 9, 9, 1, 9, 2, 2, 7, 5, 7}, uint8(1), uint8(0), int16(27), uint8(2))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1}, uint8(20), uint8(0), int16(0), uint8(0))
	f.Add([]byte{1}, uint8(1), uint8(0), int16(22), uint8(2))
	f.Add([]byte{1}, uint8(1), uint8(0), int16(23), uint8(2))
	f.Add([]byte{1}, uint8(1), uint8(0), int16(22), uint8(2|2<<3))
	f.Add([]byte{1}, uint8(1), uint8(0), int16(23), uint8(2|2<<3))
	f.Add([]byte{1, 2, 3, 4}, uint8(0), uint8(25), int16(0), uint8(0))
	f.Add([]byte{0}, uint8(1), uint8(1), int16(0), uint8(1|2))
	f.Add([]byte{3, 4, 0, 2, 8, 2, 3, 5}, uint8(1), uint8(0), int16(38), uint8(2|4))
	f.Add([]byte{1, 4}, uint8(1), uint8(0), int16(45), uint8(2|2<<3))
	f.Fuzz(func(t *testing.T, digits []byte, point, fracZeros uint8, exp int16, form uint8) {
		num := jsonNumber(digits, point, fracZeros, exp, form)
		s := scanner{b: []byte(num + ",")}
		got, ok := s.float32()
		want, err := strconv.ParseFloat(num, 32)
		if ok != (err == nil) {
			t.Fatalf("%s: scanner accepts %v, strconv.ParseFloat error %v", num, ok, err)
		}
		if !ok {
			return
		}
		if math.Float32bits(got) != math.Float32bits(float32(want)) {
			t.Fatalf("%s: scanner %v (%#08x), strconv.ParseFloat %v (%#08x)",
				num, got, math.Float32bits(got), float32(want), math.Float32bits(float32(want)))
		}
		if s.i != len(num) {
			t.Fatalf("%s: scanner stopped at %d of %d bytes", num, s.i, len(num))
		}
	})
}

// TestLibSVMThenJSONScoresExactly: a JSON request served after a LibSVM one
// scores exactly. The LibSVM rows used to be left in the pooled instance
// slots, each with capacity to the end of the parsed dataset's arrays, and
// the next JSON request's instances overwrote one another through them.
func TestLibSVMThenJSONScoresExactly(t *testing.T) {
	m, d := trainedModel(t)
	h := New(m)
	req := httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(strings.Repeat("1 1:0.5\n", 40)))
	req.Header.Set("Content-Type", "text/libsvm")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("LibSVM request: status %d", w.Code)
	}

	var pr predictRequest
	for i := 0; i < 8; i++ {
		in := d.Row(i)
		pr.Instances = append(pr.Instances, jsonInstance{Indices: in.Indices, Values: in.Values})
	}
	body, err := json.Marshal(pr)
	if err != nil {
		t.Fatal(err)
	}
	checkHandlerMatchesReference(t, h, m, body)
}

// TestPoolDropsGrownBuffers: a buf grown past maxPooledBytes by a large body
// is not handed out again, whether it is returned directly or by the handler.
func TestPoolDropsGrownBuffers(t *testing.T) {
	big := spineBody(rand.New(rand.NewSource(3)), 32, 5000, 100_000)
	grown := new(predictBuf)
	grown.body.Write(big)
	if _, err := grown.decodeJSON(); err != nil {
		t.Fatal(err)
	}
	if grown.retained() <= maxPooledBytes {
		t.Fatalf("a %d-byte body keeps %d bytes, not past the %d bound", len(big), grown.retained(), maxPooledBytes)
	}
	putPredictBuf(grown)
	for i := 0; i < 4; i++ {
		if b := predictBufPool.Get().(*predictBuf); b == grown {
			t.Fatal("the pool handed out a buf grown past maxPooledBytes")
		}
	}

	m, _ := trainedModel(t)
	h := New(m)
	req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(big))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if b := predictBufPool.Get().(*predictBuf); b.retained() > maxPooledBytes {
		t.Fatalf("after a %d-byte request the pool holds a buf keeping %d bytes", len(big), b.retained())
	}
}

// maxHandlerAllocs bounds a steady-state JSON /predict through ServeHTTP and
// a recorder; the recorder, the response encoder and the request metrics
// account for most of it.
const maxHandlerAllocs = 32

// TestPredictHandlerAllocsIndependentOfNNZ: once the pools are warm, a JSON
// request allocates a small constant number of objects whatever the number
// of nonzeros — nothing per number, and no buffer regrown per request.
func TestPredictHandlerAllocsIndependentOfNNZ(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	m, _ := trainedModel(t)
	h := New(m)
	allocs := func(nnz int) float64 {
		body := spineBody(rand.New(rand.NewSource(1)), 16, nnz, 33_000)
		req := httptest.NewRequest(http.MethodPost, "/predict", nil)
		req.Header.Set("Content-Type", "application/json")
		reader := bytes.NewReader(body)
		serve := func() {
			reader.Reset(body)
			req.Body = readCloser{reader}
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				t.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
		}
		serve()
		return testing.AllocsPerRun(50, serve)
	}
	small, large := allocs(10), allocs(1000)
	t.Logf("allocations per request: %.0f at 16 × 10 nonzeros, %.0f at 16 × 1000", small, large)
	if large > small {
		t.Errorf("16 × 1000 nonzeros: %.0f allocations per request, 16 × 10: %.0f", large, small)
	}
	if small > maxHandlerAllocs {
		t.Errorf("%.0f allocations per request, want at most %d", small, maxHandlerAllocs)
	}
}

// TestStageHistogramOneSamplePerStage: a JSON request records one sample in
// each stage of dimboost_serve_stage_seconds, and the scrape stays valid.
func TestStageHistogramOneSamplePerStage(t *testing.T) {
	m, _ := trainedModel(t)
	h := New(m)
	count := func(stage string) uint64 {
		return obs.Default().Histogram("dimboost_serve_stage_seconds", "", nil, obs.L("stage", stage)).Count()
	}
	var before [numStages]uint64
	for i, name := range stageNames {
		before[i] = count(name)
	}
	req := httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(canonicalBody))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	for i, name := range stageNames {
		if got := count(name) - before[i]; got != 1 {
			t.Errorf("stage %s: %d samples for one request, want 1", name, got)
		}
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if err := obs.ValidateExposition(bytes.NewReader(w.Body.Bytes())); err != nil {
		t.Fatalf("exposition: %v", err)
	}
	for _, name := range stageNames {
		if want := `dimboost_serve_stage_seconds_count{stage="` + name + `"}`; !strings.Contains(w.Body.String(), want) {
			t.Errorf("scrape has no %s", want)
		}
	}
}
