package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dimboost/internal/core"
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
