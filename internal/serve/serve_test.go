package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dimboost/internal/core"
	"dimboost/internal/dataset"
	"dimboost/internal/loss"
	"dimboost/internal/obs"
)

func trainedModel(t testing.TB) (*core.Model, *dataset.Dataset) {
	t.Helper()
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 400, NumFeatures: 60, AvgNNZ: 8, Seed: 5, Zipf: 1.2})
	cfg := core.DefaultConfig()
	cfg.NumTrees = 4
	cfg.MaxDepth = 4
	cfg.Parallelism = 1
	m, err := core.Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, d
}

func TestHealthz(t *testing.T) {
	m, _ := trainedModel(t)
	srv := httptest.NewServer(New(m))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestModelInfo(t *testing.T) {
	m, _ := trainedModel(t)
	srv := httptest.NewServer(New(m))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/model")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info struct {
		Loss  string `json:"loss"`
		Trees int    `json:"trees"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Loss != "logistic" || info.Trees != 4 {
		t.Fatalf("info %+v", info)
	}
}

func TestImportanceEndpoint(t *testing.T) {
	m, _ := trainedModel(t)
	srv := httptest.NewServer(New(m))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/importance?top=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []struct {
		Gain float64 `json:"gain"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 || len(out) > 3 {
		t.Fatalf("%d entries", len(out))
	}
	// bad top parameter
	resp2, _ := http.Get(srv.URL + "/importance?top=zero")
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad top: status %d", resp2.StatusCode)
	}
}

func TestPredictJSON(t *testing.T) {
	m, d := trainedModel(t)
	srv := httptest.NewServer(New(m))
	defer srv.Close()

	// take two real rows and submit them with unsorted indices
	var req predictRequest
	want := make([]float64, 0, 2)
	for i := 0; i < 2; i++ {
		in := d.Row(i)
		ji := jsonInstance{}
		// reverse order to exercise server-side sorting
		for j := len(in.Indices) - 1; j >= 0; j-- {
			ji.Indices = append(ji.Indices, in.Indices[j])
			ji.Values = append(ji.Values, in.Values[j])
		}
		req.Instances = append(req.Instances, ji)
		want = append(want, m.Predict(in))
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out predictResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Scores) != 2 || len(out.Probabilities) != 2 {
		t.Fatalf("response %+v", out)
	}
	for i := range want {
		if math.Abs(out.Scores[i]-want[i]) > 1e-12 {
			t.Fatalf("score %d: %v want %v", i, out.Scores[i], want[i])
		}
		if p := out.Probabilities[i]; math.Abs(p-loss.Sigmoid(want[i])) > 1e-12 {
			t.Fatalf("probability %d: %v", i, p)
		}
	}
}

func TestPredictLibSVM(t *testing.T) {
	m, d := trainedModel(t)
	srv := httptest.NewServer(New(m))
	defer srv.Close()

	var buf bytes.Buffer
	sub := d.Subset(0, 3)
	if err := dataset.WriteLibSVM(&buf, sub); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/predict", "text/libsvm", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out predictResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Scores) != 3 {
		t.Fatalf("%d scores", len(out.Scores))
	}
	for i := 0; i < 3; i++ {
		if math.Abs(out.Scores[i]-m.Predict(sub.Row(i))) > 1e-6 {
			t.Fatalf("score %d mismatch", i)
		}
	}
}

func TestPredictErrors(t *testing.T) {
	m, _ := trainedModel(t)
	srv := httptest.NewServer(New(m))
	defer srv.Close()

	cases := []struct {
		ct     string
		body   string
		status int
	}{
		{"application/json", "{not json", http.StatusBadRequest},
		{"application/json", `{"instances":[]}`, http.StatusBadRequest},
		{"application/json", `{"instances":[{"indices":[1,2],"values":[1]}]}`, http.StatusBadRequest},
		{"application/json", `{"instances":[{"indices":[-1],"values":[1]}]}`, http.StatusBadRequest},
		{"application/json", `{"instances":[{"indices":[2,2],"values":[1,1]}]}`, http.StatusBadRequest},
		{"text/libsvm", "1 notapair\n", http.StatusBadRequest},
		{"application/xml", "<nope/>", http.StatusUnsupportedMediaType},
	}
	for i, c := range cases {
		resp, err := http.Post(srv.URL+"/predict", c.ct, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Fatalf("case %d: status %d, want %d", i, resp.StatusCode, c.status)
		}
	}
	// wrong method
	resp, _ := http.Get(srv.URL + "/predict")
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("GET /predict should fail")
	}
}

func TestBodyLimit(t *testing.T) {
	m, _ := trainedModel(t)
	h := New(m)
	h.MaxBodyBytes = 64
	srv := httptest.NewServer(h)
	defer srv.Close()
	big := `{"instances":[{"indices":[1],"values":[1.0]},{"indices":[2],"values":[2.0]}]}`
	resp, err := http.Post(srv.URL+"/predict", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d", resp.StatusCode)
	}
	// the LibSVM path classifies the same way
	var svm bytes.Buffer
	for i := 0; i < 20; i++ {
		svm.WriteString("1 1:0.5 2:0.25 3:0.125\n")
	}
	resp2, err := http.Post(srv.URL+"/predict", "text/libsvm", &svm)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized LibSVM body: status %d", resp2.StatusCode)
	}
}

// TestConcurrentSwap hammers /predict while hot-swapping the model; run
// under -race this proves the swap path is data-race free, and every
// response must score with one coherent model.
func TestConcurrentSwap(t *testing.T) {
	m1, d := trainedModel(t)
	m2 := &core.Model{Loss: m1.Loss, BaseScore: m1.BaseScore, Trees: m1.Trees[:1]}
	h := New(m1)
	srv := httptest.NewServer(h)
	defer srv.Close()

	in := d.Row(0)
	want1, want2 := m1.Predict(in), m2.Predict(in)
	body, _ := json.Marshal(predictRequest{Instances: []jsonInstance{{Indices: in.Indices, Values: in.Values}}})

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if i%2 == 0 {
				h.Swap(m2)
			} else {
				h.Swap(m1)
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				resp, err := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var out predictResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				got := out.Scores[0]
				if math.Abs(got-want1) > 1e-12 && math.Abs(got-want2) > 1e-12 {
					errs <- fmt.Errorf("score %v matches neither model (%v / %v)", got, want1, want2)
					return
				}
			}
		}()
	}
	wg.Wait()
	<-done
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	m, _ := trainedModel(t)
	srv := httptest.NewServer(New(m))
	defer srv.Close()

	// generate some traffic first so the scrape carries request series
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(bytes.NewReader(raw)); err != nil {
		t.Fatalf("exposition: %v\n%s", err, raw)
	}
	for _, want := range []string{"dimboost_http_requests_total", "dimboost_serve_model_trees"} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("scrape missing %s", want)
		}
	}

	var dbg struct {
		Metrics []json.RawMessage `json:"metrics"`
	}
	resp, err = http.Get(srv.URL + "/debug/obs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&dbg); err != nil {
		t.Fatal(err)
	}
	if len(dbg.Metrics) == 0 {
		t.Fatal("debug snapshot has no metrics")
	}
}

func TestReload(t *testing.T) {
	m1, _ := trainedModel(t)
	h := New(m1)
	srv := httptest.NewServer(h)
	defer srv.Close()

	// not enabled
	resp, err := http.Post(srv.URL+"/model/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("reload without hook: status %d", resp.StatusCode)
	}

	m2 := &core.Model{Loss: m1.Loss, Trees: m1.Trees[:1]}
	h.OnReload = func() (*core.Model, error) { return m2, nil }
	resp, err = http.Post(srv.URL+"/model/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]int
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || out["trees"] != 1 {
		t.Fatalf("reload: status %d, body %v", resp.StatusCode, out)
	}

	h.OnReload = func() (*core.Model, error) { return nil, fmt.Errorf("corrupt file") }
	resp, err = http.Post(srv.URL+"/model/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failed reload: status %d", resp.StatusCode)
	}
	// the failed reload must not disturb the served model
	infoResp, err := http.Get(srv.URL + "/model")
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		Trees int `json:"trees"`
	}
	err = json.NewDecoder(infoResp.Body).Decode(&info)
	infoResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if info.Trees != 1 {
		t.Fatalf("after failed reload: %d trees, want 1", info.Trees)
	}
}

func TestDrainingHealthz(t *testing.T) {
	m, _ := trainedModel(t)
	h := New(m)
	srv := httptest.NewServer(h)
	defer srv.Close()

	h.SetDraining(true)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: status %d", resp.StatusCode)
	}
	// other endpoints keep working while draining
	resp, err = http.Get(srv.URL + "/model")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining /model: status %d", resp.StatusCode)
	}
	h.SetDraining(false)
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("undrained healthz: status %d", resp.StatusCode)
	}
}

func TestHotSwap(t *testing.T) {
	m1, d := trainedModel(t)
	h := New(m1)
	srv := httptest.NewServer(h)
	defer srv.Close()

	// a different model: single tree
	m2 := &core.Model{Loss: m1.Loss, Trees: m1.Trees[:1]}
	h.Swap(m2)

	in := d.Row(0)
	body, _ := json.Marshal(predictRequest{Instances: []jsonInstance{{Indices: in.Indices, Values: in.Values}}})
	resp, err := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out predictResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Scores[0]-m2.Predict(in)) > 1e-12 {
		t.Fatal("swap did not take effect")
	}
}

// --- admission, quota, registry-backed reload, and drain tests ---

func TestPredictRejectsNonFiniteJSON(t *testing.T) {
	// Unit level: the JSON instance validator agrees with the LibSVM
	// parser, which errors on non-finite labels/values.
	for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		ji := jsonInstance{Indices: []int32{3}, Values: []float32{v}}
		if _, err := jsonToInstance(ji); err == nil {
			t.Fatalf("value %v accepted", v)
		}
	}
	// HTTP level: a number JSON cannot represent finitely is a 400, never
	// a scored request.
	m, _ := trainedModel(t)
	srv := httptest.NewServer(New(m))
	defer srv.Close()
	body := `{"instances":[{"indices":[1],"values":[1e999]}]}`
	resp, err := http.Post(srv.URL+"/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("1e999 value: status %d, want 400", resp.StatusCode)
	}
}

func TestPredictQuota(t *testing.T) {
	m, d := trainedModel(t)
	h := New(m)
	h.Quota = NewQuotas(QuotaConfig{Rate: 0.01, Burst: 2})
	srv := httptest.NewServer(h)
	defer srv.Close()

	in := d.Row(0)
	body, _ := json.Marshal(predictRequest{Instances: []jsonInstance{{Indices: in.Indices, Values: in.Values}}})
	post := func(tenant string) *http.Response {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/predict", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if tenant != "" {
			req.Header.Set("X-Tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	for i := 0; i < 2; i++ {
		if resp := post("teamA"); resp.StatusCode != http.StatusOK {
			t.Fatalf("burst request %d: status %d", i, resp.StatusCode)
		}
	}
	resp := post("teamA")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over quota: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 must carry Retry-After")
	}
	// Another tenant (and the default tenant) still gets its own burst.
	if resp := post("teamB"); resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant B: status %d", resp.StatusCode)
	}
	if resp := post(""); resp.StatusCode != http.StatusOK {
		t.Fatalf("default tenant: status %d", resp.StatusCode)
	}
}

// TestOverloadAdmission is the acceptance scenario: open-loop style
// concurrent load at 4× the admission window against a pinned backend.
// In-flight scoring work must never exceed MaxConcurrent, accepted work
// never exceeds MaxConcurrent+QueueDepth, the excess sheds fast with
// 503 + Retry-After, nothing hangs, and every accepted request returns
// the correct score.
func TestOverloadAdmission(t *testing.T) {
	const limit, queueDepth = 2, 2
	const window = limit + queueDepth
	const callers = 4 * window

	m, d := trainedModel(t)
	h := New(m)
	h.Limiter = NewLimiter(AdmissionConfig{MaxConcurrent: limit, QueueDepth: queueDepth, QueueTimeout: 5 * time.Second})

	gate := make(chan struct{})
	var scoring, maxScoring int64
	var mu sync.Mutex
	h.predictHook = func() {
		mu.Lock()
		scoring++
		if scoring > maxScoring {
			maxScoring = scoring
		}
		mu.Unlock()
		<-gate
		mu.Lock()
		scoring--
		mu.Unlock()
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	in := d.Row(0)
	want := m.Predict(in)
	body, _ := json.Marshal(predictRequest{Instances: []jsonInstance{{Indices: in.Indices, Values: in.Values}}})

	goroutinesBefore := runtime.NumGoroutine()
	tr := &http.Transport{}
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	type outcome struct {
		status     int
		retryAfter string
		score      float64
	}
	results := make(chan outcome, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("request error: %v", err)
				return
			}
			defer resp.Body.Close()
			o := outcome{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
			if resp.StatusCode == http.StatusOK {
				var out predictResponse
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					t.Errorf("decode: %v", err)
					return
				}
				o.score = out.Scores[0]
			}
			results <- o
		}()
	}

	// Release the backend once the overload is fully established: every
	// caller is either scoring, queued, or already shed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		s := scoring
		mu.Unlock()
		if s == limit && int(s)+h.Limiter.Queued()+len(results) == callers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("overload never settled: scoring %d queued %d shed %d", s, h.Limiter.Queued(), len(results))
		}
		time.Sleep(200 * time.Microsecond)
	}
	close(gate)
	wg.Wait()
	close(results)

	var accepted, shed int
	for o := range results {
		switch o.status {
		case http.StatusOK:
			accepted++
			if math.Abs(o.score-want) > 1e-12 {
				t.Fatalf("accepted request returned wrong score %v, want %v", o.score, want)
			}
		case http.StatusServiceUnavailable, http.StatusTooManyRequests:
			shed++
			if o.retryAfter == "" {
				t.Fatal("shed response missing Retry-After")
			}
		default:
			t.Fatalf("unexpected status %d", o.status)
		}
	}
	if accepted+shed != callers {
		t.Fatalf("accepted %d + shed %d != %d", accepted, shed, callers)
	}
	if accepted > window {
		t.Fatalf("accepted %d exceeds admission window %d", accepted, window)
	}
	if accepted < limit {
		t.Fatalf("accepted %d, want at least the %d slots", accepted, limit)
	}
	if shed < callers-window {
		t.Fatalf("shed %d, want at least %d", shed, callers-window)
	}
	mu.Lock()
	peak := maxScoring
	mu.Unlock()
	if peak > limit {
		t.Fatalf("max concurrent scoring %d exceeds limit %d", peak, limit)
	}
	// No goroutine may outlive the burst (queued waiters, hook blockers).
	// Idle keep-alive connections are torn down first so only real leaks
	// — stranded limiter waiters or hook blockers — can fail this.
	tr.CloseIdleConnections()
	gleakDeadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore+3 {
		if time.Now().After(gleakDeadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", goroutinesBefore, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
	if h.Limiter.Active() != 0 || h.Limiter.Queued() != 0 {
		t.Fatalf("limiter state leaked: active %d queued %d", h.Limiter.Active(), h.Limiter.Queued())
	}
}

// TestReloadSingleFlight fires concurrent reloads and checks OnReload is
// never invoked in parallel and the registry's version history stays
// strictly linear.
func TestReloadSingleFlight(t *testing.T) {
	m1, _ := trainedModel(t)
	h := New(m1)
	m2 := &core.Model{Loss: m1.Loss, BaseScore: m1.BaseScore, Trees: m1.Trees[:1]}

	var inReload, maxInReload, calls int64
	var mu sync.Mutex
	h.OnReload = func() (*core.Model, error) {
		mu.Lock()
		inReload++
		calls++
		if inReload > maxInReload {
			maxInReload = inReload
		}
		mu.Unlock()
		time.Sleep(2 * time.Millisecond)
		mu.Lock()
		inReload--
		mu.Unlock()
		return m2, nil
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	const reloaders = 8
	var wg sync.WaitGroup
	for i := 0; i < reloaders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/model/reload", "", nil)
			if err != nil {
				t.Errorf("reload: %v", err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("reload status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if maxInReload != 1 {
		t.Fatalf("OnReload ran %d-way concurrent, want single-flight", maxInReload)
	}
	if calls != reloaders {
		t.Fatalf("%d OnReload calls, want %d", calls, reloaders)
	}
	hist := h.Registry().History()
	for i := 1; i < len(hist); i++ {
		if hist[i].ID != hist[i-1].ID+1 {
			t.Fatalf("version history not linear: %+v", hist)
		}
	}
	if _, v := h.Registry().Current(); v.ID != int64(reloaders)+1 {
		t.Fatalf("final version %d, want %d", v.ID, reloaders+1)
	}
}

// TestReloadRollback is the acceptance scenario: a reload producing a
// corrupt (compile-failing) or validation-failing model leaves the
// previous model serving, increments the rollback metric, and /model
// reports the retained version.
func TestReloadRollback(t *testing.T) {
	m1, d := trainedModel(t)
	h := New(m1)
	h.Registry().Validate = ProbeValidator(d.Subset(0, 50), 0)
	srv := httptest.NewServer(h)
	defer srv.Close()

	modelVersion := func() (trees int, version int64) {
		resp, err := http.Get(srv.URL + "/model")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var info struct {
			Trees   int   `json:"trees"`
			Version int64 `json:"version"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		return info.Trees, info.Version
	}

	// A corrupt model file that still decodes: compile fails.
	h.OnReload = func() (*core.Model, error) { return corruptModel(), nil }
	before := rollbacks("compile")
	resp, err := http.Post(srv.URL+"/model/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt reload: status %d, want 422", resp.StatusCode)
	}
	if got := rollbacks("compile"); got != before+1 {
		t.Fatalf("compile rollback counter %d, want %d", got, before+1)
	}
	if trees, version := modelVersion(); trees != len(m1.Trees) || version != 1 {
		t.Fatalf("after corrupt reload: %d trees v%d, want %d trees v1", trees, version, len(m1.Trees))
	}

	// A model that compiles but fails probe validation: all-Inf scores.
	h.OnReload = func() (*core.Model, error) {
		bad := &core.Model{Loss: m1.Loss, BaseScore: math.Inf(1), Trees: m1.Trees[:1]}
		return bad, nil
	}
	before = rollbacks("validate")
	resp, err = http.Post(srv.URL+"/model/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("invalid reload: status %d, want 422", resp.StatusCode)
	}
	if got := rollbacks("validate"); got != before+1 {
		t.Fatalf("validate rollback counter %d, want %d", got, before+1)
	}
	if trees, version := modelVersion(); trees != len(m1.Trees) || version != 1 {
		t.Fatalf("after invalid reload: %d trees v%d, want retained v1", trees, version)
	}

	// A good model still goes through, as version 2.
	good := &core.Model{Loss: m1.Loss, BaseScore: m1.BaseScore, Trees: m1.Trees[:2]}
	h.OnReload = func() (*core.Model, error) { return good, nil }
	resp, err = http.Post(srv.URL+"/model/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("good reload: status %d", resp.StatusCode)
	}
	if trees, version := modelVersion(); trees != 2 || version != 2 {
		t.Fatalf("after good reload: %d trees v%d, want 2 trees v2", trees, version)
	}
}

// TestReloadRefusesOldModelFile: a model file in the gob format of earlier
// builds, reloaded through core.LoadFile as dimboost-serve reloads, is a 500
// that never reaches the registry: version 1 keeps serving.
func TestReloadRefusesOldModelFile(t *testing.T) {
	m1, _ := trainedModel(t)
	h := New(m1)
	h.OnReload = func() (*core.Model, error) { return core.LoadFile("../core/testdata/model_gob_v1.bin") }
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/model/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "not a model file") {
		t.Fatalf("old-format reload: status %d, body %q; want 500 naming the file as not a model file", resp.StatusCode, body)
	}
	if cur, v := h.Registry().Current(); cur != m1 || v.ID != 1 || len(h.Registry().History()) != 1 {
		t.Fatalf("after old-format reload: current v%d, history %+v; want m1 as v1 alone", v.ID, h.Registry().History())
	}
}

// TestGracefulDrainInFlight runs a real http.Server through shutdown: an
// in-flight slow /predict completes during the drain, a request arriving
// after Shutdown is refused at the connection level, and /healthz reports
// 503 throughout the drain.
func TestGracefulDrainInFlight(t *testing.T) {
	m, d := trainedModel(t)
	h := New(m)
	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	h.predictHook = func() {
		once.Do(func() { close(entered) })
		<-gate
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	// Fresh connection per request so refused connections are visible.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}

	in := d.Row(0)
	want := m.Predict(in)
	body, _ := json.Marshal(predictRequest{Instances: []jsonInstance{{Indices: in.Indices, Values: in.Values}}})

	slowDone := make(chan error, 1)
	go func() {
		resp, err := client.Post(base+"/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			slowDone <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			slowDone <- fmt.Errorf("slow request status %d", resp.StatusCode)
			return
		}
		var out predictResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			slowDone <- err
			return
		}
		if math.Abs(out.Scores[0]-want) > 1e-12 {
			slowDone <- fmt.Errorf("slow request score %v, want %v", out.Scores[0], want)
			return
		}
		slowDone <- nil
	}()
	<-entered

	// Begin the drain while the slow request is in flight.
	h.SetDraining(true)
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: status %d, want 503", resp.StatusCode)
	}
	// New scoring work is refused immediately, with Retry-After.
	resp, err = client.Post(base+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining predict: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining predict must carry Retry-After")
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Once the listener closes, a request arriving after Shutdown cannot
	// connect at all.
	refusedDeadline := time.Now().Add(2 * time.Second)
	for {
		_, err := client.Get(base + "/healthz")
		if err != nil {
			break
		}
		if time.Now().After(refusedDeadline) {
			t.Fatal("requests still accepted after Shutdown")
		}
		time.Sleep(time.Millisecond)
	}

	// The in-flight request still completes, correctly, during the drain.
	close(gate)
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown did not drain cleanly: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("serve: %v", err)
	}
}
