package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("test_total", "help", L("k", "v"))
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// same name+labels resolves to the same instance
	if r.Counter("test_total", "", L("k", "v")) != c {
		t.Fatal("re-registration returned a different counter")
	}
	// different labels are a different series
	if r.Counter("test_total", "", L("k", "w")) == c {
		t.Fatal("different label value returned the same counter")
	}
	// label argument order is irrelevant
	c2 := r.Counter("multi_total", "", L("a", "1"), L("b", "2"))
	if r.Counter("multi_total", "", L("b", "2"), L("a", "1")) != c2 {
		t.Fatal("label order changed series identity")
	}

	g := r.Gauge("test_gauge", "")
	g.Set(7)
	g.Dec()
	g.Add(-2)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("lat_seconds", "", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if got, want := h.Sum(), 5.565; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	// cumulative buckets: le=0.01 → 2 (0.005 and the boundary value 0.01),
	// le=0.1 → 3, le=1 → 4, +Inf → 5
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("%d families", len(snap))
	}
	b := snap[0].Series[0].Buckets
	want := []uint64{2, 3, 4, 5}
	for i, w := range want {
		if b[i].Count != w {
			t.Fatalf("bucket %d (le=%s) = %d, want %d", i, b[i].LE, b[i].Count, w)
		}
	}
	if b[3].LE != "+Inf" {
		t.Fatalf("last bucket le = %q", b[3].LE)
	}
}

func TestTypeConflictPanics(t *testing.T) {
	r := New()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("gauge registration over a counter name did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestInvalidNamePanics(t *testing.T) {
	r := New()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name did not panic")
		}
	}()
	r.Counter("bad name", "")
}

func TestConcurrentUse(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c_total", "")
			h := r.Histogram("h_seconds", "", nil, L("phase", "x"))
			g := r.Gauge("g", "")
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.001)
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total", "").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h_seconds", "", nil, L("phase", "x")).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := New()
	r.Counter("dimboost_test_total", "A counter.", L("op", `quo"te`)).Add(3)
	r.Gauge("dimboost_test_inflight", "A gauge.").Set(-2)
	r.Histogram("dimboost_test_seconds", "A histogram.", []float64{0.5}).Observe(0.25)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE dimboost_test_total counter",
		`dimboost_test_total{op="quo\"te"} 3`,
		"dimboost_test_inflight -2",
		`dimboost_test_seconds_bucket{le="0.5"} 1`,
		`dimboost_test_seconds_bucket{le="+Inf"} 1`,
		"dimboost_test_seconds_sum 0.25",
		"dimboost_test_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("self-exposition invalid: %v", err)
	}
}

// TestMetricsHandlerScrape is the CI guard for exposition syntax: scrape a
// live /metrics handler and validate every line.
func TestMetricsHandlerScrape(t *testing.T) {
	r := New()
	r.Counter("dimboost_scrape_total", "Scrapes.", L("path", "/metrics")).Inc()
	r.Histogram("dimboost_scrape_seconds", "Scrape latency.", nil).Observe(0.001)
	r.SpanLog("train", 16).Record(0, 0, 1, "build_hist", time.Now(), 3*time.Millisecond)

	srv := httptest.NewServer(r.Mux())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(bytes.NewReader(body)); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, body)
	}
	if !strings.Contains(string(body), "dimboost_train_phase_seconds_count") {
		t.Fatalf("span histogram missing from exposition:\n%s", body)
	}

	// /debug/obs carries the same state as JSON, spans included.
	resp2, err := http.Get(srv.URL + "/debug/obs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var st DebugState
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Metrics) == 0 {
		t.Fatal("debug snapshot has no metrics")
	}
	evs := st.Spans["train"]
	if len(evs) != 1 || evs[0].Phase != "build_hist" || evs[0].Layer != 1 {
		t.Fatalf("span timeline %+v", evs)
	}
}

func TestValidateExpositionRejectsGarbage(t *testing.T) {
	cases := []string{
		"no_type_line 1\n",
		"# TYPE m counter\nm{key=unquoted} 1\n",
		"# TYPE m counter\nm 1 2 3\n",
		"# TYPE m counter\nm notafloat\n",
		"# TYPE m badtype\n",
		"# TYPE m counter\n2leadingdigit 1\n",
	}
	for i, c := range cases {
		if err := ValidateExposition(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d accepted: %q", i, c)
		}
	}
	// and a valid document with the awkward-but-legal bits
	ok := "# HELP m help text\n# TYPE m histogram\n" +
		`m_bucket{le="+Inf"} 3` + "\nm_sum 1.5\nm_count 3\n\n# TYPE g gauge\ng -4 1700000000000\n"
	if err := ValidateExposition(strings.NewReader(ok)); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
}

func TestSpanLogRing(t *testing.T) {
	r := New()
	l := r.SpanLog("ring", 4)
	base := time.Now()
	for i := 0; i < 6; i++ {
		l.Record(0, i, -1, "p", base, time.Millisecond)
	}
	evs := l.Events()
	if len(evs) != 4 {
		t.Fatalf("%d events retained, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.Tree != i+2 {
			t.Fatalf("event %d tree = %d, want %d (oldest dropped, order kept)", i, ev.Tree, i+2)
		}
	}
	// the aggregate histogram saw every record, including the dropped ones
	h := r.Histogram("dimboost_ring_phase_seconds", "", nil, L("phase", "p"))
	if h.Count() != 6 {
		t.Fatalf("histogram count %d, want 6", h.Count())
	}
	// same name returns the same log
	if r.SpanLog("ring", 99) != l {
		t.Fatal("SpanLog re-registration returned a new log")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("a_total", "h", L("x", "y")).Add(2)
	r.Histogram("b_seconds", "", []float64{1}).Observe(0.5)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back []Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].Name != "a_total" || back[0].Series[0].Value != 2 {
		t.Fatalf("round trip %+v", back)
	}
	if back[1].Series[0].Count != 1 || len(back[1].Series[0].Buckets) != 2 {
		t.Fatalf("histogram round trip %+v", back[1])
	}
}

// TestSpanRecordAllocatesNothing: every training phase of every runtime is
// recorded through SpanLog.Record, so once a phase's histogram exists a span
// costs no allocation.
func TestSpanRecordAllocatesNothing(t *testing.T) {
	l := New().SpanLog("alloc", 8)
	base := time.Now()
	l.Record(0, 0, -1, "p", base, time.Millisecond) // creates the phase histogram
	if n := testing.AllocsPerRun(100, func() { l.Record(1, 2, 3, "p", base, time.Millisecond) }); n != 0 {
		t.Fatalf("Record allocates %.1f times per span, want 0", n)
	}
}
