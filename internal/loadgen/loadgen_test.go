package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCountsOutcomes(t *testing.T) {
	// Every third request sheds with Retry-After; the rest succeed after a
	// small service time.
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%3 == 0 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		time.Sleep(time.Millisecond)
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	res, err := Run(context.Background(), Config{
		URL:      srv.URL,
		Rate:     200,
		Duration: 300 * time.Millisecond,
		Body:     []byte(`{}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 {
		t.Fatal("nothing sent")
	}
	if res.Accepted+res.Shed+res.Errors != res.Sent {
		t.Fatalf("accepted %d + shed %d + errors %d != sent %d",
			res.Accepted, res.Shed, res.Errors, res.Sent)
	}
	if res.Accepted == 0 || res.Shed == 0 {
		t.Fatalf("want both outcomes, got accepted %d shed %d", res.Accepted, res.Shed)
	}
	if !res.RetryAfterOnAllSheds {
		t.Fatal("every shed carried Retry-After")
	}
	if res.P50 <= 0 || res.P99 < res.P95 || res.P95 < res.P50 {
		t.Fatalf("percentiles not ordered: p50 %s p95 %s p99 %s", res.P50, res.P95, res.P99)
	}
	if res.Throughput <= 0 || res.ShedRate <= 0 || res.ShedRate >= 1 {
		t.Fatalf("throughput %f shed rate %f", res.Throughput, res.ShedRate)
	}
}

// TestRunTimesFromDueInstant: one stalled response on a client that owns a
// single connection holds up every arrival behind it. Those arrivals were
// due on schedule and each is served in well under a millisecond once it
// gets the connection, so service time stays flat while response time — the
// wait a user arriving then would have seen — must show the stall.
func TestRunTimesFromDueInstant(t *testing.T) {
	const stall = 200 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 20 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()

	res, err := Run(context.Background(), Config{
		URL:      srv.URL,
		Rate:     1000, // a 1 ms schedule: ~200 arrivals fall due during the stall
		Duration: 500 * time.Millisecond,
		Body:     []byte(`{}`),
		Client:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != res.Sent || res.Sent != 500 {
		t.Fatalf("sent %d accepted %d errors %d, want 500 accepted", res.Sent, res.Accepted, res.Errors)
	}
	t.Logf("response p50 %s p99 %s; service p50 %s p99 %s", res.P50, res.P99, res.ServiceP50, res.ServiceP99)
	if res.P99 < stall/2 {
		t.Fatalf("response p99 %s hides the %s stall: arrivals queued behind it were not timed from when they were due", res.P99, stall)
	}
	if res.ServiceP99 > stall/4 {
		t.Fatalf("service p99 %s: one stalled request in 500 should not reach the 99th percentile", res.ServiceP99)
	}
	if res.ServiceP50 > res.P50 {
		t.Fatalf("service p50 %s above response p50 %s: a request cannot be served before it was due", res.ServiceP50, res.P50)
	}
}

func TestRunFlagsMissingRetryAfter(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests) // no Retry-After: contract violation
	}))
	defer srv.Close()

	res, err := Run(context.Background(), Config{
		URL: srv.URL, Rate: 100, Duration: 100 * time.Millisecond, Body: []byte(`{}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 || res.RetryAfterOnAllSheds {
		t.Fatalf("shed %d, retryAfterOnAllSheds %v — want sheds flagged", res.Shed, res.RetryAfterOnAllSheds)
	}
}

func TestRunTenantHeader(t *testing.T) {
	var sawTenant atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Tenant") == "teamA" {
			sawTenant.Store(true)
		}
	}))
	defer srv.Close()
	if _, err := Run(context.Background(), Config{
		URL: srv.URL, Rate: 100, Duration: 50 * time.Millisecond, Tenant: "teamA",
	}); err != nil {
		t.Fatal(err)
	}
	if !sawTenant.Load() {
		t.Fatal("X-Tenant header never arrived")
	}
}

func TestRunConfigErrors(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{URL: "http://x", Rate: 0, Duration: time.Second},
		{URL: "http://x", Rate: 10, Duration: 0},
	} {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}

func TestPercentile(t *testing.T) {
	sample := []time.Duration{5, 1, 3, 2, 4} // sorted: 1..5
	if p := percentile(sample, 0.5); p != 3 {
		t.Fatalf("p50 = %d, want 3", p)
	}
	if p := percentile(sample, 1.0); p != 5 {
		t.Fatalf("p100 = %d, want 5", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Fatalf("empty sample p50 = %d, want 0", p)
	}
}
