// Package loadgen is an open-loop HTTP load generator for the serving
// tier. Open-loop means arrivals follow a fixed schedule independent of
// completions — the model of real user traffic, which does not slow down
// because the server is struggling. Driving an open-loop rate past
// capacity is exactly the overload the admission layer exists to survive,
// and the recorded shed rate + accepted-latency percentiles are the
// evidence it does.
//
// Arrival i is due at start + i/Rate and its response time runs from that
// due instant, not from whenever the generator got round to sending it: a
// stall anywhere — a late timer, a connection pool that is full because the
// server stopped answering — delays later sends, and timing from the send
// would leave exactly that queue out (coordinated omission). Service time,
// from the moment the request had a connection to write to, is reported
// next to it; the gap between the two is the time requests spent waiting
// to be sent.
package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"sort"
	"sync"
	"time"
)

// Config describes one load run.
type Config struct {
	// URL receives POSTs (typically .../predict).
	URL string
	// Rate is the arrival rate in requests/second.
	Rate float64
	// Duration is how long arrivals keep coming; the run then waits for
	// stragglers (bounded by the client timeout).
	Duration time.Duration
	// Body is sent on every request.
	Body []byte
	// Bodies, when non-empty, overrides Body: arrival i sends
	// Bodies[i%len(Bodies)]. This is the many-small-requests mode for
	// exercising server-side coalescing — each arrival carries a distinct
	// (typically single-instance) payload, the way independent clients do.
	Bodies [][]byte
	// ContentType defaults to application/json.
	ContentType string
	// Tenant, when set, is sent as the X-Tenant header.
	Tenant string
	// Client defaults to an http.Client with a 30s timeout.
	Client *http.Client
}

// Result aggregates one run.
type Result struct {
	Sent     int         `json:"sent"`
	Accepted int         `json:"accepted"` // HTTP 200
	Shed     int         `json:"shed"`     // HTTP 429 + 503
	Errors   int         `json:"errors"`   // transport errors and other statuses
	Statuses map[int]int `json:"statuses"`
	// RetryAfterOnAllSheds reports whether every 429/503 carried a
	// Retry-After header — the admission contract.
	RetryAfterOnAllSheds bool `json:"retry_after_on_all_sheds"`

	Elapsed    time.Duration `json:"elapsed_ns"`
	Throughput float64       `json:"throughput_rps"` // accepted per second of elapsed
	ShedRate   float64       `json:"shed_rate"`      // shed / sent

	// Response-time percentiles over accepted (200) requests only, each
	// timed from the instant the arrival was due.
	P50 time.Duration `json:"p50_ns"`
	P95 time.Duration `json:"p95_ns"`
	P99 time.Duration `json:"p99_ns"`
	// Service-time percentiles over the same requests, each timed from the
	// instant it obtained a connection to send on.
	ServiceP50 time.Duration `json:"service_p50_ns"`
	ServiceP95 time.Duration `json:"service_p95_ns"`
	ServiceP99 time.Duration `json:"service_p99_ns"`
}

// Run drives cfg.URL at cfg.Rate for cfg.Duration and aggregates the
// outcome. It never fails because the server sheds — shedding is a
// measured outcome, not an error — and returns an error only for
// unusable configuration.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.URL == "" {
		return nil, fmt.Errorf("loadgen: no URL")
	}
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("loadgen: rate must be positive, got %g", cfg.Rate)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: duration must be positive, got %s", cfg.Duration)
	}
	ct := cfg.ContentType
	if ct == "" {
		ct = "application/json"
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}

	res := &Result{Statuses: map[int]int{}, RetryAfterOnAllSheds: true}
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		response []time.Duration // accepted requests, from the due instant
		service  []time.Duration // accepted requests, from the send
	)

	fire := func(due time.Time, body []byte) {
		defer wg.Done()
		sent := time.Now()
		// A request that waits for a pooled connection is sent when it gets
		// one; a retried request counts from its last connection.
		rctx := httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotConn: func(httptrace.GotConnInfo) { sent = time.Now() },
		})
		req, err := http.NewRequestWithContext(rctx, http.MethodPost, cfg.URL, bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", ct)
			if cfg.Tenant != "" {
				req.Header.Set("X-Tenant", cfg.Tenant)
			}
		}
		var resp *http.Response
		if err == nil {
			resp, err = client.Do(req)
		}
		done := time.Now()
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			res.Errors++
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for connection reuse
		res.Statuses[resp.StatusCode]++
		switch resp.StatusCode {
		case http.StatusOK:
			res.Accepted++
			response = append(response, done.Sub(due))
			service = append(service, done.Sub(sent))
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			res.Shed++
			if resp.Header.Get("Retry-After") == "" {
				res.RetryAfterOnAllSheds = false
			}
		default:
			res.Errors++
		}
	}

	// Open loop: arrival i is due at start + i/Rate regardless of how many
	// earlier requests are still outstanding. The loop sleeps until the next
	// due instant and, when it wakes late, sends everything that has fallen
	// due at once — a late wake-up produces a burst, never a lost arrival or
	// a shifted schedule.
	total := int(cfg.Rate*cfg.Duration.Seconds() + 0.5)
	start := time.Now()
	arrivals := 0
loop:
	for ; arrivals < total; arrivals++ {
		due := start.Add(time.Duration(float64(arrivals) / cfg.Rate * float64(time.Second)))
		select {
		case <-ctx.Done():
			break loop
		case <-time.After(time.Until(due)): // at once when already due
		}
		body := cfg.Body
		if len(cfg.Bodies) > 0 {
			body = cfg.Bodies[arrivals%len(cfg.Bodies)]
		}
		wg.Add(1)
		go fire(due, body)
	}
	wg.Wait()

	res.Sent = arrivals
	res.Elapsed = time.Since(start)
	if res.Elapsed > 0 {
		res.Throughput = float64(res.Accepted) / res.Elapsed.Seconds()
	}
	if res.Sent > 0 {
		res.ShedRate = float64(res.Shed) / float64(res.Sent)
	}
	res.P50 = percentile(response, 0.50)
	res.P95 = percentile(response, 0.95)
	res.P99 = percentile(response, 0.99)
	res.ServiceP50 = percentile(service, 0.50)
	res.ServiceP95 = percentile(service, 0.95)
	res.ServiceP99 = percentile(service, 0.99)
	return res, nil
}

// percentile returns the p-quantile (nearest-rank) of the sample, 0 when
// empty. The input is sorted in place.
func percentile(sample []time.Duration, p float64) time.Duration {
	if len(sample) == 0 {
		return 0
	}
	sort.Slice(sample, func(a, b int) bool { return sample[a] < sample[b] })
	i := int(p*float64(len(sample))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sample) {
		i = len(sample) - 1
	}
	return sample[i]
}
