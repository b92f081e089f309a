package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dimboost/internal/core"
	"dimboost/internal/serve"
)

// server is the scoring tier exactly as cmd/dimboost-serve assembles it by
// default (limiter: 4×GOMAXPROCS concurrent, 4× that queued, 250 ms queue
// timeout) on a loopback listener.
type server struct {
	h   *serve.Handler
	srv *http.Server
	url string
}

func startServer(m *core.Model, coalesce bool) (*server, error) {
	h := serve.New(m)
	mc := 4 * runtime.GOMAXPROCS(0)
	h.Limiter = serve.NewLimiter(serve.AdmissionConfig{
		MaxConcurrent: mc, QueueDepth: 4 * mc, QueueTimeout: 250 * time.Millisecond,
	})
	if coalesce {
		h.EnableCoalescing(serve.CoalesceConfig{})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{h: h, srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String() + "/predict"}
	go s.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	return s, nil
}

// stop shuts the listener down and waits for in-flight requests.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	s.h.Close()
}

// scorer checks HTTP responses against the interpreted tree walk: want[b]
// holds the Float64bits-exact scores of request body b.
type scorer struct {
	bodies [][]byte
	want   [][]float64
}

func newScorer(m *core.Model, in *inputs, instances int) *scorer {
	s := &scorer{bodies: in.bodies, want: make([][]float64, len(in.bodies))}
	for b := range s.want {
		s.want[b] = make([]float64, instances)
		for j := range s.want[b] {
			s.want[b][j] = m.Predict(in.valid.Row(bodyRow(b, j, instances, in.valid.NumRows())))
		}
	}
	return s
}

// client is one keep-alive connection's worth of request state, reused
// across requests so the load generator allocates little.
type client struct {
	hc   *http.Client
	url  string
	buf  bytes.Buffer
	resp struct {
		Scores []float64 `json:"scores"`
	}
}

func newClients(url string, n int) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{url: url, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.hc.CloseIdleConnections()
	}
}

// outcome of one request.
type outcome struct {
	status     int
	retryAfter bool
	bytes      int64 // request + response body bytes
	correct    bool  // 200 with scores bit-equal to the interpreted walk
}

func (c *client) post(s *scorer, b int) outcome {
	resp, err := c.hc.Post(c.url, "application/json", bytes.NewReader(s.bodies[b]))
	if err != nil {
		return outcome{}
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := io.Copy(&c.buf, resp.Body); err != nil {
		return outcome{status: resp.StatusCode}
	}
	o := outcome{
		status:     resp.StatusCode,
		retryAfter: resp.Header.Get("Retry-After") != "",
		bytes:      int64(len(s.bodies[b]) + c.buf.Len()),
	}
	if o.status == http.StatusOK {
		c.resp.Scores = c.resp.Scores[:0]
		o.correct = json.Unmarshal(c.buf.Bytes(), &c.resp) == nil && sameBits(c.resp.Scores, s.want[b])
	}
	return o
}

// closedLoop is one closed-loop window: every client sends its next request
// when the previous one completes. It returns the requests that finished
// inside the window, how many of them were not a 200 with exact scores, and
// the rate of the ones that were.
func closedLoop(clients []*client, s *scorer, dur time.Duration) (attempted, failed int64, rps float64) {
	var att, bad atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for k, c := range clients {
		wg.Add(1)
		go func(k int, c *client) {
			defer wg.Done()
			for b := k; time.Since(start) < dur; b += len(clients) {
				o := c.post(s, b%len(s.bodies))
				if time.Since(start) >= dur {
					return // finished after the window closed: not counted
				}
				att.Add(1)
				if !o.correct {
					bad.Add(1)
				}
			}
		}(k, c)
	}
	wg.Wait()
	return att.Load(), bad.Load(), float64(att.Load()-bad.Load()) / dur.Seconds()
}

// openResult is an open-loop pass: a fixed arrival schedule that does not
// slow down when the server does.
type openResult struct {
	n          int
	latMS      []float64 // per request, from its due time; NaN unless it returned a correct 200
	lateMS     []float64 // how late the generator sent each request
	ok, shed   int64     // correct 200s; 429/503s
	retryAfter int64     // sheds carrying Retry-After
	bytes      int64
	elapsed    time.Duration
	rate       float64
}

// openLoop sends rate×dur requests on a fixed schedule shared by the
// senders: request i is due at start + i/rate, whichever sender is free
// takes the next index, waits for its due time and sends. Latency runs from
// the due time, so the wait a stall imposes on later arrivals is counted —
// unlike internal/loadgen, which starts its clock when the request is fired.
func openLoop(clients []*client, s *scorer, rate float64, dur time.Duration, tr *tracer) openResult {
	n := max(int(rate*dur.Seconds()), 1)
	res := openResult{n: n, rate: rate, latMS: make([]float64, n), lateMS: make([]float64, n)}
	interval := time.Duration(float64(time.Second) / rate)
	var next, ok, shed, retryAfter, nbytes atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				o := c.post(s, i%len(s.bodies))
				done := time.Now()
				tr.add("http.request", i, sent, done)
				res.lateMS[i] = float64(sent.Sub(due)) / float64(time.Millisecond)
				res.latMS[i] = math.NaN()
				nbytes.Add(o.bytes)
				switch {
				case o.correct:
					ok.Add(1)
					res.latMS[i] = float64(done.Sub(due)) / float64(time.Millisecond)
				case o.status == http.StatusServiceUnavailable || o.status == http.StatusTooManyRequests:
					shed.Add(1)
					if o.retryAfter {
						retryAfter.Add(1)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.ok, res.shed, res.retryAfter, res.bytes = ok.Load(), shed.Load(), retryAfter.Load(), nbytes.Load()
	return res
}

// latencies returns the ascending latencies of the requests that succeeded.
func (r openResult) latencies() []float64 {
	var out []float64
	for _, l := range r.latMS {
		if !math.IsNaN(l) {
			out = append(out, l)
		}
	}
	return sorted(out)
}

// merge appends another pass's requests.
func (r *openResult) merge(o openResult) {
	r.n += o.n
	r.latMS = append(r.latMS, o.latMS...)
	r.lateMS = append(r.lateMS, o.lateMS...)
	r.ok, r.shed, r.retryAfter, r.bytes = r.ok+o.ok, r.shed+o.shed, r.retryAfter+o.retryAfter, r.bytes+o.bytes
	r.elapsed += o.elapsed
}

// backlogGrew reports whether the generator fell further behind as the pass
// went on: the last quarter's median lateness exceeds the first quarter's
// by more than 20 ms.
func (r openResult) backlogGrew() bool {
	q := max(r.n/4, 1)
	return median(r.lateMS[r.n-q:])-median(r.lateMS[:q]) > 20
}

func (r openResult) String() string {
	return fmt.Sprintf("%.0f req/s: n=%d ok=%d shed=%d", r.rate, r.n, r.ok, r.shed)
}
