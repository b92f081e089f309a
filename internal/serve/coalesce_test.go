package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dimboost/internal/core"
	"dimboost/internal/dataset"
)

// coalesceInstance draws a sparse row carrying negative values — the
// standardized-feature shape whose batch scoring diverges most from solo in
// cost (and must not diverge at all in bits).
func coalesceInstance(rng *rand.Rand, features int) dataset.Instance {
	n := 1 + rng.Intn(12)
	seen := map[int32]bool{}
	var idx []int32
	for len(idx) < n {
		f := int32(rng.Intn(features))
		if !seen[f] {
			seen[f] = true
			idx = append(idx, f)
		}
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && idx[j] < idx[j-1]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(math.Round(rng.NormFloat64()*100) / 100)
	}
	return dataset.Instance{Indices: idx, Values: vals}
}

func registrySource(h *Handler) func() *core.Model {
	return func() *core.Model {
		m, _ := h.registry.Current()
		return m
	}
}

// TestCoalesceDifferentialConcurrent is the headline invariant (DESIGN
// invariant 19): under concurrent load, every score a coalesced call
// returns is Float64bits-identical to scoring the same instance alone, no
// request is refused by the pending bound, and concurrent requests really
// are merged into shared engine calls.
//
// Free-running goroutines alone cannot prove the merge: on one core each
// submission is claimed and flushed "solo" before the next goroutine runs.
// So the first phase is deterministic — a primer request parks the scorer
// inside its flush, a barrier releases a burst of goroutines into the
// coalescer, and the scorer is let go only once the whole burst is queued
// behind it, so its next gather claims the burst as one batch. The second
// phase free-runs the workers for contention and -race coverage.
func TestCoalesceDifferentialConcurrent(t *testing.T) {
	m, _ := trainedModel(t)
	eng, err := m.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	parked, release := make(chan struct{}), make(chan struct{})
	unpark := sync.OnceFunc(func() { close(release) })
	var first sync.Once
	c := NewCoalescer(func() *core.Model {
		first.Do(func() { close(parked); <-release })
		return m
	}, eng, CoalesceConfig{Window: 200 * time.Microsecond})
	defer c.Close()
	defer unpark() // a failed phase 1 must not leave Close waiting on a parked scorer

	// scoreOne submits one request of 1..maxIns random instances and holds
	// every returned score to the solo engine's bits.
	scoreOne := func(rng *rand.Rand, maxIns int) error {
		ins := make([]dataset.Instance, 1+rng.Intn(maxIns))
		for j := range ins {
			ins[j] = coalesceInstance(rng, 80)
		}
		out := make([]float64, len(ins))
		bm, err := c.Score(ins, out)
		if err != nil {
			return fmt.Errorf("score: %w", err)
		}
		if bm != m {
			return fmt.Errorf("wrong model returned")
		}
		for j, in := range ins {
			want := eng.Predict(in)
			if math.Float64bits(out[j]) != math.Float64bits(want) {
				return fmt.Errorf("row %d: coalesced %v != solo %v", j, out[j], want)
			}
		}
		return nil
	}

	const workers = 8
	const perWorker = 300
	var wg sync.WaitGroup
	errs := make(chan error, 1+workers)
	// spawn starts a goroutine that, once start closes, scores the given
	// number of random requests one after another.
	spawn := func(seed int64, requests, maxIns int, start <-chan struct{}) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			<-start
			for i := 0; i < requests; i++ {
				if err := scoreOne(rng, maxIns); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wait := func() {
		t.Helper()
		wg.Wait()
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
	}
	now := make(chan struct{})
	close(now)

	// Phase 1: the primer pins the scorer, the barrier releases the burst.
	spawn(1000, 1, 1, now)
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("scorer never reached its first flush")
	}
	barrier := make(chan struct{})
	for w := 0; w < workers; w++ {
		spawn(2000+int64(w), 1, 1, barrier)
	}
	close(barrier)
	for deadline := time.Now().Add(5 * time.Second); len(c.calls) < workers; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d burst requests queued behind the parked scorer", len(c.calls), workers)
		}
		time.Sleep(100 * time.Microsecond)
	}
	unpark()
	wait()
	st := c.Stats()
	if st.Requests != 1+workers {
		t.Fatalf("burst scored %d requests, want %d", st.Requests, 1+workers)
	}
	if st.MeanOccupancy() <= 1 {
		t.Fatalf("mean batch occupancy %.2f (%d requests in %d batches), want > 1 — coalescing never merged anything",
			st.MeanOccupancy(), st.Requests, st.Batches)
	}

	// Phase 2: free-running differential under real contention.
	for w := 0; w < workers; w++ {
		spawn(1+int64(w), perWorker, 4, now)
	}
	wait()
	st = c.Stats()
	if want := int64(1 + workers + workers*perWorker); st.Requests != want {
		t.Fatalf("scored %d requests, want %d", st.Requests, want)
	}
	if st.Rejected != 0 {
		t.Fatalf("%d requests refused by the coalescer's pending bound", st.Rejected)
	}
	if st.Full+st.Linger+st.Solo+st.Drain != st.Batches {
		t.Fatalf("flush reasons %d+%d+%d+%d don't sum to %d batches", st.Full, st.Linger, st.Solo, st.Drain, st.Batches)
	}
}

// TestCoalesceHTTPDifferential drives the whole handler path — admission,
// pooled decode, coalescer, demux, response encode — concurrently and holds
// every returned score to bit-equality with the interpreted model.
func TestCoalesceHTTPDifferential(t *testing.T) {
	m, _ := trainedModel(t)
	h := New(m)
	h.Limiter = NewLimiter(AdmissionConfig{MaxConcurrent: 4, QueueDepth: 64, QueueTimeout: time.Second})
	h.EnableCoalescing(CoalesceConfig{Window: 300 * time.Microsecond})
	defer h.Close()
	srv := httptest.NewServer(h)
	defer srv.Close()

	eng, err := m.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	const workers = 6
	const perWorker = 60
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				in := coalesceInstance(rng, 80)
				body, _ := json.Marshal(map[string]any{"instances": []map[string]any{
					{"indices": in.Indices, "values": in.Values},
				}})
				resp, err := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var pr predictResponse
				err = json.NewDecoder(resp.Body).Decode(&pr)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d err %v", resp.StatusCode, err)
					return
				}
				want := eng.Predict(in)
				if len(pr.Scores) != 1 || math.Float64bits(pr.Scores[0]) != math.Float64bits(want) {
					errs <- fmt.Errorf("scores %v, want exactly [%v]", pr.Scores, want)
					return
				}
			}
		}(int64(w) + 100)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := h.Coalescer().Stats(); st.Requests != workers*perWorker {
		t.Fatalf("coalescer scored %d requests, want %d (direct=%d rejected=%d)",
			st.Requests, workers*perWorker, st.Direct, st.Rejected)
	}
}

// TestCoalesceMalformedIsolation: a request whose instance would crash the
// engine fails alone — submit-time validation rejects it, and concurrent
// well-formed requests keep scoring exactly.
func TestCoalesceMalformedIsolation(t *testing.T) {
	m, _ := trainedModel(t)
	eng, err := m.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoalescer(func() *core.Model { return m }, eng, CoalesceConfig{Window: 200 * time.Microsecond})
	defer c.Close()

	var wg sync.WaitGroup
	var badSent, badErrs, goodFails atomic.Int64
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			out := make([]float64, 1)
			for i := 0; i < 200; i++ {
				if i%7 == 3 {
					badSent.Add(1)
					bad := dataset.Instance{Indices: []int32{1, 2, 3}, Values: []float32{0.5}}
					if _, err := c.Score([]dataset.Instance{bad}, out); err != nil {
						badErrs.Add(1)
					}
					continue
				}
				in := coalesceInstance(rng, 80)
				if _, err := c.Score([]dataset.Instance{in}, out); err != nil {
					goodFails.Add(1)
					continue
				}
				if math.Float64bits(out[0]) != math.Float64bits(eng.Predict(in)) {
					goodFails.Add(1)
				}
			}
		}(int64(w) + 7)
	}
	wg.Wait()
	if goodFails.Load() != 0 {
		t.Fatalf("%d well-formed requests failed or scored wrong", goodFails.Load())
	}
	if badErrs.Load() != badSent.Load() {
		t.Fatalf("%d of %d malformed requests rejected", badErrs.Load(), badSent.Load())
	}
}

// TestCoalescePanicIsolation exercises the defense-in-depth layer directly:
// a batch containing an instance that panics the engine (a shape submit
// validation cannot see from outside) degrades to per-request scoring, and
// only the offending request errors.
func TestCoalescePanicIsolation(t *testing.T) {
	m, _ := trainedModel(t)
	eng, err := m.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	good1, good2 := coalesceInstance(rng, 80), coalesceInstance(rng, 80)
	// Indices with nil values: the engine indexes values[j] and panics.
	bad := dataset.Instance{Indices: []int32{0, 1, 2}, Values: nil}
	calls := []*coalesceCall{
		{ins: []dataset.Instance{good1}, out: make([]float64, 1)},
		{ins: []dataset.Instance{bad}, out: make([]float64, 1)},
		{ins: []dataset.Instance{good2}, out: make([]float64, 1)},
	}
	var ins []dataset.Instance
	for _, c := range calls {
		ins = append(ins, c.ins...)
	}
	out := make([]float64, len(ins))
	if err := scoreBatch(m, ins, out, calls); err != nil {
		t.Fatalf("scoreBatch: %v", err)
	}
	if calls[1].err == nil {
		t.Fatal("panicking request did not error")
	}
	if calls[0].err != nil || calls[2].err != nil {
		t.Fatalf("batchmates failed: %v / %v", calls[0].err, calls[2].err)
	}
	if math.Float64bits(out[0]) != math.Float64bits(eng.Predict(good1)) ||
		math.Float64bits(out[2]) != math.Float64bits(eng.Predict(good2)) {
		t.Fatal("batchmates scored wrong after isolation")
	}
}

// TestCoalesceDrainFlushesWaiters pins the shutdown contract: Close while
// requests are parked scores every one of them (no stranding, no error),
// and submissions after Close fall back to direct scoring.
func TestCoalesceDrainFlushesWaiters(t *testing.T) {
	m, _ := trainedModel(t)
	eng, err := m.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	// The first flush's model resolution blocks until released, pinning the
	// scorer while more requests park behind it.
	gate := make(chan struct{})
	var once sync.Once
	c := NewCoalescer(func() *core.Model {
		once.Do(func() { <-gate })
		return m
	}, eng, CoalesceConfig{Window: 50 * time.Millisecond, MaxBatch: 4})

	rng := rand.New(rand.NewSource(9))
	const n = 12
	var wg sync.WaitGroup
	results := make([]error, n)
	scores := make([][]float64, n)
	instances := make([]dataset.Instance, n)
	for i := 0; i < n; i++ {
		instances[i] = coalesceInstance(rng, 80)
		scores[i] = make([]float64, 1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, results[i] = c.Score([]dataset.Instance{instances[i]}, scores[i])
		}(i)
	}
	// Wait until the scorer is pinned inside source() and the rest are
	// parked, then close concurrently with the release.
	deadline := time.Now().Add(2 * time.Second)
	for c.pending.Load() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	close(gate)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not complete")
	}
	wg.Wait()
	for i := range results {
		if results[i] != nil {
			t.Fatalf("request %d stranded by drain: %v", i, results[i])
		}
		if math.Float64bits(scores[i][0]) != math.Float64bits(eng.Predict(instances[i])) {
			t.Fatalf("request %d scored wrong across drain", i)
		}
	}
	// After close: direct scoring, still exact.
	in := coalesceInstance(rng, 80)
	out := make([]float64, 1)
	if _, err := c.Score([]dataset.Instance{in}, out); err != nil {
		t.Fatalf("score after close: %v", err)
	}
	if math.Float64bits(out[0]) != math.Float64bits(eng.Predict(in)) {
		t.Fatal("post-close direct score wrong")
	}
	if st := c.Stats(); st.Direct == 0 {
		t.Fatal("post-close call did not take the direct path")
	}
}

// TestCoalescePendingBound: with the scorer pinned, offered work beyond
// MaxPending is refused fast with ErrCoalesceFull instead of queueing
// without bound.
func TestCoalescePendingBound(t *testing.T) {
	m, _ := trainedModel(t)
	gate := make(chan struct{})
	var once sync.Once
	c := NewCoalescer(func() *core.Model {
		once.Do(func() { <-gate })
		return m
	}, nil, CoalesceConfig{Window: time.Millisecond, MaxBatch: 2, MaxPending: 8})
	defer c.Close()

	var wg sync.WaitGroup
	var full atomic.Int64
	const n = 40
	var rngMu sync.Mutex
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rngMu.Lock()
			in := coalesceInstance(rng, 80)
			rngMu.Unlock()
			out := make([]float64, 1)
			_, err := c.Score([]dataset.Instance{in}, out)
			if err == ErrCoalesceFull {
				full.Add(1)
			} else if err != nil {
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	// With the scorer pinned, submissions beyond MaxPending must trip the
	// bound; the parked ones are released only once that has happened.
	deadline := time.Now().Add(5 * time.Second)
	for full.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if full.Load() == 0 {
		t.Fatal("pending bound never tripped")
	}
	if c.pending.Load() != 0 {
		t.Fatalf("pending leaked: %d", c.pending.Load())
	}
}

// TestCoalesceSoloFastPath: an uncontended request must not linger — the
// idle-pipe check flushes it immediately even with a huge window.
func TestCoalesceSoloFastPath(t *testing.T) {
	m, _ := trainedModel(t)
	eng, err := m.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoalescer(func() *core.Model { return m }, eng, CoalesceConfig{Window: 10 * time.Second})
	defer c.Close()
	rng := rand.New(rand.NewSource(21))
	in := coalesceInstance(rng, 80)
	out := make([]float64, 1)
	start := time.Now()
	if _, err := c.Score([]dataset.Instance{in}, out); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("solo request took %v with a 10s window — lingered instead of flushing", d)
	}
	if st := c.Stats(); st.Solo == 0 {
		t.Fatalf("expected a solo flush, got %+v", st)
	}
}

// TestPredictBufferReuse: the pooled decode path must not leak one
// request's instance data into the next when later JSON omits keys.
func TestPredictBufferReuse(t *testing.T) {
	m, _ := trainedModel(t)
	h := New(m)
	srv := httptest.NewServer(h)
	defer srv.Close()

	post := func(body string) (*http.Response, predictResponse) {
		resp, err := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		var pr predictResponse
		json.NewDecoder(resp.Body).Decode(&pr) //nolint:errcheck
		resp.Body.Close()
		return resp, pr
	}

	// Seed the pool with a wide request.
	resp, _ := post(`{"instances":[{"indices":[1,5,9,12,20],"values":[1,2,3,4,5]},{"indices":[2,3],"values":[1,1]}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed request: %d", resp.StatusCode)
	}
	// An empty instance decoded into the pooled buffer must score as the
	// empty row, not inherit the previous request's features.
	resp, pr := post(`{"instances":[{}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty instance: %d", resp.StatusCode)
	}
	want := m.Predict(dataset.Instance{})
	if len(pr.Scores) != 1 || math.Float64bits(pr.Scores[0]) != math.Float64bits(want) {
		t.Fatalf("empty instance scored %v, want [%v] — pooled buffer leaked state", pr.Scores, want)
	}
	// Indices present with values omitted must be a length mismatch (400),
	// not silently paired with a predecessor's pooled values.
	resp, _ = post(`{"instances":[{"indices":[1,2]}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("indices-without-values: %d, want 400", resp.StatusCode)
	}
}

// TestQuotaEvictionConcurrentChurn hammers the tenant-bucket cap from many
// goroutines (satellite: evict-fullest under concurrent churn, run with
// -race): the map never exceeds the cap, and a drained (hottest) tenant is
// never the eviction victim — fresh buckets have more headroom.
func TestQuotaEvictionConcurrentChurn(t *testing.T) {
	q := NewQuotas(QuotaConfig{Rate: 0.0001, Burst: 2})
	// Drain the hot tenant to zero tokens.
	q.Allow("hot")
	q.Allow("hot")
	if ok, _ := q.Allow("hot"); ok {
		t.Fatal("hot tenant not drained")
	}

	const workers = 8
	const perWorker = 1500 // 12000 distinct tenants, ~3× the cap
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q.Allow(fmt.Sprintf("tenant-%d-%d", w, i))
				if i%64 == 0 {
					if n := q.Tenants(); n > maxTenantBuckets {
						t.Errorf("bucket map grew to %d, cap %d", n, maxTenantBuckets)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if n := q.Tenants(); n > maxTenantBuckets {
		t.Fatalf("bucket map %d after churn, cap %d", n, maxTenantBuckets)
	}
	// The drained bucket must have survived 12000 evict-fullest rounds: a
	// fresh Allow for it is still throttled. (If it had been evicted, the
	// tenant would get a fresh bucket and sail through — a quota reset.)
	if ok, _ := q.Allow("hot"); ok {
		t.Fatal("drained tenant was evicted during churn — quota reset under pressure")
	}
}
