package serve

// Request coalescing (PR 10): the layer between admission control and the
// inference engine that turns many concurrent small /predict requests into
// engine-sized batches.
//
// Solo scoring pays per-request costs the engine's batch path amortizes —
// per-call bookkeeping, scratch checkout, and (on standardized features)
// the absent-feature negative-prefix pass that the tile-shared batch kernel
// in internal/predict pays once per 16 rows instead of once per row. Under
// heavy concurrent load from single-instance requests those per-row costs
// dominate, so feeding the engine batches raises sustainable throughput at
// identical offered load.
//
// Shape: requests that cleared admission and decoding deposit their
// instances into a bounded channel and park; one scorer goroutine drains it
// into batches and scores each batch with a single engine call. A request
// releases its admission slot before parking — a parked request consumes no
// CPU, its memory is the already-decoded instances, and the coalescer's own
// MaxPending bound caps how many may park — so admission keeps bounding
// concurrent *work* (decode and scoring) while the coalescer governs the
// scoring queue.
//
// Flush policy (the state machine DESIGN §15 documents):
//
//	full    the gathered batch reached MaxBatch instances
//	solo    the pipe went idle — nothing else is parked or in flight, so
//	        waiting longer cannot grow the batch; flush immediately (a
//	        single uncontended request therefore never lingers)
//	linger  other requests were in flight but the Window deadline (default
//	        500µs, the p99-latency guard) expired first
//	drain   Close cut the batch short; parked waiters are still scored
//
// Correctness contract, enforced by the tests in coalesce_test.go:
//
//   - Scores are math.Float64bits-identical to scoring the same instance
//     alone: the engine's batch path is bit-identical per row, each batch
//     is scored against one coherent model snapshot, and scores are copied
//     back per request without rounding detours.
//   - One request's malformed instance cannot fail its batchmates: Score
//     validates shape at submit (before parking), and a scoring panic falls
//     back to per-request scoring so only the offending request errors.
//   - Drain never strands a waiter: Close flushes everything parked, and
//     submissions after Close fall back to direct scoring.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dimboost/internal/core"
	"dimboost/internal/dataset"
	"dimboost/internal/predict"
)

// ErrCoalesceFull reports that the coalescer's parked-instance bound was
// reached; the caller sheds the request (503) rather than queue unboundedly.
var ErrCoalesceFull = errors.New("serve: coalescer pending limit reached")

// CoalesceConfig tunes the coalescing layer. The zero value picks defaults.
type CoalesceConfig struct {
	// Window bounds how long a batch may linger waiting for more requests
	// once at least one is parked (default 500µs). It is a deadline from the
	// first linger, not a per-arrival reset, so p99 added latency is bounded
	// by Window + one batch's scoring time.
	Window time.Duration
	// MaxBatch is the target instances per flush (default: the compiled
	// engine's PreferredBatch — enough rows to fill its scoring chunk grid).
	MaxBatch int
	// MaxPending bounds instances parked in the coalescer (default
	// 16×MaxBatch); beyond it Score fails fast with ErrCoalesceFull.
	MaxPending int
}

func (c CoalesceConfig) withDefaults(eng *predict.Engine) CoalesceConfig {
	if c.Window <= 0 {
		c.Window = 500 * time.Microsecond
	}
	if c.MaxBatch <= 0 {
		if eng != nil {
			c.MaxBatch = eng.PreferredBatch()
		} else {
			c.MaxBatch = 256
		}
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 16 * c.MaxBatch
	}
	return c
}

// CoalesceStats is a point-in-time snapshot of the coalescer's counters.
type CoalesceStats struct {
	Batches   int64 // flushes scored
	Requests  int64 // requests scored through batches
	Instances int64 // instances scored through batches
	Full      int64 // flush reasons
	Linger    int64
	Solo      int64
	Drain     int64
	Rejected  int64 // Score calls refused by the MaxPending bound
	Direct    int64 // Score calls served by direct scoring after Close
}

// MeanOccupancy is the average requests per scored batch (> 1 means
// coalescing actually merged requests).
func (s CoalesceStats) MeanOccupancy() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Requests) / float64(s.Batches)
}

// coalesceCall is one parked request: its instances, the caller's score
// buffer, and the completion signal. Calls are pooled; done is a 1-buffered
// channel reused across checkouts (exactly one send per wait).
type coalesceCall struct {
	ins   []dataset.Instance
	out   []float64
	model *core.Model
	err   error
	enq   time.Time
	done  chan struct{}
}

// Coalescer batches concurrent Score calls into single engine invocations.
// Create with NewCoalescer; Close flushes and stops the scorer.
type Coalescer struct {
	cfg    CoalesceConfig
	source func() *core.Model

	calls chan *coalesceCall
	// waiters counts calls submitted but not yet claimed by the scorer; the
	// increment happens before the channel send, so the scorer seeing
	// waiters > 0 knows more work is in flight and lingering can pay off.
	waiters atomic.Int64
	// pending counts parked instances against MaxPending.
	pending atomic.Int64

	mu     sync.RWMutex // closed vs. in-flight channel sends
	closed bool
	done   chan struct{} // scorer exited (channel fully drained)

	callPool sync.Pool

	stats struct {
		batches, requests, instances atomic.Int64
		full, linger, solo, drain    atomic.Int64
		rejected, direct             atomic.Int64
	}
}

// NewCoalescer starts a coalescer whose batches score against source() —
// typically the handler registry's current model, resolved once per flush
// so every request in a batch sees one coherent model even across hot
// swaps. eng (may be nil) only seeds the default MaxBatch.
func NewCoalescer(source func() *core.Model, eng *predict.Engine, cfg CoalesceConfig) *Coalescer {
	cfg = cfg.withDefaults(eng)
	c := &Coalescer{
		cfg:    cfg,
		source: source,
		// Capacity MaxPending: every parked call holds ≥1 instance, so the
		// pending bound proves sends never block (and thus never hold the
		// read lock across a stalled scorer).
		calls: make(chan *coalesceCall, cfg.MaxPending),
		done:  make(chan struct{}),
	}
	c.callPool.New = func() any { return &coalesceCall{done: make(chan struct{}, 1)} }
	go c.run()
	return c
}

// Config returns the resolved configuration.
func (c *Coalescer) Config() CoalesceConfig { return c.cfg }

// Stats snapshots the coalescer's counters.
func (c *Coalescer) Stats() CoalesceStats {
	return CoalesceStats{
		Batches:   c.stats.batches.Load(),
		Requests:  c.stats.requests.Load(),
		Instances: c.stats.instances.Load(),
		Full:      c.stats.full.Load(),
		Linger:    c.stats.linger.Load(),
		Solo:      c.stats.solo.Load(),
		Drain:     c.stats.drain.Load(),
		Rejected:  c.stats.rejected.Load(),
		Direct:    c.stats.direct.Load(),
	}
}

// Score submits instances for batched scoring and blocks until they are
// scored (bounded by Window plus one batch's scoring time — there is no
// unbounded wait to select on). Scores are written into out (len(ins));
// the returned model is the snapshot the batch was scored against, so the
// caller derives probabilities consistently with the scores. After Close,
// Score degrades to direct scoring rather than failing or stranding.
func (c *Coalescer) Score(ins []dataset.Instance, out []float64) (*core.Model, error) {
	if len(out) != len(ins) {
		return nil, fmt.Errorf("serve: score buffer length %d for %d instances", len(out), len(ins))
	}
	if len(ins) == 0 {
		return c.source(), nil
	}
	// Shape validation before parking: an instance the engine would panic
	// on must fail here, where the error is attributable to this request,
	// not inside a shared batch.
	for i, in := range ins {
		if len(in.Indices) != len(in.Values) {
			return nil, fmt.Errorf("serve: instance %d: %d indices vs %d values", i, len(in.Indices), len(in.Values))
		}
	}
	if c.pending.Add(int64(len(ins))) > int64(c.cfg.MaxPending) {
		c.pending.Add(-int64(len(ins)))
		c.stats.rejected.Add(1)
		return nil, ErrCoalesceFull
	}

	c.mu.RLock()
	if c.closed {
		c.mu.RUnlock()
		c.pending.Add(-int64(len(ins)))
		c.stats.direct.Add(1)
		m := c.source()
		return m, scoreDirect(m, ins, out)
	}
	call := c.callPool.Get().(*coalesceCall)
	call.ins, call.out, call.model, call.err = ins, out, nil, nil
	call.enq = time.Now()
	c.waiters.Add(1)
	c.calls <- call // never blocks: see channel capacity
	c.mu.RUnlock()

	<-call.done
	m, err := call.model, call.err
	call.ins, call.out, call.model = nil, nil, nil
	c.callPool.Put(call)
	return m, err
}

// Close stops accepting parked work, flushes everything already parked
// (no waiter is ever stranded), and waits for the scorer to exit. Further
// Score calls fall back to direct scoring. Safe to call more than once.
func (c *Coalescer) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.done
		return
	}
	c.closed = true
	close(c.calls)
	c.mu.Unlock()
	<-c.done
}

// run is the scorer loop: claim one parked call, gather greedily, linger
// only while more work is provably in flight, score once, demultiplex.
func (c *Coalescer) run() {
	defer close(c.done)
	m := serveMetrics()
	var (
		batch []*coalesceCall
		ins   []dataset.Instance // gather buffer, reused across flushes
		out   []float64          // score buffer, reused across flushes
	)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		first, ok := <-c.calls
		if !ok {
			return
		}
		c.waiters.Add(-1)
		batch = append(batch[:0], first)
		n := len(first.ins)
		reason := ""
		lingering := false
	gather:
		for n < c.cfg.MaxBatch {
			// Greedy drain: take everything already parked without waiting.
			select {
			case call, ok := <-c.calls:
				if !ok {
					reason = "drain"
					break gather
				}
				c.waiters.Add(-1)
				batch = append(batch, call)
				n += len(call.ins)
				continue
			default:
			}
			if c.waiters.Load() == 0 {
				// Pipe idle: no submitted-but-unclaimed work exists, so
				// lingering cannot grow the batch. The common uncontended
				// single request flushes here with zero added latency.
				reason = "solo"
				break gather
			}
			if !lingering {
				timer.Reset(c.cfg.Window)
				lingering = true
			}
			select {
			case call, ok := <-c.calls:
				if !ok {
					reason = "drain"
					break gather
				}
				c.waiters.Add(-1)
				batch = append(batch, call)
				n += len(call.ins)
			case <-timer.C:
				lingering = false
				reason = "linger"
				break gather
			}
		}
		if lingering && !timer.Stop() {
			<-timer.C
		}
		if reason == "" {
			reason = "full"
		}

		// Assemble the flush and record wait times before scoring starts.
		ins = ins[:0]
		for _, call := range batch {
			ins = append(ins, call.ins...)
			m.coalesceWait.Observe(time.Since(call.enq).Seconds())
		}
		if cap(out) < n {
			out = make([]float64, n)
		}
		out = out[:n]

		model := c.source()
		err := scoreBatch(model, ins, out, batch)

		// Record the flush before any caller is released, so a Stats read
		// after Score returns sees it.
		c.stats.batches.Add(1)
		c.stats.requests.Add(int64(len(batch)))
		c.stats.instances.Add(int64(n))
		m.coalesceOccupancy.Observe(float64(len(batch)))
		m.coalesceFlush(reason)
		switch reason {
		case "full":
			c.stats.full.Add(1)
		case "linger":
			c.stats.linger.Add(1)
		case "solo":
			c.stats.solo.Add(1)
		case "drain":
			c.stats.drain.Add(1)
		}

		off := 0
		for i, call := range batch {
			k := len(call.ins)
			if err == nil && call.err == nil {
				copy(call.out, out[off:off+k])
				call.model = model
			} else if call.err == nil {
				call.err = err
			}
			off += k
			c.pending.Add(-int64(k))
			call.done <- struct{}{}
			batch[i] = nil
		}
	}
}

// scoreBatch scores one assembled batch with a single engine call. A panic
// (an instance shape the submit-time validation could not catch) degrades
// to per-request scoring so only the offending request fails — batch
// isolation is preserved even against engine bugs.
func scoreBatch(m *core.Model, ins []dataset.Instance, out []float64, batch []*coalesceCall) (err error) {
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("serve: batch scoring panic: %v", r)
			}
		}()
		err = scoreDirect(m, ins, out)
	}()
	if err == nil {
		return nil
	}
	// Isolate: score each request alone; a request that panics again keeps
	// its own error, everyone else gets scores.
	off := 0
	for _, call := range batch {
		k := len(call.ins)
		call.err = func() (cerr error) {
			defer func() {
				if r := recover(); r != nil {
					cerr = fmt.Errorf("serve: scoring panic: %v", r)
				}
			}()
			return scoreDirect(m, call.ins, out[off:off+k])
		}()
		off += k
	}
	return nil
}

// scoreDirect scores instances against the model's compiled engine, falling
// back to the interpreted walk when compilation is unavailable — the same
// choice the uncoalesced handler path makes, so results are identical.
func scoreDirect(m *core.Model, ins []dataset.Instance, out []float64) error {
	if eng, err := m.Compiled(); err == nil {
		eng.PredictInstancesInto(ins, out)
		return nil
	}
	for i, in := range ins {
		out[i] = m.Predict(in)
	}
	return nil
}
