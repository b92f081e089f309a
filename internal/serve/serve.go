// Package serve exposes a trained GBDT model over HTTP — the scoring-side
// counterpart of the training system, for deployments that serve the model
// the paper's pipeline produces. Endpoints:
//
//	GET  /healthz            liveness probe (503 while draining)
//	GET  /model              model summary + registry version history
//	GET  /importance?top=N   gain-based feature importance
//	POST /predict            score instances (JSON or LibSVM lines)
//	POST /model/reload       re-read the model via OnReload (when set)
//	GET  /metrics            Prometheus text exposition
//	GET  /debug/obs          metrics + span timeline as JSON
//
// The handler is safe for concurrent use and supports validated atomic hot
// model swaps with rollback (Registry). The /predict path sits behind an
// admission layer: per-tenant token-bucket quotas (X-Tenant header, 429 +
// Retry-After on violation) and a concurrency limiter with a bounded
// deadline-aware wait queue (503 + Retry-After when saturated), so the
// process sheds overload instead of collapsing under it.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"dimboost/internal/core"
	"dimboost/internal/dataset"
	"dimboost/internal/loss"
	"dimboost/internal/obs"
	"dimboost/internal/predict"
)

// Handler serves a model over HTTP.
type Handler struct {
	registry *Registry
	mux      *http.ServeMux
	// MaxBodyBytes caps request bodies (default 32 MiB).
	MaxBodyBytes int64
	// OnReload, when set, enables POST /model/reload: it re-reads the model
	// from wherever it came from and the handler swaps the result in through
	// the registry's validate-then-commit path. Reloads are single-flight.
	OnReload func() (*core.Model, error)
	// Limiter, when set, bounds concurrent /predict work (admission
	// control). Configure before serving traffic.
	Limiter *Limiter
	// Quota, when set, applies per-tenant token buckets to /predict keyed
	// on the X-Tenant header. Configure before serving traffic.
	Quota *Quotas

	// coalescer, when set (EnableCoalescing, before serving traffic),
	// batches concurrent /predict scoring into single engine calls. A
	// coalesced request releases its admission slot before parking — the
	// limiter keeps bounding concurrent decode/score work while the
	// coalescer's own MaxPending bounds the parked queue.
	coalescer *Coalescer

	reloadMu sync.Mutex
	draining atomic.Bool

	// predictHook, when set (tests), runs after admission while the request
	// holds its concurrency slot — the seam overload tests use to pin
	// in-flight work and count true scoring concurrency.
	predictHook func()
}

// New returns a handler serving the given model as registry version 1. The
// model's inference engine is compiled eagerly so the first /predict
// request doesn't pay the compile latency.
func New(m *core.Model) *Handler {
	h := &Handler{
		registry:     NewRegistry(m),
		mux:          http.NewServeMux(),
		MaxBodyBytes: 32 << 20,
	}
	h.mux.HandleFunc("GET /healthz", h.healthz)
	h.mux.HandleFunc("GET /model", h.modelInfo)
	h.mux.HandleFunc("GET /importance", h.importance)
	h.mux.HandleFunc("POST /predict", h.predict)
	h.mux.HandleFunc("POST /model/reload", h.reload)
	h.mux.Handle("GET /metrics", obs.Default().Handler())
	h.mux.Handle("GET /debug/obs", obs.Default().DebugHandler())
	return h
}

// Registry exposes the handler's model registry so operators can install a
// validation hook (Registry.Validate) or inspect version history.
func (h *Handler) Registry() *Registry { return h.registry }

// EnableCoalescing turns on request coalescing for /predict scoring (see
// coalesce.go). Call before serving traffic. Batches resolve the model
// through the registry at flush time, so hot swaps stay coherent per batch.
func (h *Handler) EnableCoalescing(cfg CoalesceConfig) *Coalescer {
	m, _ := h.registry.Current()
	var eng *predict.Engine
	if e, err := m.Compiled(); err == nil {
		eng = e
	}
	h.coalescer = NewCoalescer(func() *core.Model {
		cm, _ := h.registry.Current()
		return cm
	}, eng, cfg)
	return h.coalescer
}

// Coalescer returns the coalescing layer, or nil when disabled.
func (h *Handler) Coalescer() *Coalescer { return h.coalescer }

// Close releases the handler's background resources: it drains the
// coalescer (every parked request is scored — no waiter is stranded) and
// stops its scorer. Call after the HTTP server has stopped accepting work;
// requests that slip in afterwards fall back to direct scoring.
func (h *Handler) Close() {
	if h.coalescer != nil {
		h.coalescer.Close()
	}
}

// statusWriter captures the response status for the request metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m := serveMetrics()
	m.inflight.Inc()
	defer m.inflight.Dec()
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	h.mux.ServeHTTP(sw, r)
	m.request(metricPath(r.URL.Path), sw.code, time.Since(start).Seconds())
}

// Swap replaces the served model through the registry's validated hot-swap
// path: the incoming model is compiled and (when Registry.Validate is set)
// probe-checked before the atomic commit; on failure the previous version
// keeps serving and the error reports the retained version.
func (h *Handler) Swap(m *core.Model) error {
	_, err := h.registry.Swap(m, "swap")
	return err
}

// SetDraining flips the server into shutdown mode: /healthz answers 503 so
// load balancers stop routing here, and new /predict work is refused
// immediately — while requests already admitted or queued still complete.
func (h *Handler) SetDraining(v bool) { h.draining.Store(v) }

func (h *Handler) healthz(w http.ResponseWriter, _ *http.Request) {
	if h.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n") //nolint:errcheck
		return
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n") //nolint:errcheck
}

func (h *Handler) reload(w http.ResponseWriter, _ *http.Request) {
	if h.OnReload == nil {
		httpError(w, http.StatusNotFound, "reload not enabled")
		return
	}
	// Single-flight: concurrent reloads would interleave OnReload and Swap
	// and scramble the registry's version history.
	h.reloadMu.Lock()
	defer h.reloadMu.Unlock()
	m, err := h.OnReload()
	if err != nil {
		serveMetrics().reloadErrs.Inc()
		httpError(w, http.StatusInternalServerError, "reload: %v", err)
		return
	}
	v, err := h.registry.Swap(m, "reload")
	if err != nil {
		// Validation or compile refused the model: the previous version is
		// still serving (auto-rollback) and the client learns which one.
		serveMetrics().reloadErrs.Inc()
		httpError(w, http.StatusUnprocessableEntity, "reload rejected: %v", err)
		return
	}
	serveMetrics().reloads.Inc()
	writeJSON(w, http.StatusOK, map[string]any{"trees": len(m.Trees), "version": v.ID})
}

type modelInfo struct {
	Loss          string         `json:"loss"`
	Trees         int            `json:"trees"`
	InternalNodes int            `json:"internal_nodes"`
	Leaves        int            `json:"leaves"`
	FeaturesUsed  int            `json:"features_used"`
	Version       int64          `json:"version"`
	History       []ModelVersion `json:"history"`
}

func (h *Handler) modelInfo(w http.ResponseWriter, _ *http.Request) {
	m, v := h.registry.Current()
	internal, leaves := m.NumNodes()
	writeJSON(w, http.StatusOK, modelInfo{
		Loss:          m.Loss.String(),
		Trees:         len(m.Trees),
		InternalNodes: internal,
		Leaves:        leaves,
		FeaturesUsed:  len(m.Importance()),
		Version:       v.ID,
		History:       h.registry.History(),
	})
}

type importanceEntry struct {
	Feature int32   `json:"feature"`
	Gain    float64 `json:"gain"`
	Splits  int     `json:"splits"`
}

func (h *Handler) importance(w http.ResponseWriter, r *http.Request) {
	top := 20
	if s := r.URL.Query().Get("top"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			httpError(w, http.StatusBadRequest, "bad top parameter %q", s)
			return
		}
		top = v
	}
	m, _ := h.registry.Current()
	imp := m.Importance()
	if len(imp) > top {
		imp = imp[:top]
	}
	out := make([]importanceEntry, len(imp))
	for i, fi := range imp {
		out[i] = importanceEntry{Feature: fi.Feature, Gain: fi.Gain, Splits: fi.Splits}
	}
	writeJSON(w, http.StatusOK, out)
}

// predictRequest is the JSON scoring request.
type predictRequest struct {
	Instances []jsonInstance `json:"instances"`
}

type jsonInstance struct {
	Indices []int32   `json:"indices"`
	Values  []float32 `json:"values"`
}

// predictResponse is the JSON scoring response.
type predictResponse struct {
	Scores []float64 `json:"scores"`
	// Probabilities is present for logistic models.
	Probabilities []float64 `json:"probabilities,omitempty"`
}

// admit runs the /predict request through quota and concurrency admission.
// It reports whether the request may proceed; when it may not, the 429/503
// response (with Retry-After) has already been written.
func (h *Handler) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	if h.draining.Load() {
		serveMetrics().shed("draining")
		shedError(w, http.StatusServiceUnavailable, time.Second, "draining")
		return nil, false
	}
	if h.Quota != nil {
		tenant := r.Header.Get("X-Tenant")
		if allowed, retryAfter := h.Quota.Allow(tenant); !allowed {
			serveMetrics().shed("quota")
			shedError(w, http.StatusTooManyRequests, retryAfter,
				"tenant %q over quota", tenantLabel(tenant))
			return nil, false
		}
	}
	if h.Limiter == nil {
		return func() {}, true
	}
	release, err := h.Limiter.Acquire(r.Context(), &h.draining)
	if err == nil {
		return release, true
	}
	retryAfter := h.Limiter.Config().QueueTimeout
	if retryAfter <= 0 {
		retryAfter = time.Second
	}
	switch {
	case errors.Is(err, ErrQueueFull):
		serveMetrics().shed("queue_full")
		shedError(w, http.StatusServiceUnavailable, retryAfter, "admission queue full")
	case errors.Is(err, ErrQueueTimeout):
		serveMetrics().shed("queue_timeout")
		shedError(w, http.StatusServiceUnavailable, retryAfter, "timed out waiting for admission")
	case errors.Is(err, ErrDraining):
		serveMetrics().shed("draining")
		shedError(w, http.StatusServiceUnavailable, time.Second, "draining")
	default: // ErrCanceled: the client is gone; the write goes nowhere.
		serveMetrics().shed("canceled")
		shedError(w, http.StatusServiceUnavailable, retryAfter, "canceled while queued")
	}
	return nil, false
}

// predictBuf is the pooled per-request scoring state: the body bytes, the
// JSON decode target (whose per-instance Indices/Values slices are reused
// across requests), the validated instances, and the score/probability
// buffers. One request checks a buf out for its whole lifetime — read
// through response encode — and returns it afterwards, so the steady-state
// JSON path stops allocating per request.
type predictBuf struct {
	body      bytes.Buffer
	req       predictRequest
	instances []dataset.Instance
	scores    []float64
	probs     []float64
	pairs     []featPair
}

var predictBufPool = sync.Pool{New: func() any { return new(predictBuf) }}

// maxPooledBytes caps what a predictBuf may keep between requests — about
// what a 1 MiB JSON body leaves behind, where a 16-instance body of 100
// nonzeros each leaves ≈ 60 KB. A buf grown past it by a rare huge request
// goes to the garbage collector instead of back to the pool, so that request
// does not pin its arrays in a pool slot for as long as the process runs.
const maxPooledBytes = 4 << 20

// putPredictBuf returns b to the pool unless it has grown past
// maxPooledBytes.
func putPredictBuf(b *predictBuf) {
	if b.retained() <= maxPooledBytes {
		predictBufPool.Put(b)
	}
}

// retained is the bytes b's buffers hold, counted up to their capacities.
func (b *predictBuf) retained() int {
	n := b.body.Cap() + 8*(cap(b.scores)+cap(b.probs)+cap(b.pairs)) +
		int(unsafe.Sizeof(jsonInstance{}))*cap(b.req.Instances) +
		int(unsafe.Sizeof(dataset.Instance{}))*cap(b.instances)
	for _, ji := range b.req.Instances[:cap(b.req.Instances)] {
		n += 4 * (cap(ji.Indices) + cap(ji.Values))
	}
	for _, in := range b.instances[:cap(b.instances)] {
		n += 4 * (cap(in.Indices) + cap(in.Values))
	}
	return n
}

// resetReq prepares the decode target for reuse: every element within
// capacity gets its inner slices truncated (capacity retained). Decoding
// appends into that capacity, and an instance whose JSON omits a key sees
// the truncated empty slice rather than a stale predecessor's data.
func (b *predictBuf) resetReq() {
	s := b.req.Instances[:cap(b.req.Instances)]
	for i := range s {
		s[i].Indices = s[i].Indices[:0]
		s[i].Values = s[i].Values[:0]
	}
	b.req.Instances = s[:0]
}

func (h *Handler) predict(w http.ResponseWriter, r *http.Request) {
	release, ok := h.admit(w, r)
	if !ok {
		return
	}
	released := false
	defer func() {
		if !released {
			release()
		}
	}()
	if h.predictHook != nil {
		h.predictHook()
	}

	body := http.MaxBytesReader(w, r.Body, h.MaxBodyBytes)
	defer body.Close()

	buf := predictBufPool.Get().(*predictBuf)
	defer putPredictBuf(buf)

	stages := &serveMetrics().stage
	mark := time.Now()
	lap := func(stage int) {
		now := time.Now()
		stages[stage].Observe(now.Sub(mark).Seconds())
		mark = now
	}

	var instances []dataset.Instance
	var err error
	ct := r.Header.Get("Content-Type")
	switch {
	case strings.HasPrefix(ct, "application/json"), ct == "":
		// The whole body is read before decoding, so a body over MaxBodyBytes
		// is a 413 even when a complete JSON value ends before the limit.
		buf.body.Reset()
		_, err = buf.body.ReadFrom(body)
		lap(stageRead)
		if err != nil {
			httpError(w, bodyErrStatus(err), "bad JSON: %v", err)
			return
		}
		instances, err = buf.decodeJSON()
	case strings.HasPrefix(ct, "text/libsvm"):
		// Parsed as it is read, so the whole parse is the decode stage.
		instances, err = readLibSVM(body)
	default:
		httpError(w, http.StatusUnsupportedMediaType, "use application/json or text/libsvm")
		return
	}
	lap(stageDecode)
	if err != nil {
		httpError(w, bodyErrStatus(err), "%v", err)
		return
	}
	if len(instances) == 0 {
		httpError(w, http.StatusBadRequest, "no instances")
		return
	}

	if cap(buf.scores) < len(instances) {
		buf.scores = make([]float64, len(instances))
	}
	scores := buf.scores[:len(instances)]

	var m *core.Model
	if h.coalescer != nil {
		// The admission slot bounded this request's decode work; scoring is
		// the scorer goroutine's, bounded by the coalescer itself. Release
		// the slot before parking so parked requests don't starve admission.
		release()
		released = true
		cm, err := h.coalescer.Score(instances, scores)
		if err != nil {
			if errors.Is(err, ErrCoalesceFull) {
				serveMetrics().shed("coalesce_full")
				shedError(w, http.StatusServiceUnavailable, h.coalescer.Config().Window, "scoring queue full")
				return
			}
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		m = cm
	} else {
		m, _ = h.registry.Current()
		if eng, err := m.Compiled(); err == nil {
			eng.PredictInstancesInto(instances, scores)
		} else {
			for i, in := range instances {
				scores[i] = m.Predict(in)
			}
		}
	}

	resp := predictResponse{Scores: scores}
	if m.Loss == loss.Logistic {
		if cap(buf.probs) < len(scores) {
			buf.probs = make([]float64, len(scores))
		}
		resp.Probabilities = buf.probs[:len(scores)]
		for i, s := range scores {
			resp.Probabilities[i] = loss.Sigmoid(s)
		}
	}
	lap(stageScore)
	writeJSON(w, http.StatusOK, resp)
	lap(stageEncode)
}

// decodeJSON decodes the body in b.body into validated instances held in
// b's pooled slices: the one-pass decoder, or encoding/json over the same
// bytes for anything it does not take.
func (b *predictBuf) decodeJSON() ([]dataset.Instance, error) {
	b.resetReq()
	if !decodePredict(b.body.Bytes(), &b.req) {
		b.resetReq()
		if err := json.NewDecoder(bytes.NewReader(b.body.Bytes())).Decode(&b.req); err != nil {
			return nil, fmt.Errorf("bad JSON: %w", err)
		}
	}
	instances := b.instances[:0]
	for i, ji := range b.req.Instances {
		var dst dataset.Instance
		if i < len(b.instances) {
			dst = b.instances[i] // reuse the prior request's backing slices
		}
		in, err := jsonToInstanceInto(ji, dst, b)
		if err != nil {
			return nil, fmt.Errorf("instance %d: %w", i, err)
		}
		instances = append(instances, in)
	}
	b.instances = instances
	return instances, nil
}

// readLibSVM parses a LibSVM body. Its rows stay in the parsed dataset's
// arrays and out of the pooled instance slots, which the JSON path writes
// into: a slot aliasing one row of a dataset has capacity to the end of it,
// and writing there would overwrite the next slot's row.
func readLibSVM(body io.Reader) ([]dataset.Instance, error) {
	d, err := dataset.ReadLibSVM(body, 0)
	if err != nil {
		return nil, fmt.Errorf("bad LibSVM body: %w", err)
	}
	instances := make([]dataset.Instance, d.NumRows())
	for i := range instances {
		instances[i] = d.Row(i)
	}
	return instances, nil
}

// featPair is a (feature, value) entry, used only when an instance arrives
// with unsorted indices and must be reordered.
type featPair struct {
	f int32
	v float32
}

// jsonToInstanceInto validates and sorts a JSON instance into dataset form,
// writing into dst's backing slices (grown only when capacity runs out) with
// buf.pairs as sort scratch, so the pooled request path validates without
// per-instance allocations. Non-finite values are refused so the JSON path
// agrees with the LibSVM parser, which errors on NaN/±Inf.
// Already-sorted indices — the overwhelmingly common client behavior —
// take a copy-through path that never touches the pair scratch.
func jsonToInstanceInto(ji jsonInstance, dst dataset.Instance, buf *predictBuf) (dataset.Instance, error) {
	if len(ji.Indices) != len(ji.Values) {
		return dataset.Instance{}, fmt.Errorf("%d indices vs %d values", len(ji.Indices), len(ji.Values))
	}
	sorted := true
	for i := range ji.Indices {
		if ji.Indices[i] < 0 {
			return dataset.Instance{}, fmt.Errorf("negative feature index %d", ji.Indices[i])
		}
		if v := float64(ji.Values[i]); math.IsNaN(v) || math.IsInf(v, 0) {
			return dataset.Instance{}, fmt.Errorf("non-finite value %v at feature %d", v, ji.Indices[i])
		}
		if i > 0 && ji.Indices[i] <= ji.Indices[i-1] {
			if ji.Indices[i] == ji.Indices[i-1] {
				return dataset.Instance{}, fmt.Errorf("duplicate feature index %d", ji.Indices[i])
			}
			sorted = false
		}
	}
	idx := append(dst.Indices[:0], ji.Indices...)
	vals := append(dst.Values[:0], ji.Values...)
	if !sorted {
		pairs := buf.pairs[:0]
		for i := range idx {
			pairs = append(pairs, featPair{idx[i], vals[i]})
		}
		buf.pairs = pairs
		sort.Slice(pairs, func(a, b int) bool { return pairs[a].f < pairs[b].f })
		for i, p := range pairs {
			if i > 0 && p.f == pairs[i-1].f {
				return dataset.Instance{}, fmt.Errorf("duplicate feature index %d", p.f)
			}
			idx[i], vals[i] = p.f, p.v
		}
	}
	return dataset.Instance{Indices: idx, Values: vals}, nil
}

// tenantLabel keeps error messages readable for the default tenant.
func tenantLabel(t string) string {
	if t == "" {
		return DefaultTenant
	}
	return t
}

// bodyErrStatus distinguishes a body that tripped MaxBytesReader (413) from
// one that merely failed to parse (400).
func bodyErrStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

// shedError writes an admission refusal with a Retry-After hint (whole
// seconds, rounded up, at least 1).
func shedError(w http.ResponseWriter, status int, retryAfter time.Duration, format string, args ...any) {
	secs := int(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	httpError(w, status, format, args...)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
