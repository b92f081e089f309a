package serve

import (
	"strconv"
	"sync"

	"dimboost/internal/obs"
)

// serveObs groups the scoring server's instruments. Per-path/per-code
// request counters are resolved through the registry on demand — the set of
// served paths is small and fixed (unknown paths collapse to "other"), so
// cardinality stays bounded. Shed and rollback reasons are likewise a
// small fixed vocabulary.
type serveObs struct {
	reg               *obs.Registry
	inflight          *obs.Gauge
	trees             *obs.Gauge
	modelVersion      *obs.Gauge
	reloads           *obs.Counter
	reloadErrs        *obs.Counter
	queueDepth        *obs.Gauge
	queueWait         *obs.Histogram
	coalesceWait      *obs.Histogram
	coalesceOccupancy *obs.Histogram
	stage             [numStages]*obs.Histogram
}

// The stages of one /predict request, the closed label set of
// dimboost_serve_stage_seconds: reading the body, decoding and validating
// it, scoring (a coalesced request's wait for its batch included), and
// encoding the response. A LibSVM body is parsed as it is read and records
// no read stage.
const (
	stageRead = iota
	stageDecode
	stageScore
	stageEncode
	numStages
)

var stageNames = [numStages]string{"read", "decode", "score", "encode"}

// waitBuckets resolves admission and coalesce waits and request stages down
// to 10µs: all are routinely sub-millisecond (the coalesce linger window
// defaults to 500µs), and the default bucket ladder's 250µs→1ms gap hid
// every p99 of interest.
var waitBuckets = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 0.1, 0.25, 1, 2.5,
}

// occupancyBuckets covers requests-per-flush from solo to a full chunk grid.
var occupancyBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

var (
	soOnce sync.Once
	soInst *serveObs
)

func serveMetrics() *serveObs {
	soOnce.Do(func() {
		r := obs.Default()
		soInst = &serveObs{
			reg:          r,
			inflight:     r.Gauge("dimboost_http_inflight", "HTTP requests currently in flight."),
			trees:        r.Gauge("dimboost_serve_model_trees", "Trees in the currently served model."),
			modelVersion: r.Gauge("dimboost_serve_model_version", "Registry version of the currently served model."),
			reloads:      r.Counter("dimboost_serve_reloads_total", "Successful model reloads."),
			reloadErrs:   r.Counter("dimboost_serve_reload_errors_total", "Failed model reload attempts."),
			queueDepth:   r.Gauge("dimboost_serve_queue_depth", "Requests currently waiting for an admission slot."),
			queueWait: r.Histogram("dimboost_serve_queue_wait_seconds",
				"Time requests spent queued for admission (both admitted and shed).", waitBuckets),
			coalesceWait: r.Histogram("dimboost_serve_coalesce_wait_seconds",
				"Time requests spent parked in the coalescer before their batch was scored.", waitBuckets),
			coalesceOccupancy: r.Histogram("dimboost_serve_coalesce_batch_occupancy",
				"Requests merged into each coalesced scoring batch.", occupancyBuckets),
		}
		for i, name := range stageNames {
			soInst.stage[i] = r.Histogram("dimboost_serve_stage_seconds",
				"Time /predict requests spent in each stage: read, decode, score, encode.",
				waitBuckets, obs.L("stage", name))
		}
	})
	return soInst
}

// request records one finished HTTP request.
func (m *serveObs) request(path string, code int, secs float64) {
	m.reg.Counter("dimboost_http_requests_total", "HTTP requests served, by path and status code.",
		obs.L("path", path), obs.L("code", strconv.Itoa(code))).Inc()
	m.reg.Histogram("dimboost_http_request_seconds", "HTTP request latency, by path.",
		nil, obs.L("path", path)).Observe(secs)
}

// coalesceFlush records one scored batch by its flush reason: full (batch
// cap reached), linger (window expired), solo (pipe idle — nothing left to
// linger for; usually, but not necessarily, a single-request batch, since a
// greedy drain may have merged a burst first), drain (Close flushed the
// remainder).
func (m *serveObs) coalesceFlush(reason string) {
	m.reg.Counter("dimboost_serve_coalesce_flushes_total",
		"Coalesced batches scored, by flush reason.", obs.L("reason", reason)).Inc()
}

// shed records one request refused by the admission layer. Reasons:
// quota, queue_full, queue_timeout, draining, canceled, coalesce_full.
func (m *serveObs) shed(reason string) {
	m.reg.Counter("dimboost_serve_shed_total", "Requests shed by the admission layer, by reason.",
		obs.L("reason", reason)).Inc()
}

// rollback records one refused model swap (the last-good version keeps
// serving). Reasons: compile, validate, nil_model.
func (m *serveObs) rollback(reason string) {
	m.reg.Counter("dimboost_serve_rollbacks_total",
		"Model swaps refused by validation or compile; the previous version was retained.",
		obs.L("reason", reason)).Inc()
}

// metricPath maps a request path onto the bounded label set.
func metricPath(p string) string {
	switch p {
	case "/healthz", "/model", "/importance", "/predict", "/model/reload", "/metrics", "/debug/obs":
		return p
	}
	return "other"
}
