package ps

import (
	"sync"

	"dimboost/internal/obs"
)

// serverMetrics instrument the parameter-server handler: per-op request
// counts, latency and byte totals, overall byte totals both directions, and
// idempotency dedup hits. Per-op instruments are materialized once for the
// whole protocol so the handler path never takes the registry lock.
type serverMetrics struct {
	requests   map[uint8]*obs.Counter
	errors     map[uint8]*obs.Counter
	latency    map[uint8]*obs.Histogram
	opBytesIn  map[uint8]*obs.Counter
	opBytesOut map[uint8]*obs.Counter
	dedupHits  *obs.Counter
	bytesIn    *obs.Counter
	bytesOut   *obs.Counter
	// derived counts the node shards computed as parent − sibling instead of
	// merged from pushes; deriveSeconds times each one (it is also part of
	// the pull's request latency).
	derived       *obs.Counter
	deriveSeconds *obs.Histogram
}

// clientMetrics instrument the worker-side client.
type clientMetrics struct {
	requests *obs.Counter
	bytesOut *obs.Counter
	bytesIn  *obs.Counter
}

// Directions of a histogram-vector codec operation: clients encode pushes,
// servers decode them. Encoded and decoded logical bytes match because the
// wire is lossless in transit.
const (
	dirEncode = 0
	dirDecode = 1
)

// vecBytes[dir] counts logical bytes-on-wire of histogram vectors — the
// payload accounting WireBytes snapshots.
var vecBytes [2]*obs.Counter

var (
	pmOnce sync.Once
	srvM   *serverMetrics
	cliM   *clientMetrics
)

func psMetrics() (*serverMetrics, *clientMetrics) {
	pmOnce.Do(func() {
		r := obs.Default()
		srvM = &serverMetrics{
			requests:   make(map[uint8]*obs.Counter),
			errors:     make(map[uint8]*obs.Counter),
			latency:    make(map[uint8]*obs.Histogram),
			opBytesIn:  make(map[uint8]*obs.Counter),
			opBytesOut: make(map[uint8]*obs.Counter),
			dedupHits:  r.Counter("dimboost_ps_dedup_hits_total", "Duplicate mutating requests acknowledged without re-applying (idempotency envelope)."),
			bytesIn:    r.Counter("dimboost_ps_bytes_total", "Request/response payload bytes through the PS handler.", obs.L("direction", "in")),
			bytesOut:   r.Counter("dimboost_ps_bytes_total", "", obs.L("direction", "out")),

			derived:       r.Counter("dimboost_ps_hist_derived_total", "Node histogram shards a server derived as parent minus sibling instead of merging pushes."),
			deriveSeconds: r.Histogram("dimboost_ps_hist_derive_seconds", "Server-side time to derive one node shard as parent minus sibling.", nil),
		}
		for _, op := range ops {
			l := obs.L("op", OpName(op))
			srvM.requests[op] = r.Counter("dimboost_ps_requests_total", "Requests served by the parameter server, by op.", l)
			srvM.errors[op] = r.Counter("dimboost_ps_request_errors_total", "Requests the parameter server failed, by op.", l)
			srvM.latency[op] = r.Histogram("dimboost_ps_request_seconds", "Server-side handler latency, by op.", nil, l)
			srvM.opBytesIn[op] = r.Counter("dimboost_ps_op_bytes_total", "Request/response payload bytes through the PS handler, by op and direction.", l, obs.L("direction", "in"))
			srvM.opBytesOut[op] = r.Counter("dimboost_ps_op_bytes_total", "", l, obs.L("direction", "out"))
		}
		l := obs.L("encoding", "deferred")
		vecBytes[dirEncode] = r.Counter("dimboost_ps_vector_bytes_total", "Logical bytes-on-wire of histogram vectors, by encoding and codec direction.", l, obs.L("direction", "encode"))
		vecBytes[dirDecode] = r.Counter("dimboost_ps_vector_bytes_total", "", l, obs.L("direction", "decode"))
		cliM = &clientMetrics{
			requests: r.Counter("dimboost_ps_client_requests_total", "Requests issued by worker clients."),
			bytesOut: r.Counter("dimboost_ps_client_bytes_total", "Payload bytes through worker clients.", obs.L("direction", "out")),
			bytesIn:  r.Counter("dimboost_ps_client_bytes_total", "", obs.L("direction", "in")),
		}
	})
	return srvM, cliM
}

// vectorBytes records one encoded or decoded histogram shard's wire bytes.
func vectorBytes(dir int, n int64) {
	psMetrics()
	vecBytes[dir].Add(n)
}

// observe records one handled request. Unknown ops have no per-op
// instruments (the handler rejects them) and only count bytes in.
func (m *serverMetrics) observe(op uint8, reqBytes, respBytes int64, secs float64, err error) {
	m.bytesIn.Add(reqBytes)
	if c := m.opBytesIn[op]; c != nil {
		c.Add(reqBytes)
	}
	if err != nil {
		if c := m.errors[op]; c != nil {
			c.Inc()
		}
		return
	}
	m.bytesOut.Add(respBytes)
	if c := m.opBytesOut[op]; c != nil {
		c.Add(respBytes)
	}
	if c := m.requests[op]; c != nil {
		c.Inc()
	}
	if h := m.latency[op]; h != nil {
		h.Observe(secs)
	}
}

// WireBytes snapshots the parameter server's logical bytes-on-wire: perOp
// maps "op/direction" (e.g. "push_hist/in") to handler payload bytes,
// perEncoding maps "encoding/direction" to histogram vector bytes — every
// vector is deferred, so its keys are "deferred/encode" and
// "deferred/decode". Callers difference two snapshots around a run.
func WireBytes() (perOp, perEncoding map[string]int64) {
	m, _ := psMetrics()
	perOp = make(map[string]int64)
	for _, op := range ops {
		perOp[OpName(op)+"/in"] = m.opBytesIn[op].Value()
		perOp[OpName(op)+"/out"] = m.opBytesOut[op].Value()
	}
	perEncoding = map[string]int64{
		"deferred/encode": vecBytes[dirEncode].Value(),
		"deferred/decode": vecBytes[dirDecode].Value(),
	}
	return perOp, perEncoding
}
