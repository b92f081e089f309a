package ps

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dimboost/internal/compress"
	"dimboost/internal/core"
	"dimboost/internal/histogram"
	"dimboost/internal/sketch"
	"dimboost/internal/transport"
	"dimboost/internal/wire"
)

// Client is a worker's view of the parameter-server fleet. It shards pushes
// by the partition, fans pulls out to every server in parallel, and folds
// two-phase split responses with core.BestOf. A Client is used by a single
// worker goroutine; the compressor it owns is seeded per worker so
// stochastic rounding is reproducible.
type Client struct {
	ep      transport.Endpoint
	part    *Partition
	servers []string
	worker  int32

	// Bits selects the compressed histogram width for pushes; 0 sends
	// float32.
	Bits uint
	// PullBits, when nonzero, asks servers for compact split records: the
	// statistics narrowed to float32, feature and value exact.
	PullBits uint
	// Exact sends float64 buckets (twice the paper's wire size); used by
	// tests needing bit-level agreement with single-process training.
	// Mutually exclusive with Bits and PullBits.
	Exact bool

	enc *compress.Encoder
	// seq numbers every outgoing request (see the envelope notes in
	// proto.go); a transport-level retry resends the same seq, which is
	// what lets servers drop duplicates of mutating ops.
	seq atomic.Uint64

	// plan is the shard geometry of the layout last pushed — one per tree,
	// since a tree's histograms share a layout.
	plan *shardPlan
	// pushReqs holds one reusable push request per server, and parts and
	// hparts the span scratch they are encoded from. A request's bytes
	// belong to the transport until Call returns — a RetryEndpoint resends
	// them from inside Call — so a buffer is rewritten only by the next
	// PushHistogram, which starts after every Call of this one returned.
	pushReqs      []*wire.Writer
	parts, hparts [][]float64
	// touched holds each server's share of the deferred histogram being
	// pushed.
	touched []touchedShard
}

// NewClient binds a worker endpoint to the server fleet. serverNames is
// indexed by server id.
func NewClient(ep transport.Endpoint, part *Partition, serverNames []string, workerID int) *Client {
	c := &Client{
		ep:       ep,
		part:     part,
		servers:  serverNames,
		worker:   int32(workerID),
		enc:      compress.NewEncoder(int64(workerID) + 1),
		pushReqs: make([]*wire.Writer, len(serverNames)),
		touched:  make([]touchedShard, len(serverNames)),
	}
	for sv := range c.pushReqs {
		c.pushReqs[sv] = wire.NewWriter(0)
	}
	return c
}

// newRequest starts a request: a writer already holding the idempotency
// envelope, ready for the op's own fields. capacity hints their size.
func (c *Client) newRequest(capacity int) *wire.Writer {
	w := wire.NewWriter(envelopeSize + capacity)
	c.writeEnvelope(w)
	return w
}

// writeEnvelope stamps a fresh seq. The envelope (and its seq) is written
// once per logical request; retries inside the endpoint resend the
// identical bytes.
func (c *Client) writeEnvelope(w *wire.Writer) {
	w.Int32(c.worker)
	w.Uint64(c.seq.Add(1))
}

// send delivers one enveloped request to server sv.
func (c *Client) send(sv int, op uint8, req *wire.Writer) (transport.Message, error) {
	_, m := psMetrics()
	msg := transport.Message{Op: op, Body: req.Bytes()}
	m.requests.Inc()
	m.bytesOut.Add(msg.Size())
	resp, err := c.ep.Call(c.servers[sv], msg)
	if err == nil {
		m.bytesIn.Add(resp.Size())
	}
	return resp, err
}

// fanOut calls every server concurrently and collects responses in server
// order. request builds server sv's enveloped request; nil skips the
// server.
func (c *Client) fanOut(op uint8, request func(server int) *wire.Writer) ([]transport.Message, error) {
	resps := make([]transport.Message, len(c.servers))
	errs := make([]error, len(c.servers))
	var wg sync.WaitGroup
	for sv := range c.servers {
		wg.Add(1)
		go func(sv int) {
			defer wg.Done()
			req := request(sv)
			if req == nil {
				return
			}
			resps[sv], errs[sv] = c.send(sv, op, req)
		}(sv)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return resps, nil
}

// PushSketches sends each server the sketch summaries of the features it
// owns (CREATE_SKETCH), written straight from each GK into a request sized
// exactly before any byte is written, so it is allocated once.
func (c *Client) PushSketches(set *sketch.Set) error {
	_, err := c.fanOut(OpPushSketch, func(sv int) *wire.Writer {
		feats, gks, size := ownedSketches(set, c.part, sv)
		w := c.newRequest(size)
		writeFeatureRecords(w, feats, func(i int) { gks[i].WriteWire(w) })
		return w
	})
	return err
}

// ownedSketches lists the features of set that server sv owns and have a
// sketch, ascending, with their sketches and the exact size of the
// PUSH_SKETCH body that carries them.
func ownedSketches(set *sketch.Set, part *Partition, sv int) (feats []int32, gks []*sketch.GK, size int) {
	for f := 0; f < set.NumFeatures(); f++ {
		if gk := set.Feature(f); gk != nil && part.ServerOf(int32(f)) == sv {
			feats, gks = append(feats, int32(f)), append(gks, gk)
			size += gk.WireSize()
		}
	}
	return feats, gks, size + recordFramingSize(feats)
}

// PullCandidates fetches every server's candidates and assembles the full
// per-feature table (PULL_SKETCH). Features without data share
// sketch.ZeroCut. A reply naming a feature outside the partition, out
// of ascending order or not owned by the replying server is refused with
// ErrBadFeatureID, one whose cuts no proposal produces with
// sketch.ErrInvalidCuts.
func (c *Client) PullCandidates(k int) ([]sketch.Candidates, error) {
	req := func(int) *wire.Writer {
		w := c.newRequest(4)
		w.Uint32(uint32(k))
		return w
	}
	resps, err := c.fanOut(OpPullCandidates, req)
	if err != nil {
		return nil, err
	}
	out := make([]sketch.Candidates, c.part.NumFeatures)
	for f := range out {
		out[f] = sketch.ZeroCut()
	}
	for sv, resp := range resps {
		if err := readCandidates(resp.Body, c.part, sv, out); err != nil {
			return nil, fmt.Errorf("ps: candidates from server %d: %w", sv, err)
		}
	}
	return out, nil
}

// readCandidates stores the cut lists of a PULL_CANDIDATES reply from server
// sv in out, indexed by feature.
func readCandidates(body []byte, part *Partition, sv int, out []sketch.Candidates) error {
	r := wire.NewReader(body)
	return readFeatureRecords(r, part, sv, func(f int32) error {
		c, err := sketch.ReadCuts(r)
		if err == nil {
			out[f] = c
		}
		return err
	})
}

// PushSampled stores the sampled feature list on every server; the leader
// worker calls this once per tree.
func (c *Client) PushSampled(features []int32) error {
	_, err := c.fanOut(OpPushSampled, func(int) *wire.Writer {
		w := c.newRequest(5 + 4*len(features))
		writeFeatures(w, features)
		return w
	})
	return err
}

// PullSampled fetches the sampled feature list from server 0.
func (c *Client) PullSampled() ([]int32, error) {
	resp, err := c.send(0, OpPullSampled, c.newRequest(0))
	if err != nil {
		return nil, err
	}
	return readFeatures(wire.NewReader(resp.Body), c.part.NumFeatures)
}

// NewTree resets per-tree server state and installs the shard layouts.
func (c *Client) NewTree(sampled []int32) error {
	_, err := c.fanOut(OpNewTree, func(int) *wire.Writer {
		w := c.newRequest(5 + 4*len(sampled))
		writeFeatures(w, sampled)
		return w
	})
	return err
}

// planFor returns the shard plan of a layout, rebuilding it when the
// layout changed (once per tree, or per run when workers reuse one layout).
func (c *Client) planFor(layout *histogram.Layout) *shardPlan {
	if c.plan == nil || c.plan.layout != layout {
		c.plan = newShardPlan(c.part, layout)
	}
	return c.plan
}

// pushEncoding is the vector encoding applied to outgoing histograms.
func (c *Client) pushEncoding() vecEncoding {
	return vecEncoding{bits: c.Bits, exact: c.Exact}
}

// pullEncoding is the encoding stated in pull requests: it decides the
// split-record layout.
func (c *Client) pullEncoding() vecEncoding {
	return vecEncoding{bits: c.PullBits, exact: c.Exact}
}

// PushHistogram shards a node's local histogram across the fleet, applying
// the configured low-precision compression (FIND_SPLIT, push half). Each
// server's shard travels in touched space — its touched set, deferred mass
// and touched buckets (deferred.go). A materialised histogram goes with every
// position touched and its node totals as the mass. A mass the wire cannot
// carry finite is refused with compress.ErrNonFinite.
func (c *Client) PushHistogram(node int, hist *histogram.Histogram) error {
	plan := c.planFor(hist.Layout)
	width := c.pushEncoding().spanBits()
	massG, massH := hist.DeferredMass()
	if !hist.Deferred() {
		massG, massH = hist.FeatureTotals(0)
	}
	if !finite(wireMass(massG, width)) || !finite(wireMass(massH, width)) {
		return compress.ErrNonFinite
	}
	// Requests are encoded serially, server by server and G before H: the
	// stochastic compressor is not concurrency-safe, and its draw order is
	// part of the run's reproducibility.
	for sv, w := range c.pushReqs {
		ts := &c.touched[sv]
		plan.touched(ts, sv, hist)
		c.parts = spanParts(c.parts, ts.runs, hist.G)
		c.hparts = spanParts(c.hparts, ts.runs, hist.H)
		w.Reset()
		c.writeEnvelope(w)
		w.Int32(int32(node))
		if err := writeDeferredShard(w, c.enc, width, ts, plan.npos[sv], massG, massH, c.parts, c.hparts); err != nil {
			return err
		}
	}
	_, err := c.fanOut(OpPushHist, func(sv int) *wire.Writer { return c.pushReqs[sv] })
	return err
}

// PullSplit asks every server for its shard-local best split and folds them
// into the global best (two-phase split finding, §6.3).
func (c *Client) PullSplit(node int, lambda, gamma, minChild float64) (core.Decision, error) {
	return c.pullSplit(node, false, lambda, gamma, minChild)
}

// PullDerivedSplit is PullSplit for a node no worker pushed: every server
// first derives its shard of the node as parent − sibling from the merged
// shards it holds, and keeps it as if it had been pushed.
func (c *Client) PullDerivedSplit(node int, lambda, gamma, minChild float64) (core.Decision, error) {
	return c.pullSplit(node, true, lambda, gamma, minChild)
}

func (c *Client) pullSplit(node int, derive bool, lambda, gamma, minChild float64) (core.Decision, error) {
	req := func(int) *wire.Writer {
		w := c.newRequest(31)
		w.Int32(int32(node))
		w.Float64(lambda)
		w.Float64(gamma)
		w.Float64(minChild)
		writeEncoding(w, c.pullEncoding())
		w.Bool(derive)
		return w
	}
	resps, err := c.fanOut(OpPullSplit, req)
	if err != nil {
		return core.Decision{}, err
	}
	var out core.Decision
	for _, resp := range resps {
		r := wire.NewReader(resp.Body)
		rec, err := readSplitRecord(r)
		if err != nil {
			return core.Decision{}, err
		}
		if rec.Split.Better(out.Split) {
			out.Split = rec.Split
		}
		if rec.HasTotals && !out.HasTotals {
			out.G, out.H, out.HasTotals = rec.G, rec.H, true
		}
	}
	return out, nil
}

// PushSplitResult stores a node's global best split (plus its node totals,
// needed by peers to weight unsplit leaves) on its owner server.
func (c *Client) PushSplitResult(node int, res core.Decision) error {
	w := c.newRequest(96)
	w.Int32(int32(node))
	// Stored split results are authoritative for tree construction; they
	// always travel at full precision regardless of the pull encoding.
	writeSplitRecord(w, res, false)
	owner := c.part.NodeOwner(node)
	_, err := c.send(owner, OpPushSplitResult, w)
	return err
}

// PullSplitResults fetches the stored splits for a node set (SPLIT_TREE).
// Nodes without a stored split are absent from the result map.
func (c *Client) PullSplitResults(nodes []int) (map[int]core.Decision, error) {
	byServer := make(map[int][]int32)
	for _, n := range nodes {
		owner := c.part.NodeOwner(n)
		byServer[owner] = append(byServer[owner], int32(n))
	}
	out := make(map[int]core.Decision, len(nodes))
	resps, err := c.fanOut(OpPullSplitResults, func(sv int) *wire.Writer {
		ns := byServer[sv]
		if len(ns) == 0 {
			return nil // skip servers owning none of the nodes
		}
		w := c.newRequest(8 + 4*len(ns))
		w.Int32s(ns)
		writeEncoding(w, c.pullEncoding())
		return w
	})
	if err != nil {
		return nil, err
	}
	for sv, resp := range resps {
		if len(byServer[sv]) == 0 {
			continue
		}
		r := wire.NewReader(resp.Body)
		n := int(r.Uint32())
		for i := 0; i < n; i++ {
			node := r.Int32()
			ok := r.Bool()
			rec, err := readSplitRecord(r)
			if err != nil {
				return nil, err
			}
			if ok {
				out[int(node)] = rec
			}
		}
	}
	return out, nil
}
