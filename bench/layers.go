package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"dimboost/internal/compress"
	"dimboost/internal/core"
	"dimboost/internal/dataset"
	"dimboost/internal/histogram"
	"dimboost/internal/loss"
	"dimboost/internal/obs"
	"dimboost/internal/parallel"
	"dimboost/internal/predict"
	"dimboost/internal/ps"
	"dimboost/internal/sketch"
	"dimboost/internal/transport"
	"dimboost/internal/tree"
	"dimboost/internal/wire"
)

// perLayer lists every per-layer metric of a traced run with its unit, in
// BENCHMARK.json order. A layer that is not on a workload's path reports 0
// there (ooc.* outside train_ooc_dense; cluster.*, ps.*, compress.*, wire.*
// and transport.* outside train_cluster; parallel.* on train_cluster).
// README.md maps each to the end-to-end metric and workload it should move.
var perLayer = []struct{ name, unit string }{
	{"dataset.load_s", "s"},
	{"sketch.build_s", "s"},
	{"histogram.bin_s", "s"},
	{"histogram.build_root_ns_per_nnz", "ns"},
	{"histogram.build_leaf_ns_per_nnz", "ns"},
	{"histogram.node_mb", "MB"},
	{"histogram.pool_hit_share", "share"},
	{"core.find_split_us_per_node", "us"},
	{"core.phase.sketch_s", "s"},
	{"core.phase.gradients_s", "s"},
	{"core.phase.build_hist_s", "s"},
	{"core.phase.find_split_s", "s"},
	{"core.phase.split_tree_s", "s"},
	{"core.phase.other_s", "s"},
	{"core.train_traced_s", "s"},
	{"tree.split_ns_per_row", "ns"},
	{"parallel.speedup_p2", "x"},
	{"parallel.steal_share", "share"},
	{"ooc.open_s", "s"},
	{"ooc.read_mb", "MB"},
	{"ooc.spill_mb", "MB"},
	{"ooc.cache_hit_share", "share"},
	{"ooc.tracker_peak_mb", "MB"},
	{"ooc.budget_mb", "MB"},
	{"ooc.overhead_share", "share"},
	{"cluster.compute_s", "s"},
	{"cluster.comm_share", "share"},
	{"cluster.ps_round_trip_s", "s"},
	{"cluster.barrier_s", "s"},
	{"cluster.load_s", "s"},
	{"cluster.msgs", "count"},
	{"cluster.modeled_comm_s", "s"},
	{"cluster.measured_comm_s", "s"},
	{"ps.push_mb", "MB"},
	{"ps.pull_mb", "MB"},
	{"ps.hist_mb_fixed", "MB"},
	{"ps.hist_mb_raw", "MB"},
	{"ps.requests", "count"},
	{"ps.dedup_hits", "count"},
	{"ps.push_us_per_shard", "us"},
	{"ps.pull_first_us", "us"},
	{"compress.encode_ns_per_bucket", "ns"},
	{"compress.decode_ns_per_bucket", "ns"},
	{"compress.sparse_ratio", "ratio"},
	{"wire.roundtrip_ns_per_kb", "ns"},
	{"transport.calls", "count"},
	{"transport.retries", "count"},
	{"transport.rpc_mean_us", "us"},
	{"predict.rows_per_s", "1/s"},
	{"predict.compile_ms", "ms"},
	{"predict.bitvector_ns_per_row", "ns"},
	{"predict.soa_ns_per_row", "ns"},
	{"predict.interpreted_ns_per_row", "ns"},
	{"predict.tile16_ns_per_row", "ns"},
	{"predict.allocs_per_batch", "count"},
	{"serve.closed_rps", "1/s"},
	{"serve.startup_ms", "ms"},
	{"serve.handler_us", "us"},
	{"serve.http_overhead_us", "us"},
	{"serve.queue_wait_mean_us", "us"},
	{"serve.p99_ms", "ms"},
	{"serve.p999_ms", "ms"},
	{"serve.p50_ms_at_300", "ms"},
	{"serve.p50_ms_at_1200", "ms"},
	{"serve.max_rate_rps", "1/s"},
	{"serve.shed_share_2x", "share"},
	{"serve.accepted_rps_2x", "1/s"},
	{"serve.retry_after_share", "share"},
	{"serve.coalesce_p50_ms", "ms"},
	{"serve.coalesce_occupancy", "count"},
	{"gen.late_p50_ms", "ms"},
	{"gen.late_p99_ms", "ms"},
	{"mem.alloc_mb", "MB"},
	{"mem.gc_count", "count"},
	{"mem.gc_pause_ms", "ms"},
	{"host.steal_share", "share"},
	{"trace.overhead_share", "share"},
}

// layerRun collects the per-layer numbers of a traced run two ways: by
// timing calls into each module's public functions, and by differencing the
// instruments the modules already export around a traced repetition.
type layerRun struct {
	e *execEnv
	t *trainer

	mem0         runtime.MemStats
	steal0, cpu0 float64

	plainWalls, tracedWalls []float64
	traced                  trainRun // the last traced repetition
}

func newLayerRun(e *execEnv, t *trainer) *layerRun {
	l := &layerRun{e: e, t: t}
	for _, m := range perLayer {
		e.res.Layers[m.name] = metric{Unit: m.unit}
	}
	runtime.ReadMemStats(&l.mem0)
	l.steal0, l.cpu0 = hostSteal()
	return l
}

// set records one per-layer value; a name outside perLayer is a bug.
func (l *layerRun) set(name string, v float64) {
	m, ok := l.e.res.Layers[name]
	if !ok {
		panic("bench: undeclared per-layer metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.Value = v
	l.e.res.Layers[name] = m
}

// obsTotal sums one field of every series of a metric family whose labels
// include match. field is "value" (counters, gauges), "sum" or "count"
// (histograms).
func obsTotal(snap []obs.Snapshot, name, field string, match ...obs.Label) float64 {
	var total float64
	for _, fam := range snap {
		if fam.Name != name {
			continue
		}
	series:
		for _, s := range fam.Series {
			for _, l := range match {
				if s.Labels[l.Key] != l.Value {
					continue series
				}
			}
			switch field {
			case "value":
				total += float64(s.Value)
			case "sum":
				total += s.Sum
			case "count":
				total += float64(s.Count)
			}
		}
	}
	return total
}

// obsDiff evaluates obsTotal after minus before.
type obsDiff struct{ before, after []obs.Snapshot }

func (d obsDiff) of(name, field string, match ...obs.Label) float64 {
	return obsTotal(d.after, name, field, match...) - obsTotal(d.before, name, field, match...)
}

// ratio is part ÷ whole, 0 when there is no whole.
func ratio(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// tracedRep runs one training repetition with per-tree spans and reads the
// modules' own instruments around it.
func (l *layerRun) tracedRep(r int) (trainRun, error) {
	before := obs.Default().Snapshot()
	ops0, enc0 := ps.WireBytes()
	treeStart := time.Now()
	run, err := l.t.rep(trainOpts{run: r, onTree: func(ev core.TreeEvent) {
		now := time.Now()
		l.e.tr.add("tree", ev.Tree, treeStart, now)
		treeStart = now
	}})
	if err != nil {
		return run, err
	}
	d := obsDiff{before, obs.Default().Snapshot()}
	ops1, enc1 := ps.WireBytes()
	l.tracedWalls = append(l.tracedWalls, run.wall.Seconds())
	l.traced = run

	// core: Trainer.Times (cluster: the slowest worker's, Stats.Compute).
	l.set("core.train_traced_s", run.wall.Seconds())
	l.set("core.phase.sketch_s", run.times.Sketch.Seconds())
	l.set("core.phase.gradients_s", run.times.Gradients.Seconds())
	l.set("core.phase.build_hist_s", run.times.BuildHist.Seconds())
	l.set("core.phase.find_split_s", run.times.FindSplit.Seconds())
	l.set("core.phase.split_tree_s", run.times.SplitTree.Seconds())
	l.set("core.phase.other_s", (run.wall - run.times.Total()).Seconds())

	hits := d.of("dimboost_train_hist_pool_hits_total", "value")
	l.set("histogram.pool_hit_share", ratio(hits, hits+d.of("dimboost_train_hist_pool_misses_total", "value")))
	if l.e.w.Mode != modeCluster {
		l.set("parallel.steal_share", ratio(d.of("dimboost_parallel_steals_total", "value"), d.of("dimboost_parallel_tasks_total", "value")))
	}

	switch l.e.w.Mode {
	case modeOOC:
		l.set("ooc.open_s", run.load.Seconds())
		l.set("ooc.read_mb", d.of("dimboost_ooc_read_bytes_total", "value")/1e6)
		l.set("ooc.spill_mb", d.of("dimboost_ooc_spill_bytes_total", "value")/1e6)
		h := d.of("dimboost_ooc_cache_hits_total", "value")
		l.set("ooc.cache_hit_share", ratio(h, h+d.of("dimboost_ooc_cache_misses_total", "value")))
		l.set("ooc.tracker_peak_mb", float64(run.trackerPeak)/1e6)
		l.set("ooc.budget_mb", float64(l.t.budget)/1e6)
		l.e.chk.check(run.trackerPeak <= l.t.budget.Bytes(),
			"out-of-core tracker peak %d exceeds the budget %d", run.trackerPeak, l.t.budget.Bytes())

	case modeCluster:
		st := run.stats
		wall := st.WallTime.Seconds()
		l.set("cluster.compute_s", st.Compute.Total().Seconds())
		l.set("cluster.comm_share", 1-ratio(st.Compute.Total().Seconds(), wall))
		l.set("cluster.measured_comm_s", wall-st.Compute.Total().Seconds())
		l.set("cluster.modeled_comm_s", st.ModeledCommTime.Seconds())
		l.set("cluster.load_s", st.LoadTime.Seconds())
		l.set("cluster.msgs", float64(st.TotalMsgs))
		phase := func(p string) float64 {
			return d.of("dimboost_train_phase_seconds", "sum", obs.L("phase", p)) / clusterNodes
		}
		l.set("cluster.ps_round_trip_s", phase("ps_round_trip"))
		l.set("cluster.barrier_s", phase("barrier"))

		l.set("ps.push_mb", float64(ops1["push_hist/in"]-ops0["push_hist/in"])/1e6)
		var pull int64
		for _, op := range []string{"pull_split", "pull_hist_shard", "pull_split_results", "pull_candidates", "pull_sampled"} {
			pull += ops1[op+"/out"] - ops0[op+"/out"]
		}
		l.set("ps.pull_mb", float64(pull)/1e6)
		l.set("ps.hist_mb_fixed", float64(enc1["fixed/encode"]-enc0["fixed/encode"])/1e6)
		l.set("ps.hist_mb_raw", float64(enc1["float32/encode"]-enc0["float32/encode"])/1e6)
		l.set("ps.requests", d.of("dimboost_ps_requests_total", "value"))
		l.set("ps.dedup_hits", d.of("dimboost_ps_dedup_hits_total", "value"))
		l.set("transport.calls", d.of("dimboost_transport_calls_total", "value"))
		l.set("transport.retries", d.of("dimboost_transport_retries_total", "value"))
		l.set("transport.rpc_mean_us", 1e6*ratio(d.of("dimboost_transport_rpc_seconds", "sum"), d.of("dimboost_transport_rpc_seconds", "count")))
	}
	return run, nil
}

// firstTreeGradients returns every row id of d with the gradients the first
// tree sees (predictions still 0).
func firstTreeGradients(d *dataset.Dataset) (rows []int32, grad, hess []float64) {
	n := d.NumRows()
	rows, grad, hess = make([]int32, n), make([]float64, n), make([]float64, n)
	lf := loss.New(loss.Logistic)
	for i := range rows {
		rows[i] = int32(i)
		grad[i], hess[i] = lf.Gradients(float64(d.Labels[i]), 0)
	}
	return rows, grad, hess
}

// timeIt returns the median wall time of reps calls, in seconds.
func (l *layerRun) timeIt(name string, reps int, fn func()) float64 {
	var secs []float64
	for r := 0; r < reps; r++ {
		end := l.e.tr.begin(name, r)
		t0 := time.Now()
		fn()
		secs = append(secs, time.Since(t0).Seconds())
		end()
	}
	return median(secs)
}

// finish runs what needs the training set resident — the per-module timings
// and the comparison trainings — and closes the harness-level numbers.
func (l *layerRun) finish() error {
	e := l.e
	defer e.tr.begin("layers", 0)()
	path := filepath.Join(e.dir, trainFile)
	var d *dataset.Dataset
	var err error
	l.set("dataset.load_s", l.timeIt("dataset.load", 3, func() { d, err = dataset.ReadBinaryFile(path) }))
	if err != nil {
		return err
	}
	cfg := l.t.config(trainOpts{})
	pool := parallel.New(parallelism)
	n, m := d.NumRows(), d.NumFeatures

	// sketch: the candidates every tree of the workload uses.
	var cands []sketch.Candidates
	l.set("sketch.build_s", l.timeIt("sketch.build", 1, func() {
		set := sketch.NewSet(m, sketchEps)
		set.AddDataset(d)
		cands = set.Candidates(numCandidates)
	}))

	// histogram: quantize once, then the root (all rows) and a deep-layer
	// node (1/64 of the rows, where zero-fill and the merge of the partial
	// histograms outweigh accumulation) with the first tree's gradients.
	var layout *histogram.Layout
	var binned *histogram.Binned
	l.set("histogram.bin_s", l.timeIt("histogram.bin", 3, func() {
		layout, err = histogram.NewLayout(histogram.AllFeatures(m), cands, m)
		if err == nil {
			binned = histogram.NewBinned(d, layout, parallelism)
		}
	}))
	if err != nil {
		return err
	}
	l.set("histogram.node_mb", float64(layout.SizeBytes())/1e6)
	all, grad, hess := firstTreeGradients(d)
	var leaf []int32
	var leafNNZ int64
	var totalG, totalH float64
	for i := range all {
		totalG, totalH = totalG+grad[i], totalH+hess[i]
		if i%64 == 0 {
			leaf = append(leaf, int32(i))
			leafNNZ += int64(d.Row(i).NNZ())
		}
	}
	opts := histogram.BuildOptions{Parallelism: parallelism, BatchSize: cfg.BatchSize, Pool: histogram.NewPool(layout)}
	root := histogram.New(layout)
	l.set("histogram.build_root_ns_per_nnz", 1e9*l.timeIt("histogram.build_root", 3, func() {
		histogram.BuildBinned(root, binned, all, grad, hess, opts)
	})/float64(d.NNZ()))
	deep := histogram.New(layout)
	l.set("histogram.build_leaf_ns_per_nnz", 1e9*l.timeIt("histogram.build_leaf", 5, func() {
		histogram.BuildBinned(deep, binned, leaf, grad, hess, opts)
	})/float64(max(leafNNZ, 1)))

	// core and tree: split finding over the root histogram, then the stable
	// row partition that applies the winning split.
	var split core.Split
	l.set("core.find_split_us_per_node", 1e6*l.timeIt("core.find_split", 3, func() {
		split = core.FindSplit(root, totalG, totalH, cfg.Lambda, cfg.Gamma, cfg.MinChildHessian)
	}))
	if split.Found {
		goLeft := core.SplitPredicate(d, binned, layout, split)
		var secs []float64
		for r := 0; r < 3; r++ {
			idx := tree.NewIndex(n, tree.MaxNodes(cfg.MaxDepth))
			end := e.tr.begin("tree.split", r)
			t0 := time.Now()
			idx.SplitStable(0, goLeft, pool)
			secs = append(secs, time.Since(t0).Seconds())
			end()
		}
		l.set("tree.split_ns_per_row", 1e9*median(secs)/float64(n))
	}

	if e.w.Mode == modeCluster {
		if err := l.clusterLayers(d, root, deep, layout); err != nil {
			return err
		}
	}

	// Comparison trainings. The models must be bit-identical to the traced
	// repetition's (DESIGN invariants 15 and 17).
	ref := l.traced.model.PredictBatch(e.in.valid)
	if e.w.Mode != modeCluster {
		p1, err := l.t.rep(trainOpts{parallelism: 1, run: 100})
		if err != nil {
			return err
		}
		l.set("parallel.speedup_p2", ratio(p1.train.Seconds(), l.traced.train.Seconds()))
		e.chk.check(sameBits(p1.model.PredictBatch(e.in.valid), ref), "Parallelism=1 model differs from Parallelism=%d", parallelism)
	}
	if e.w.Mode == modeOOC {
		res, err := l.t.rep(trainOpts{mode: modeResident, run: 101})
		if err != nil {
			return err
		}
		l.set("ooc.overhead_share", ratio((l.traced.wall-res.wall).Seconds(), l.traced.wall.Seconds()))
		e.chk.check(sameBits(res.model.PredictBatch(e.in.valid), ref), "resident model differs from the out-of-core model")
	}

	s0, s1 := sorted(l.plainWalls), sorted(l.tracedWalls)
	l.set("trace.overhead_share", ratio(s1[0]-s0[0], s0[0]))

	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	alloc, gcs, pause := memDelta(&l.mem0, &mem1)
	l.set("mem.alloc_mb", alloc)
	l.set("mem.gc_count", gcs)
	l.set("mem.gc_pause_ms", pause)
	steal1, cpu1 := hostSteal()
	l.set("host.steal_share", ratio(steal1-l.steal0, cpu1-l.cpu0))
	return nil
}

// clusterLayers times the communication modules on this workload's own
// histograms: the fixed-point codec (at the workload's push width) and the
// sparse encoding on server 0's shard,
// the wire framing of one push payload, and one push → first-pull round on
// a bare parameter server.
func (l *layerRun) clusterLayers(d *dataset.Dataset, root, deep *histogram.Histogram, layout *histogram.Layout) error {
	e := l.e
	part, err := ps.NewPartition(d.NumFeatures, clusterNodes, 0)
	if err != nil {
		return err
	}
	shard := func(h *histogram.Histogram) []float64 {
		var g []float64
		for _, f := range part.FeaturesOf(0, layout.Features) {
			lo, hi := layout.BucketRange(int(layout.Pos(f)))
			g = append(g, h.G[lo:hi]...)
		}
		return g
	}
	g := shard(root)
	enc := compress.NewEncoder(1)
	var c *compress.Compressed
	l.set("compress.encode_ns_per_bucket", 1e9*l.timeIt("compress.encode", 5, func() {
		c, err = enc.Encode(g, clusterBits)
	})/float64(len(g)))
	if err != nil {
		return err
	}
	dst := make([]float64, len(g))
	l.set("compress.decode_ns_per_bucket", 1e9*l.timeIt("compress.decode", 5, func() {
		err = compress.DecodeInto(dst, c)
	})/float64(len(g)))
	if err != nil {
		return err
	}
	sp, err := compress.EncodeSparse(enc, shard(deep), clusterBits)
	if err != nil {
		return err
	}
	l.set("compress.sparse_ratio", ratio(float64(sp.WireSize()), float64(compress.CompressedSize(len(g), clusterBits))))

	l.set("wire.roundtrip_ns_per_kb", 1e9*l.timeIt("wire.roundtrip", 5, func() {
		w := wire.NewWriter(32 + len(c.Data))
		w.Int32(0)
		w.Uint8(uint8(c.Bits))
		w.Int32(int32(c.N))
		w.Float64(c.MaxAbs)
		w.Bytes32(c.Data)
		r := wire.NewReader(w.Bytes())
		r.Int32()
		r.Uint8()
		r.Int32()
		r.Float64()
		r.Bytes32()
		err = r.Err()
	})/(float64(len(c.Data))/1024))
	if err != nil {
		return err
	}

	// A bare ps.Server + ps.Client pair per node over the mem network: both
	// workers push their root histogram, the first pull pays the deferred
	// decode + merge.
	net := transport.NewMemNetwork()
	defer net.Close()
	names := make([]string, clusterNodes)
	for i := range names {
		names[i] = fmt.Sprintf("server-%d", i)
		ep, err := net.Endpoint(names[i])
		if err != nil {
			return err
		}
		ep.Handle(ps.NewServer(i, part, sketchEps).Handler())
	}
	shards := dataset.PartitionRows(d, clusterNodes)
	clients := make([]*ps.Client, clusterNodes)
	for i := range clients {
		ep, err := net.Endpoint(fmt.Sprintf("worker-%d", i))
		if err != nil {
			return err
		}
		clients[i] = ps.NewClient(ep, part, names, i)
		clients[i].Bits = clusterBits
		set := sketch.NewSet(d.NumFeatures, sketchEps)
		set.AddDataset(shards[i])
		if err := clients[i].PushSketches(set); err != nil {
			return err
		}
	}
	cands, err := clients[0].PullCandidates(numCandidates)
	if err != nil {
		return err
	}
	features := histogram.AllFeatures(d.NumFeatures)
	if err := clients[0].NewTree(features); err != nil {
		return err
	}
	psLayout, err := histogram.NewLayout(features, cands, d.NumFeatures)
	if err != nil {
		return err
	}
	hists := make([]*histogram.Histogram, clusterNodes)
	for i, sh := range shards {
		rows, grad, hess := firstTreeGradients(sh)
		hists[i] = histogram.New(psLayout)
		histogram.BuildBinned(hists[i], histogram.NewBinned(sh, psLayout, 1), rows, grad, hess, histogram.BuildOptions{Parallelism: 1})
	}
	end := e.tr.begin("ps.push", 0)
	t0 := time.Now()
	for i, c := range clients {
		if err := c.PushHistogram(0, hists[i]); err != nil {
			return err
		}
	}
	l.set("ps.push_us_per_shard", 1e6*time.Since(t0).Seconds()/float64(clusterNodes*clusterNodes))
	end()
	cfg := l.t.config(trainOpts{})
	end = e.tr.begin("ps.pull_first", 0)
	t0 = time.Now()
	_, err = clients[0].PullSplit(0, cfg.Lambda, cfg.Gamma, cfg.MinChildHessian)
	l.set("ps.pull_first_us", 1e6*time.Since(t0).Seconds())
	end()
	return err
}

// serveLayers breaks the request path down: the engines alone, the handler
// without sockets, and open-loop passes at other rates, past capacity, and
// with coalescing. Only the overload pass is meant to shed; it is excluded
// from the failure count.
func (l *layerRun) serveLayers(sv *serving) error {
	e := l.e
	valid := e.in.valid
	m, srv, sc, op := sv.m, sv.srv, sv.sc, sv.open
	l.set("predict.rows_per_s", median(sv.predictRates))
	l.set("serve.closed_rps", median(sv.closedRPS))
	l.set("serve.startup_ms", 1e3*e.res.Detail["startup_s"])

	// predict: compile, then every backend on the same rows, one worker.
	l.set("predict.compile_ms", 1e3*l.timeIt("predict.compile", 3, func() {
		predict.CompileBackend(m.Trees, m.BaseScore, predict.BackendAuto) //nolint:errcheck // compiled and checked below
	}))
	out := make([]float64, valid.NumRows())
	perRow := func(name string, rows int, score func()) float64 {
		defer e.tr.begin(name, 0)()
		score() // warm-up
		calls := 0
		t0 := time.Now()
		for time.Since(t0) < e.share(0.008) {
			score()
			calls++
		}
		return 1e9 * time.Since(t0).Seconds() / float64(calls*rows)
	}
	for _, b := range []struct {
		name    string
		backend predict.Backend
	}{{"predict.bitvector_ns_per_row", predict.BackendBitvector}, {"predict.soa_ns_per_row", predict.BackendSoA}} {
		eng, err := predict.CompileBackend(m.Trees, m.BaseScore, b.backend)
		if err != nil {
			continue // an ensemble past the bitvector leaf limit reports 0
		}
		eng.Workers = 1
		l.set(b.name, perRow(b.name, len(out), func() { eng.PredictBatchInto(valid, out) }))
	}
	l.set("predict.interpreted_ns_per_row", perRow("predict.interpreted", len(out), func() {
		for i := range out {
			out[i] = m.Predict(valid.Row(i))
		}
	}))
	eng, err := m.Compiled()
	if err != nil {
		return err
	}
	tile := make([]dataset.Instance, 16)
	for i := range tile {
		tile[i] = valid.Row(i % valid.NumRows())
	}
	tileOut := make([]float64, len(tile))
	l.set("predict.tile16_ns_per_row", perRow("predict.tile16", len(tile), func() { eng.PredictInstancesInto(tile, tileOut) }))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	const batches = 200
	for i := 0; i < batches; i++ {
		eng.PredictInstancesInto(tile, tileOut)
	}
	runtime.ReadMemStats(&ms1)
	l.set("predict.allocs_per_batch", float64(ms1.Mallocs-ms0.Mallocs)/batches)

	// serve: the handler on an in-process recorder — decode, admit, score,
	// encode, no sockets.
	handler := medianCallUS(e, "serve.handler", func(i int) {
		req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(sc.bodies[i%len(sc.bodies)]))
		req.Header.Set("Content-Type", "application/json")
		srv.h.ServeHTTP(httptest.NewRecorder(), req)
	})
	l.set("serve.handler_us", handler)
	lat := op.latencies()
	l.set("serve.http_overhead_us", 1e3*percentile(lat, 0.5)-handler)
	l.set("serve.p99_ms", percentile(lat, 0.99))
	l.set("serve.p999_ms", percentile(lat, 0.999))
	late := sorted(op.lateMS)
	l.set("gen.late_p50_ms", percentile(late, 0.5))
	l.set("gen.late_p99_ms", percentile(late, 0.99))

	// Other fixed rates: latency at each, and the highest that keeps
	// p90 ≤ 5 ms without a growing backlog.
	passes := map[float64]openResult{e.w.Rate: op}
	for _, rate := range sweepRates {
		end := e.tr.begin(fmt.Sprintf("serve.open_loop_%.0f", rate), 0)
		r := openLoop(sv.openClients, sc, rate, e.share(sweepShare), nil)
		end()
		e.chk.tally(int64(r.n), int64(r.n)-r.ok, "open loop "+r.String())
		passes[rate] = r
	}
	l.set("serve.p50_ms_at_300", percentile(passes[300].latencies(), 0.5))
	l.set("serve.p50_ms_at_1200", percentile(passes[1200].latencies(), 0.5))
	var maxRate float64
	for rate, r := range passes {
		if rate > maxRate && r.ok == int64(r.n) && percentile(r.latencies(), 0.9) <= 5 && !r.backlogGrew() {
			maxRate = rate
		}
	}
	l.set("serve.max_rate_rps", maxRate)
	qd := obsDiff{nil, obs.Default().Snapshot()}
	l.set("serve.queue_wait_mean_us", 1e6*ratio(qd.of("dimboost_serve_queue_wait_seconds", "sum"), qd.of("dimboost_serve_queue_wait_seconds", "count")))

	// Overload: 2× this run's closed-loop rate, the only phase meant to shed.
	// It needs more senders than the limiter admits and queues (8 + 32), or
	// the arrival schedule could never get ahead of the server.
	overClients := newClients(srv.url, 64)
	end := e.tr.begin("serve.overload_2x", 0)
	over := openLoop(overClients, sc, 2*median(sv.closedRPS), e.share(sweepShare), nil)
	end()
	closeClients(overClients)
	l.set("serve.shed_share_2x", ratio(float64(over.shed), float64(over.n)))
	l.set("serve.accepted_rps_2x", float64(over.ok)/over.elapsed.Seconds())
	l.set("serve.retry_after_share", ratio(float64(over.retryAfter), float64(over.shed)))

	// Coalescing on: one pass at the workload's rate against a second server.
	co, err := startServer(m, true)
	if err != nil {
		return err
	}
	defer co.stop()
	coClients := newClients(co.url, openSenders)
	defer closeClients(coClients)
	end = e.tr.begin("serve.coalesce", 0)
	r := openLoop(coClients, sc, e.w.Rate, e.share(sweepShare), nil)
	end()
	e.chk.tally(int64(r.n), int64(r.n)-r.ok, "coalesced open loop "+r.String())
	l.set("serve.coalesce_p50_ms", percentile(r.latencies(), 0.5))
	l.set("serve.coalesce_occupancy", co.h.Coalescer().Stats().MeanOccupancy())
	return nil
}

// medianCallUS times fn(i) in a loop for a slice of the run and returns the
// median call time in microseconds.
func medianCallUS(e *execEnv, name string, fn func(i int)) float64 {
	defer e.tr.begin(name, 0)()
	fn(0) // warm-up
	var us []float64
	t0 := time.Now()
	for i := 1; time.Since(t0) < e.share(0.01); i++ {
		c0 := time.Now()
		fn(i)
		us = append(us, 1e6*time.Since(c0).Seconds())
	}
	return median(us)
}
