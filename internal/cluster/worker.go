package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"dimboost/internal/core"
	"dimboost/internal/dataset"
	"dimboost/internal/histogram"
	"dimboost/internal/loss"
	"dimboost/internal/parallel"
	"dimboost/internal/predict"
	"dimboost/internal/ps"
	"dimboost/internal/sketch"
	"dimboost/internal/transport"
	"dimboost/internal/tree"
)

// worker executes the seven-phase loop of Figure 7 on its data shard.
// Worker 0 is the leader: it samples features and pushes them to the PS.
type worker struct {
	id     int
	cfg    Config
	shard  *dataset.Dataset
	ep     transport.Endpoint
	client *ps.Client

	cands []sketch.Candidates
	// layout, binned, histPool and hist are the current tree's sampled
	// layout, the shard's quantized mirror under it, and the partial and
	// node histograms of that layout; see trainTree for their lifetime.
	layout   *histogram.Layout
	binned   *histogram.Binned
	histPool *histogram.Pool
	hist     *histogram.Histogram

	preds  []float64
	grad   []float64
	hess   []float64
	model  *core.Model
	lossFn loss.Func
	rng    *rand.Rand
	// pool is the shared chunked worker pool every local compute phase
	// (gradients, histogram builds, index splits, scoring) runs through —
	// the same machinery as the single-process trainer, with the same
	// any-parallelism bit-identity guarantee.
	pool *parallel.Pool

	times core.PhaseTimes
	// events records per-tree progress for convergence curves; only the
	// leader's events are reported.
	events []core.TreeEvent
	start  time.Time

	// computeLock, when non-nil, serializes compute sections across
	// workers so phase timers stay truthful on over-subscribed machines.
	computeLock *sync.Mutex

	// checkpoint, when non-nil, receives the encoded model after every
	// finished tree; the driver sets it on the leader only.
	checkpoint CheckpointSink
	// resume, when non-nil, restarts boosting after the checkpointed trees.
	resume *Checkpoint
}

func (wk *worker) barrier(phase string) error {
	start := time.Now()
	err := barrier(wk.ep, phase)
	clusterMetrics().spans.Record(wk.id, -1, -1, "barrier", start, time.Since(start))
	return err
}

// compute runs f inside the optional serialization lock and returns its
// duration.
func (wk *worker) compute(f func()) time.Duration {
	if wk.computeLock != nil {
		wk.computeLock.Lock()
		defer wk.computeLock.Unlock()
	}
	start := time.Now()
	f()
	return time.Since(start)
}

// run drives the full training loop and leaves the model in wk.model.
func (wk *worker) run() error {
	n := wk.shard.NumRows()
	wk.preds = make([]float64, n)
	wk.grad = make([]float64, n)
	wk.hess = make([]float64, n)
	wk.lossFn = loss.New(wk.cfg.Loss)
	wk.model = &core.Model{Loss: wk.cfg.Loss}
	wk.rng = rand.New(rand.NewSource(wk.cfg.Seed))
	wk.pool = parallel.New(wk.cfg.ResolvedParallelism())
	wk.start = time.Now()

	startTree := 0
	if wk.resume != nil {
		startTree = wk.resume.TreesDone
		wk.restoreFrom(wk.resume)
	}

	// Phase 1: CREATE_SKETCH — local sketches, one feature range per pool
	// worker (the single-process trainer's driver), pushed to the PS.
	var set *sketch.Set
	ss := time.Now()
	sd := wk.compute(func() {
		set = sketch.NewSet(wk.shard.NumFeatures, wk.cfg.sketchEps())
		set.AddRows(wk.pool, n, sketch.Resident(wk.shard))
	})
	wk.times.Sketch += sd
	clusterMetrics().spans.Record(wk.id, -1, -1, "sketch", ss, sd)
	if err := wk.client.PushSketches(set); err != nil {
		return err
	}
	if err := wk.barrier("CREATE_SKETCH"); err != nil {
		return err
	}

	// Phase 2: PULL_SKETCH — merged candidates for every feature.
	var err error
	wk.cands, err = wk.client.PullCandidates(wk.cfg.NumCandidates)
	if err != nil {
		return err
	}
	if err := wk.barrier("PULL_SKETCH"); err != nil {
		return err
	}

	for t := startTree; t < wk.cfg.NumTrees; t++ {
		if err := wk.trainTree(t); err != nil {
			return fmt.Errorf("cluster: worker %d tree %d: %w", wk.id, t, err)
		}
		if err := wk.saveCheckpoint(t + 1); err != nil {
			return err
		}
	}
	// FINISH: the leader would write the model out; here every worker holds
	// the identical model and the driver collects worker 0's.
	return wk.barrier("FINISH")
}

// restoreFrom adopts a checkpoint: the finished trees, shard predictions
// recomputed from them, and the feature-sampling RNG replayed past the
// consumed draws — after which boosting continues exactly as if the run had
// never been interrupted. Recomputing predictions replays one leaf-weight
// addition per row per tree in tree order through the compiled engine, the
// same accumulation training performed, so the restored predictions are
// bit-identical to the originals. (Training skips zero-weight leaves; the
// engine adds a +0 tree score instead, which is also a no-op since
// predictions accumulated from +0 by nonzero additions can never be -0.)
func (wk *worker) restoreFrom(ck *Checkpoint) {
	wk.model.BaseScore = ck.Model.BaseScore
	wk.model.Trees = append(wk.model.Trees, ck.Model.Trees...)
	wk.events = append(wk.events, ck.Events...)
	wk.compute(func() {
		n := wk.shard.NumRows()
		scratch := make([]float64, n)
		for _, tn := range ck.Model.Trees {
			eng, err := predict.Compile([]*tree.Tree{tn}, 0)
			if err != nil {
				// Checkpointed trees passed decode validation; an invalid
				// tree here means memory corruption — fall back to the
				// interpreted walk rather than lose the restore.
				for i := 0; i < n; i++ {
					if w := tn.Predict(wk.shard.Row(i)); w != 0 {
						wk.preds[i] += w
					}
				}
				continue
			}
			eng.Workers = wk.pool.Workers()
			eng.PredictBatchInto(wk.shard, scratch)
			wk.pool.For(n, parallel.RowChunk, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					wk.preds[i] += scratch[i]
				}
			})
		}
	})
	// Every worker draws one feature sample per tree (the leader pushes it,
	// the rest keep their RNGs in step), so fast-forward by replaying.
	for t := 0; t < ck.TreesDone; t++ {
		wk.sampleFeatures()
	}
}

// saveCheckpoint encodes the model state once tree treesDone−1 is finished
// and hands it to the sink. Only the leader carries a sink; a sink failure
// is fatal so a run never silently outlives its checkpoint coverage.
func (wk *worker) saveCheckpoint(treesDone int) error {
	if wk.checkpoint == nil {
		return nil
	}
	ck := &Checkpoint{
		TreesDone:   treesDone,
		Model:       wk.model,
		Events:      wk.events,
		Fingerprint: fingerprintOf(wk.cfg),
	}
	if err := wk.checkpoint.Save(treesDone, ck.Encode()); err != nil {
		return fmt.Errorf("cluster: checkpoint after tree %d: %w", treesDone-1, err)
	}
	return nil
}

// sampleFeatures draws the leader's per-tree feature subset.
func (wk *worker) sampleFeatures() []int32 {
	m := wk.shard.NumFeatures
	if wk.cfg.FeatureSampleRatio >= 1 {
		return histogram.AllFeatures(m)
	}
	k := int(wk.cfg.FeatureSampleRatio * float64(m))
	if k < 1 {
		k = 1
	}
	perm := wk.rng.Perm(m)[:k]
	out := make([]int32, k)
	for i, f := range perm {
		out[i] = int32(f)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// trainTree runs NEW_TREE → (BUILD_HISTOGRAM → FIND_SPLIT → SPLIT_TREE)* for
// one tree.
func (wk *worker) trainTree(t int) error {
	cfg := wk.cfg
	n := wk.shard.NumRows()
	m := clusterMetrics()
	treeStart := time.Now()

	// Phase 3: NEW_TREE — gradients, leader samples features.
	gs := time.Now()
	gd := wk.compute(func() {
		wk.pool.For(n, parallel.RowChunk, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				wk.grad[i], wk.hess[i] = wk.lossFn.Gradients(float64(wk.shard.Labels[i]), wk.preds[i])
			}
		})
	})
	wk.times.Gradients += gd
	m.spans.Record(wk.id, t, -1, "gradients", gs, gd)

	if wk.id == 0 {
		sampled := wk.sampleFeatures()
		if err := wk.client.NewTree(sampled); err != nil {
			return err
		}
	} else {
		// keep non-leader RNGs in step so every tree uses one draw
		wk.sampleFeatures()
	}
	if err := wk.barrier("NEW_TREE"); err != nil {
		return err
	}
	sampled, err := wk.client.PullSampled()
	if err != nil {
		return err
	}
	// Quantize the shard under the sampled layout: histogram construction
	// and node splitting both run on bin ids (Config.NoBinning ablates back
	// to the float path; models are bit-identical either way). With every
	// feature sampled the layout is the same for every tree, so the first
	// tree's serves the run.
	if wk.layout == nil || cfg.FeatureSampleRatio < 1 {
		layout, err := histogram.NewLayout(sampled, wk.cands, wk.shard.NumFeatures)
		if err != nil {
			return err
		}
		wk.layout, wk.binned = layout, nil
		wk.histPool = histogram.NewPool(layout)
		wk.hist = histogram.New(layout)
		if !cfg.NoBinning {
			bs := time.Now()
			bd := wk.compute(func() {
				wk.binned = histogram.NewBinned(wk.shard, layout, wk.pool.Workers())
			})
			wk.times.BuildHist += bd
			m.spans.Record(wk.id, t, -1, "binning", bs, bd)
		}
	}
	layout, binned := wk.layout, wk.binned

	tn := tree.New(cfg.MaxDepth)
	maxNodes := tree.MaxNodes(cfg.MaxDepth)
	idx := tree.NewIndex(n, maxNodes)
	type nodeState struct{ g, h float64 }
	states := make(map[int]nodeState, maxNodes)
	hasState := func(node int) (nodeState, bool) { s, ok := states[node]; return s, ok }

	// derived is parallel to active: below the root every worker builds and
	// pushes only the child of each split that core.Split.BuildLeft names,
	// and the servers derive the other as parent − sibling when it is pulled.
	active, derived := []int{0}, []bool{false}
	buildOpts := histogram.BuildOptions{
		Parallelism: wk.pool.Workers(),
		BatchSize:   cfg.BatchSize,
		Dense:       cfg.DenseBuild,
		Pool:        wk.histPool,
	}
	// One reusable histogram buffer: PushHistogram is synchronous, so the
	// buffer is free again once the push returns (it may have materialised
	// the buffer, which Reset handles like any state).
	hist := wk.hist

	for depth := 0; depth < cfg.MaxDepth && len(active) > 0; depth++ {
		layerStart := time.Now()
		var buildD, psD time.Duration
		atMax := depth == cfg.MaxDepth-1
		if atMax {
			// Last layer: no histograms needed; weights come from states.
			for _, node := range active {
				st, ok := hasState(node)
				if !ok {
					return fmt.Errorf("node %d reached max depth without state", node)
				}
				tn.SetLeaf(node, cfg.LearningRate*core.LeafWeight(st.g, st.h, cfg.Lambda))
			}
			break
		}

		// Phase 4: BUILD_HISTOGRAM — local histograms for the active nodes
		// that are built, pushed to the PS.
		for i, node := range active {
			if derived[i] {
				continue
			}
			bd := wk.compute(func() {
				// Deferred, the build leaves what the node's rows touched for
				// the push to send and the next Reset to clear; the dense and
				// float builds materialise it as they always did.
				hist.Reset()
				hist.Defer()
				if binned != nil {
					histogram.BuildBinned(hist, binned, idx.Rows(node), wk.grad, wk.hess, buildOpts)
				} else {
					histogram.Build(hist, wk.shard, idx.Rows(node), wk.grad, wk.hess, buildOpts)
				}
			})
			wk.times.BuildHist += bd
			buildD += bd
			ps0 := time.Now()
			err := wk.client.PushHistogram(node, hist)
			psD += time.Since(ps0)
			if err != nil {
				return err
			}
		}
		if err := wk.barrier("BUILD_HISTOGRAM"); err != nil {
			return err
		}

		// Phase 5: FIND_SPLIT — the round-robin task scheduler (§6.2)
		// assigns the i-th active node to worker (i mod w); each
		// responsible worker finds the node's best split and pushes it.
		fs := time.Now()
		for i, node := range active {
			owner := i % cfg.NumWorkers
			if cfg.DisableScheduler {
				owner = 0 // a single agent handles every node (ablation)
			}
			if owner != wk.id {
				continue
			}
			var res ps.SplitResult
			if cfg.DisableTwoPhase {
				// Pull the full histogram shards and run Algorithm 1
				// locally (ablation; h/p bytes per server instead of one
				// split record).
				pull := wk.client.PullHistogram
				if derived[i] {
					pull = wk.client.PullDerivedHistogram
				}
				ps0 := time.Now()
				hist, err := pull(node, layout)
				psD += time.Since(ps0)
				if err != nil {
					return err
				}
				tg, th := hist.FeatureTotals(0)
				res = ps.SplitResult{
					Split:     core.FindSplit(hist, tg, th, cfg.Lambda, cfg.Gamma, cfg.MinChildHessian),
					NodeG:     tg,
					NodeH:     th,
					HasTotals: true,
				}
			} else {
				pull := wk.client.PullSplit
				if derived[i] {
					pull = wk.client.PullDerivedSplit
				}
				ps0 := time.Now()
				r, err := pull(node, cfg.Lambda, cfg.Gamma, cfg.MinChildHessian)
				psD += time.Since(ps0)
				if err != nil {
					return err
				}
				res = r
			}
			ps0 := time.Now()
			err := wk.client.PushSplitResult(node, res)
			psD += time.Since(ps0)
			if err != nil {
				return err
			}
		}
		fd := time.Since(fs)
		wk.times.FindSplit += fd
		m.spans.Record(wk.id, t, depth, "find_split", fs, fd)
		if err := wk.barrier("FIND_SPLIT"); err != nil {
			return err
		}

		// Phase 6: SPLIT_TREE — pull split results, split nodes, update the
		// node-to-instance index.
		ps0 := time.Now()
		results, err := wk.client.PullSplitResults(active)
		psD += time.Since(ps0)
		if err != nil {
			return err
		}
		var next []int
		var nextDerived []bool
		var splitErr error
		sps := time.Now()
		spd := wk.compute(func() {
			for _, node := range active {
				res, ok := results[node]
				if !ok {
					splitErr = fmt.Errorf("no split result for node %d", node)
					return
				}
				if _, seen := states[node]; !seen && res.HasTotals {
					states[node] = nodeState{res.NodeG, res.NodeH}
				}
				if !res.Split.Found {
					s := states[node]
					tn.SetLeaf(node, cfg.LearningRate*core.LeafWeight(s.g, s.h, cfg.Lambda))
					continue
				}
				sp := res.Split
				tn.SetSplit(node, sp.Feature, sp.Value, sp.Gain)
				// Split values travel the wire as float64, so the bin
				// recovery inside SplitPredicate stays exact.
				idx.SplitStable(node, core.SplitPredicate(wk.shard, binned, layout, sp), wk.pool)
				states[tree.Left(node)] = nodeState{sp.LeftG, sp.LeftH}
				states[tree.Right(node)] = nodeState{sp.RightG, sp.RightH}
				next = append(next, tree.Left(node), tree.Right(node))
				nextDerived = append(nextDerived, !sp.BuildLeft(), sp.BuildLeft())
			}
		})
		wk.times.SplitTree += spd
		m.spans.Record(wk.id, t, depth, "build_hist", layerStart, buildD)
		m.spans.Record(wk.id, t, depth, "split_tree", sps, spd)
		m.spans.Record(wk.id, t, depth, "ps_round_trip", layerStart, psD)
		if splitErr != nil {
			return splitErr
		}
		active, derived = next, nextDerived
		if err := wk.barrier("SPLIT_TREE"); err != nil {
			return err
		}
	}

	// Update local predictions from the finished tree's leaves, chunked
	// over each leaf's rows.
	for node := range tn.Nodes {
		nd := &tn.Nodes[node]
		if !nd.Used || !nd.Leaf || nd.Weight == 0 {
			continue
		}
		rows := idx.Rows(node)
		w := nd.Weight
		wk.pool.For(len(rows), parallel.RowChunk, func(lo, hi int) {
			for _, r := range rows[lo:hi] {
				wk.preds[r] += w
			}
		})
	}
	wk.model.Trees = append(wk.model.Trees, tn)
	wk.events = append(wk.events, core.TreeEvent{
		Tree:      t,
		TrainLoss: loss.MeanLoss(wk.lossFn, wk.shard.Labels, wk.preds),
		Elapsed:   time.Since(wk.start),
	})
	m.spans.Record(wk.id, t, -1, "tree", treeStart, time.Since(treeStart))
	if wk.id == 0 {
		// The leader alone counts finished trees so the cluster-wide total
		// is not multiplied by the worker count.
		m.trees.Inc()
	}
	return nil
}
