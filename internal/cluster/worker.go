package cluster

import (
	"cmp"
	"fmt"
	"sync"
	"time"

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
)

// worker executes the seven-phase loop of Figure 7 on its data shard: core's
// tree grower over the shard, with the worker as its core.Aggregator — the
// parameter-server protocol of each phase. Worker 0 is the leader: it pushes
// the feature sample to the PS.
type worker struct {
	id     int
	cfg    Config
	shard  *dataset.Dataset
	ep     transport.Endpoint
	client *ps.Client

	// tr grows the trees over the shard and times the worker's phases
	// (Trainer.Times).
	tr    *core.Trainer
	preds []float64
	model *core.Model
	// pool runs the compute phases outside the grower (sketches, restore)
	// on the single-process trainer's machinery, with the same
	// any-parallelism bit-identity guarantee.
	pool *parallel.Pool

	// events records per-tree progress for convergence curves; only the
	// leader's events are reported.
	events []core.TreeEvent

	// computeLock, when non-nil, serializes compute sections across
	// workers so phase times stay truthful on over-subscribed machines.
	computeLock *sync.Mutex

	// spans is the "train" span log, shared with the single-process
	// trainer; the Worker field of each span tells the runtimes apart.
	spans *obs.SpanLog

	// checkpoint, when non-nil, receives the encoded model after every
	// finished tree; the driver sets it on the leader only.
	checkpoint CheckpointSink
	// resume, when non-nil, restarts boosting after the checkpointed trees.
	resume *Checkpoint

	// The tree and layer being grown: the tree index (−1 before the first),
	// and the layer's start and time spent in PS round trips.
	t          int
	layerStart time.Time
	psD        time.Duration
}

func (wk *worker) barrier(phase string) error {
	start := time.Now()
	err := barrier(wk.ep, phase)
	wk.spans.Record(wk.id, -1, -1, "barrier", start, time.Since(start))
	return err
}

// Compute runs f inside the optional serialization lock. Every compute
// section of the worker is one; FIND_SPLIT, PS round trips, takes no lock.
func (wk *worker) Compute(phase string, f func()) {
	if wk.computeLock != nil && phase != "find_split" {
		wk.computeLock.Lock()
		defer wk.computeLock.Unlock()
	}
	f()
}

// rpc runs one parameter-server call and adds its time to the layer's
// round-trip total.
func (wk *worker) rpc(call func() error) error {
	start := time.Now()
	err := call()
	wk.psD += time.Since(start)
	return err
}

// run drives the full training loop and leaves the model in wk.model.
func (wk *worker) run() error {
	n := wk.shard.NumRows()
	var err error
	if wk.tr, err = core.NewTrainer(wk.shard, wk.cfg.Config); err != nil {
		return err
	}
	wk.preds = make([]float64, n)
	wk.model = &core.Model{Loss: wk.cfg.Loss}
	wk.pool = parallel.New(wk.cfg.ResolvedParallelism())
	start, lf := time.Now(), loss.New(wk.cfg.Loss)

	startTree := 0
	if wk.resume != nil {
		startTree = wk.resume.TreesDone
		if err := wk.restoreFrom(wk.resume); err != nil {
			return err
		}
	}

	// Phase 1: CREATE_SKETCH — local sketches, one feature range per pool
	// worker (the single-process trainer's driver), pushed to the PS.
	var set *sketch.Set
	if err := wk.tr.Time(wk, "sketch", -1, func() {
		set = sketch.NewSet(wk.shard.NumFeatures, wk.cfg.ResolvedSketchEps())
		set.AddRows(wk.pool, n, sketch.Resident(wk.shard))
	}); err != nil {
		return err
	}
	if err := wk.client.PushSketches(set); err != nil {
		return err
	}
	if err := wk.barrier("CREATE_SKETCH"); err != nil {
		return err
	}

	// Phase 2: PULL_SKETCH — merged candidates for every feature.
	cands, err := wk.client.PullCandidates(wk.cfg.NumCandidates)
	if err != nil {
		return err
	}
	wk.tr.SetCandidates(cands)
	if err := wk.barrier("PULL_SKETCH"); err != nil {
		return err
	}

	// NEW_TREE → (BUILD_HISTOGRAM → FIND_SPLIT → SPLIT_TREE)* per tree:
	// core's grower, with the worker aggregating.
	for t := startTree; t < wk.cfg.NumTrees; t++ {
		treeStart := time.Now()
		wk.t = t
		tn, err := wk.tr.GrowTree(wk, wk.preds)
		if err != nil {
			return fmt.Errorf("cluster: worker %d tree %d: %w", wk.id, t, err)
		}
		wk.model.Trees = append(wk.model.Trees, tn)
		wk.events = append(wk.events, core.TreeEvent{
			Tree:      t,
			TrainLoss: loss.MeanLoss(lf, wk.shard.Labels, wk.preds),
			Elapsed:   time.Since(start),
		})
		wk.spans.Record(wk.id, t, -1, "tree", treeStart, time.Since(treeStart))
		if wk.id == 0 {
			// The leader alone counts finished trees so the cluster-wide
			// total is not multiplied by the worker count.
			obs.Default().Counter("dimboost_train_trees_total", "Trees finished by the boosting loop.").Inc()
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
// A tree the engine cannot compile is an error: the model would not score.
func (wk *worker) restoreFrom(ck *Checkpoint) error {
	wk.model.BaseScore = ck.Model.BaseScore
	wk.model.Trees = append(wk.model.Trees, ck.Model.Trees...)
	wk.events = append(wk.events, ck.Events...)
	var err error
	wk.Compute("restore", func() {
		n := wk.shard.NumRows()
		scratch := make([]float64, n)
		for t, tn := range ck.Model.Trees {
			var eng *predict.Engine
			if eng, err = predict.Compile([]*tree.Tree{tn}, 0); err != nil {
				err = fmt.Errorf("cluster: checkpointed tree %d: %w", t, err)
				return
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
		wk.tr.SampleFeatures()
	}
	return err
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

// Sample is NEW_TREE's feature sampling: the leader pushes its draw, and
// every worker pulls it back once all have arrived. The other workers' draws
// only keep their RNGs in step. The layout keeps the sampled features that
// can split, as every server's shard layout does, so the positions of a
// worker's histogram and of the servers' shards agree.
func (wk *worker) Sample(drawn []int32, cands []sketch.Candidates) ([]int32, error) {
	if wk.id == 0 {
		if err := wk.client.NewTree(drawn); err != nil {
			return nil, err
		}
	}
	if err := wk.barrier("NEW_TREE"); err != nil {
		return nil, err
	}
	sampled, err := wk.client.PullSampled()
	if err != nil {
		return nil, err
	}
	return histogram.Splittable(sampled, cands), nil
}

// Derives: every worker builds and pushes only the child of each split that
// core.Split.BuildLeft names, and the servers derive the other as parent −
// sibling when it is pulled.
func (wk *worker) Derives() bool { return true }

// Built is BUILD_HISTOGRAM's push: the node's local histogram goes to the PS
// as soon as it is built, and back into the pool once the synchronous push
// returns. A derived node has nothing to push.
func (wk *worker) Built(nd core.LayerNode, h *histogram.Histogram, pool *histogram.Pool) error {
	if nd.Derived {
		return nil
	}
	defer pool.Put(h)
	return wk.rpc(func() error { return wk.client.PushHistogram(nd.Node, h) })
}

// Splits is FIND_SPLIT: the round-robin task scheduler (§6.2) assigns the
// i-th node of the layer to worker (i mod w); each responsible worker finds
// the node's best split and pushes it, and SPLIT_TREE pulls every node's.
func (wk *worker) Splits(depth int, layer []core.LayerNode) ([]core.Decision, error) {
	cfg := wk.cfg
	if err := wk.barrier("BUILD_HISTOGRAM"); err != nil {
		return nil, err
	}
	nodes := make([]int, len(layer))
	var err error
	terr := wk.tr.Time(wk, "find_split", depth, func() {
		for i, nd := range layer {
			nodes[i] = nd.Node
			if i%cfg.NumWorkers != wk.id || err != nil {
				continue
			}
			var res core.Decision
			if res, err = wk.findSplit(nd); err == nil {
				err = wk.rpc(func() error { return wk.client.PushSplitResult(nd.Node, res) })
			}
		}
	})
	if err = cmp.Or(err, terr); err != nil {
		return nil, err
	}
	if err := wk.barrier("FIND_SPLIT"); err != nil {
		return nil, err
	}

	// Phase 6: SPLIT_TREE pulls the split results.
	var results map[int]core.Decision
	if err := wk.rpc(func() (err error) { results, err = wk.client.PullSplitResults(nodes); return err }); err != nil {
		return nil, err
	}
	decisions := make([]core.Decision, len(nodes))
	for i, node := range nodes {
		var ok bool
		if decisions[i], ok = results[node]; !ok {
			return nil, fmt.Errorf("no split result for node %d", node)
		}
	}
	return decisions, nil
}

// findSplit finds one node's global split, two-phase: every server answers
// with its shard-local best and the client folds them.
func (wk *worker) findSplit(nd core.LayerNode) (res core.Decision, err error) {
	cfg := wk.cfg
	pull := wk.client.PullSplit
	if nd.Derived {
		pull = wk.client.PullDerivedSplit
	}
	err = wk.rpc(func() (err error) {
		res, err = pull(nd.Node, cfg.Lambda, cfg.Gamma, cfg.MinChildHessian)
		return err
	})
	return res, err
}

// Done records the worker's phase spans; a finished SPLIT_TREE also records
// the layer's PS round trips and waits for every worker to finish it.
func (wk *worker) Done(phase string, depth int, start time.Time, d time.Duration) error {
	wk.spans.Record(wk.id, wk.t, depth, phase, start, d)
	switch phase {
	case "build_hist":
		wk.layerStart = start
	case "split_tree":
		wk.spans.Record(wk.id, wk.t, depth, "ps_round_trip", wk.layerStart, wk.psD)
		wk.psD = 0
		return wk.barrier("SPLIT_TREE")
	}
	return nil
}
