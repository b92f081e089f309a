package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"dimboost/internal/dataset"
	"dimboost/internal/histogram"
	"dimboost/internal/loss"
	"dimboost/internal/ooc"
	"dimboost/internal/parallel"
	"dimboost/internal/predict"
	"dimboost/internal/sketch"
	"dimboost/internal/tree"
)

// PhaseTimes accumulates wall time per training phase; the Table 3 and
// Figure 13 experiments read these. Trainer.Time is their one writer.
type PhaseTimes struct {
	Sketch    time.Duration
	Gradients time.Duration
	BuildHist time.Duration
	FindSplit time.Duration
	SplitTree time.Duration
}

// Total sums all phases.
func (p PhaseTimes) Total() time.Duration {
	return p.Sketch + p.Gradients + p.BuildHist + p.FindSplit + p.SplitTree
}

// Local sums the purely local phases, excluding FindSplit — which in the
// distributed runtime is dominated by pull round-trips and server-side work
// and therefore belongs to communication in a loading/compute/comm
// decomposition (Fig. 13).
func (p PhaseTimes) Local() time.Duration {
	return p.Sketch + p.Gradients + p.BuildHist + p.SplitTree
}

// TreeEvent reports progress after each finished tree; used to draw the
// paper's convergence curves (training error vs time, Fig. 12).
type TreeEvent struct {
	Tree      int
	TrainLoss float64
	Elapsed   time.Duration
}

// Trainer runs single-process GBDT training. Its tree grower is also the one
// every distributed strategy in internal/baselines and internal/cluster runs
// on its shard (GrowTree), with its own Aggregator.
//
// Every phase of the boosting loop — gradients, weighted sketches, histogram
// builds, split finding, tree splitting, and scoring — runs through one
// shared worker pool sized by Config.Parallelism. The pool's fixed chunk
// grids and ordered reductions make the trained model bit-identical for
// every parallelism value (DESIGN.md invariant 15).
type Trainer struct {
	cfg   Config
	rows  rowSource
	cands []sketch.Candidates
	rng   *rand.Rand
	pool  *parallel.Pool

	// splitMask is the split scratch: per-row goLeft verdicts, classified
	// for a whole layer before any node is partitioned, so SplitStable's
	// predicate is an array read and out of core never touches disk (one
	// bool per row, part of the documented fixed working set).
	splitMask []bool

	// predScratch is the reusable per-tree scoring buffer of the
	// instance-sampling path.
	predScratch []float64

	// grad and hess are the current tree's gradients; td is its layout,
	// quantized rows and histogram pool.
	grad, hess []float64
	td         *treeData
	// build and find are the build_hist and find_split spans of the layer
	// being grown: the grower's node builds and the local aggregator's
	// subtractions are build's sections, the local aggregator's scans find's.
	build, find phaseSpan

	// OnTree, when set, is invoked after each completed tree.
	OnTree func(TreeEvent)

	// Validation, when set together with Config.EarlyStoppingRounds,
	// enables early stopping: training stops once the validation loss has
	// not improved for that many trees and the model is truncated to the
	// best prefix.
	Validation *dataset.Dataset

	// Init, when set, warm-starts training: boosting continues from the
	// given model's predictions and its trees are prepended to the result.
	// The loss kinds must match.
	Init *Model

	// Times accumulates phase timings for the experiment harness.
	Times PhaseTimes

	// BuiltHists counts the node histograms accumulated in a data pass and
	// BuiltRows the rows those passes read; DerivedHists counts the node
	// histograms obtained as parent − sibling instead.
	BuiltHists, BuiltRows, DerivedHists int

	// BestValidationLoss reports the winning validation loss after a run
	// with early stopping.
	BestValidationLoss float64
}

// NewTrainer validates the configuration and prepares a trainer for the
// dataset.
func NewTrainer(d *dataset.Dataset, cfg Config) (*Trainer, error) {
	return newTrainer(residentRows{d}, cfg)
}

// newTrainer validates the configuration and prepares a trainer for the rows.
func newTrainer(rows rowSource, cfg Config) (*Trainer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Trainer{
		cfg:  cfg,
		rows: rows,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		pool: parallel.New(cfg.ResolvedParallelism()),
	}, nil
}

// Candidates returns the per-feature split candidates, computing them on
// first use (CREATE_SKETCH + PULL_SKETCH phases) on the trainer's pool: one
// feature range per worker, every sketch fed in row order, so the
// candidates are one serial AddDataset pass's at any parallelism.
func (tr *Trainer) Candidates() []sketch.Candidates {
	if tr.cands == nil {
		// A run-level phase of the local sink, which never fails.
		_ = tr.Time(&localAggregator{tr: tr, t: -1}, "sketch", -1, func() {
			set := sketch.NewSet(tr.rows.NumFeatures(), tr.cfg.ResolvedSketchEps())
			set.AddRows(tr.pool, tr.rows.NumRows(), tr.rows.ForRowRange)
			tr.cands = set.CandidatesOn(tr.pool, tr.cfg.NumCandidates)
		})
	}
	return tr.cands
}

// SetCandidates installs externally computed candidates (the distributed
// runtime merges sketches on the parameter server and shares the result).
func (tr *Trainer) SetCandidates(c []sketch.Candidates) { tr.cands = c }

// SampleFeatures draws σM distinct features, sorted ascending. With σ == 1
// it returns the identity.
func (tr *Trainer) SampleFeatures() []int32 {
	m := tr.rows.NumFeatures()
	if tr.cfg.FeatureSampleRatio >= 1 {
		return histogram.AllFeatures(m)
	}
	k := int(tr.cfg.FeatureSampleRatio * float64(m))
	if k < 1 {
		k = 1
	}
	perm := tr.rng.Perm(m)[:k]
	out := make([]int32, k)
	for i, f := range perm {
		out[i] = int32(f)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// scoreEngine compiles trees into a batch scorer bounded by the trainer's
// pool. Every scoring loop in the trainer goes through the compiled engine —
// the interpreted tree walk runs only on explicit request (the PR 4
// invariant).
func (tr *Trainer) scoreEngine(trees []*tree.Tree, base float64) (*predict.Engine, error) {
	eng, err := predict.Compile(trees, base)
	if err != nil {
		return nil, err
	}
	eng.Workers = tr.pool.Workers()
	return eng, nil
}

// Train runs the full boosting loop and returns the model.
func (tr *Trainer) Train() (*Model, error) {
	tr.Candidates()
	if err := tr.rows.Err(); err != nil {
		return nil, err
	}
	lf := loss.New(tr.cfg.Loss)
	preds := make([]float64, tr.rows.NumRows())
	model := &Model{Loss: tr.cfg.Loss}
	start := time.Now()

	warmTrees := 0
	if tr.Init != nil {
		if tr.Init.Loss != tr.cfg.Loss {
			return nil, fmt.Errorf("core: warm start loss %s != config loss %s", tr.Init.Loss, tr.cfg.Loss)
		}
		model.BaseScore = tr.Init.BaseScore
		model.Trees = append(model.Trees, tr.Init.Trees...)
		warmTrees = len(tr.Init.Trees)
		eng, err := tr.scoreEngine(tr.Init.Trees, tr.Init.BaseScore)
		if err != nil {
			return nil, fmt.Errorf("core: compiling warm-start model: %w", err)
		}
		tr.scoreInto(eng, preds)
	}

	// Early-stopping state.
	var valPreds, valScratch []float64
	bestLoss := math.Inf(1)
	bestTrees := warmTrees
	sinceBest := 0
	earlyStop := tr.Validation != nil && tr.cfg.EarlyStoppingRounds > 0
	if tr.Validation != nil {
		valPreds = make([]float64, tr.Validation.NumRows())
		valScratch = make([]float64, len(valPreds))
		eng, err := tr.scoreEngine(model.Trees, model.BaseScore)
		if err != nil {
			return nil, fmt.Errorf("core: compiling validation scorer: %w", err)
		}
		eng.PredictBatchInto(tr.Validation, valPreds)
	}

	// The quantized rows are kept across trees while their layout holds
	// (see treeData); nothing outlives this call.
	defer tr.closeTreeData()

	m := trainMetrics()
	for t := 0; t < tr.cfg.NumTrees; t++ {
		treeStart := time.Now()
		tn, err := tr.growTree(newLocalAggregator(tr, t), true, preds)
		if err != nil {
			return nil, err
		}
		model.Trees = append(model.Trees, tn)
		m.trees.Inc()
		m.spans.Record(-1, t, -1, "tree", treeStart, time.Since(treeStart))

		if tr.OnTree != nil {
			tr.OnTree(TreeEvent{
				Tree:      t,
				TrainLoss: loss.MeanLoss(lf, tr.rows.Labels(), preds),
				Elapsed:   time.Since(start),
			})
		}
		if err := tr.rows.Err(); err != nil {
			return nil, err
		}

		if tr.Validation != nil {
			eng, err := tr.scoreEngine([]*tree.Tree{tn}, 0)
			if err != nil {
				return nil, fmt.Errorf("core: compiling tree %d scorer: %w", t, err)
			}
			eng.PredictBatchInto(tr.Validation, valScratch)
			tr.pool.For(len(valPreds), parallel.RowChunk, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					valPreds[i] += valScratch[i]
				}
			})
			vl := loss.MeanLoss(lf, tr.Validation.Labels, valPreds)
			if vl < bestLoss-1e-12 {
				bestLoss = vl
				bestTrees = len(model.Trees)
				sinceBest = 0
			} else if earlyStop {
				sinceBest++
				if sinceBest >= tr.cfg.EarlyStoppingRounds {
					break
				}
			}
		}
	}
	if earlyStop {
		model.Trees = model.Trees[:bestTrees]
		tr.BestValidationLoss = bestLoss
	}
	return model, nil
}

// weightedCandidates proposes per-feature split candidates from hessian-
// weighted sketches over the current iteration's second-order gradients.
// Rows are cut into the fixed parallel.SketchChunk grid; each chunk builds
// its own per-feature sketches and the chunk partials merge in ascending
// chunk order, so the sketch content depends only on the grid, never on the
// worker count.
func (tr *Trainer) weightedCandidates(hess []float64) []sketch.Candidates {
	m := tr.rows.NumFeatures()
	n := tr.rows.NumRows()
	eps := tr.cfg.ResolvedSketchEps()
	sketches := make([]*sketch.WeightedGK, m)
	// Out of core the sketch grid (parallel.SketchChunk) is coarser than the
	// storage grid; walking a range chunk run by chunk run inserts the same
	// values in the same order as one resident pass.
	rows := tr.rows.ForRowRange
	parallel.ReduceOrdered(tr.pool, n, parallel.SketchChunk,
		func(_, lo, hi int) []*sketch.WeightedGK {
			part := make([]*sketch.WeightedGK, m)
			rows(lo, hi, func(d *dataset.Dataset, base, rlo, rhi int) {
				for i := rlo; i < rhi; i++ {
					in := d.Row(i - base)
					for j, f := range in.Indices {
						s := part[f]
						if s == nil {
							s = sketch.NewWeightedGK(eps)
							part[f] = s
						}
						s.Insert(float64(in.Values[j]), hess[i])
					}
				}
			})
			return part
		},
		func(_ int, part []*sketch.WeightedGK) {
			for f, s := range part {
				if s == nil {
					continue
				}
				if sketches[f] == nil {
					sketches[f] = s
				} else {
					sketches[f].Merge(s)
				}
			}
		})
	out := make([]sketch.Candidates, m)
	tr.pool.For(m, 256, func(lo, hi int) {
		for f := lo; f < hi; f++ {
			out[f] = sketch.ProposeWeighted(sketches[f], tr.cfg.NumCandidates)
		}
	})
	return out
}

// treeData is what the grower reads besides the gradients: the layout of the
// sampled features, the binned mirror of the rows under it and the histogram
// pool of that layout.
type treeData struct {
	layout *histogram.Layout
	mirror binnedRows
	pool   *histogram.Pool
}

// treeData returns the tree's data: the layout over the features agg lays
// out of the sample it agrees on, and the rows quantized under it. With
// every feature sampled and the candidates fixed, the layout — and with it
// every bin id — is the same for every tree, so the first tree's serves the
// run. Otherwise the previous tree's is released first.
func (tr *Trainer) treeData(cands []sketch.Candidates, agg Aggregator) (*treeData, error) {
	sampled, err := agg.Sample(tr.SampleFeatures(), cands)
	if err != nil {
		return nil, err
	}
	if tr.td != nil && tr.cfg.FeatureSampleRatio >= 1 && !tr.cfg.WeightedCandidates {
		return tr.td, nil
	}
	tr.closeTreeData()
	layout, err := histogram.NewLayout(sampled, cands, tr.rows.NumFeatures())
	if err != nil {
		return nil, err
	}
	td := &treeData{layout: layout}
	derr := tr.Time(agg, "binning", -1, func() { td.mirror, td.pool, err = tr.rows.bin(layout, tr.pool, tr.cfg.InstanceSampleRatio >= 1) })
	if err != nil {
		return nil, err
	}
	tr.td = td
	return td, derr
}

// Layout returns the histogram layout of the tree being grown, or of the last
// tree GrowTree grew; nil before the first tree and once Train returns.
func (tr *Trainer) Layout() *histogram.Layout {
	if tr.td == nil {
		return nil
	}
	return tr.td.layout
}

// closeTreeData releases the current tree data's mirror.
func (tr *Trainer) closeTreeData() {
	if tr.td != nil {
		tr.td.mirror.Close()
	}
	tr.td = nil
}

// buildLayer gives every node a layer lists its data pass, into a deferred
// histogram from the tree's pool, and hands the layer to agg a pair at a
// time, in node order: each built node, then its sibling if that is derived.
// A spilled mirror builds the whole layer in one walk over the spill per pool
// worker before any hand-over; a resident one builds each node right before
// its pair is handed over, through agg when that is a NodeBuilder. Both fill
// every histogram with the same bits. Deferred, the binned builds leave only
// what the node's rows touched for FIND_SPLIT to scan and the pool to clear.
//
// A pairAggregator's layer with at least as many pairs as the pool has
// workers (more than one) is node-parallel: the pool forks once, and each
// task builds, derives and scans whole pairs, every build and scan serial
// with the batch grid and fold it has when it fans out, so no bit changes.
// Otherwise the pairs go one after another, each build and scan fanning out
// over the pool, and an aggregator that lets go of each histogram on
// hand-over holds one at a time. Every build is a section of the layer's
// build_hist span, tr.build.
func (tr *Trainer) buildLayer(td *treeData, layer []LayerNode, builds []ooc.NodeBuild, opts histogram.BuildOptions, agg Aggregator) error {
	nb, _ := agg.(NodeBuilder)
	walk := td.mirror.oneWalk()
	if walk {
		tr.build.time(agg, "build_hist", func() { td.mirror.build(tr.pool, builds, tr.grad, tr.hess, opts, nb) })
	}
	pairs := layerPairs(layer)
	pa, _ := agg.(pairAggregator)
	// handOver builds pair k's node, builds[k], unless the walk did, and
	// hands the pair over.
	handOver := func(k int, opts histogram.BuildOptions, pr pairRun) error {
		if !walk {
			pr.build.time(agg, "build_hist", func() { td.mirror.build(pr.run, builds[k:k+1], tr.grad, tr.hess, opts, nb) })
		}
		nd, h := layer[pairs[k].built], builds[k].H
		var sib *LayerNode
		if j := pairs[k].derived; j >= 0 {
			sib = &layer[j]
		}
		if pa != nil {
			return pa.builtPair(nd, h, sib, td.pool, pr)
		}
		if err := agg.Built(nd, h, td.pool); err != nil || sib == nil {
			return err
		}
		return agg.Built(*sib, nil, td.pool)
	}
	workers := tr.pool.Workers()
	if pa == nil || workers == 1 || len(pairs) < workers {
		for k := range pairs {
			if err := handOver(k, opts, pairRun{tr.pool, &tr.build, &tr.find}); err != nil {
				return err
			}
		}
		return nil
	}
	serial := opts
	serial.Parallelism = 1
	spans := make([]pairSpans, len(pairs))
	errs := make([]error, len(pairs))
	start := time.Now()
	tr.pool.Tasks(len(pairs), func(k int) {
		errs[k] = handOver(k, serial, pairRun{parallel.Serial(), &spans[k].build, &spans[k].find})
	})
	tr.shareWall(start, spans)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// pairSpans are the build_hist and find_split sections of one pair of a
// node-parallel layer.
type pairSpans struct{ build, find phaseSpan }

// shareWall records a node-parallel layer's fork, begun at start, into the
// layer's spans. The pairs' sections overlap on the workers, so their sums
// can exceed the fork's wall time: build_hist and find_split share that
// instead, in proportion to their sums.
func (tr *Trainer) shareWall(start time.Time, spans []pairSpans) {
	wall := time.Since(start)
	var b, f time.Duration
	for _, s := range spans {
		b, f = b+s.build.d, f+s.find.d
	}
	bw := wall
	if b+f > 0 {
		bw = time.Duration(float64(wall) * float64(b) / float64(b+f))
	}
	tr.build.add(start, bw)
	tr.find.add(start, wall-bw)
}

// layerPair is one pair of a layer: the index of a built node in it and of
// that node's derived sibling, or −1.
type layerPair struct{ built, derived int }

// layerPairs lists a layer's pairs in node order, the k-th pair's built node
// being the layer's k-th one that is not derived.
func layerPairs(layer []LayerNode) []layerPair {
	var pairs []layerPair
	for i, nd := range layer {
		if nd.Derived {
			continue
		}
		// Both children of a split are listed, left first, when one is
		// derived.
		j, sib := i+1, nd.Node+1
		if nd.Node%2 == 0 {
			j, sib = i-1, nd.Node-1
		}
		if j < 0 || j >= len(layer) || layer[j].Node != sib || !layer[j].Derived {
			j = -1
		}
		pairs = append(pairs, layerPair{i, j})
	}
	return pairs
}

// GrowTree grows the next tree over the trainer's rows — one shard of a
// distributed run — from the predictions preds, with agg aggregating every
// layer's histograms, and adds the tree's leaf weights to preds. The rows are
// quantized under the candidates SetCandidates installed.
func (tr *Trainer) GrowTree(agg Aggregator, preds []float64) (*tree.Tree, error) {
	return tr.growTree(agg, false, preds)
}

// growTree builds one regression tree (§4.4 NEW_TREE, then layer by layer
// BUILD_HISTOGRAM → FIND_SPLIT → SPLIT_TREE) and updates preds with the new
// leaf weights. whole says the trainer's rows are all the rows of the run, so
// its row counts are global: the root's totals are its own sums, a node with
// no rows is a leaf without a histogram, and a split with an empty child
// derives nothing.
func (tr *Trainer) growTree(agg Aggregator, whole bool, preds []float64) (*tree.Tree, error) {
	cfg := tr.cfg
	n := tr.rows.NumRows()
	if tr.grad == nil {
		tr.grad, tr.hess = make([]float64, n), make([]float64, n)
	}
	grad, hess := tr.grad, tr.hess
	lf := loss.New(cfg.Loss)
	labels := tr.rows.Labels()
	if err := tr.Time(agg, "gradients", -1, func() {
		tr.pool.For(n, parallel.RowChunk, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				grad[i], hess[i] = lf.Gradients(float64(labels[i]), preds[i])
			}
		})
	}); err != nil {
		return nil, err
	}
	cands := tr.cands
	if cfg.WeightedCandidates {
		if err := tr.Time(agg, "sketch", -1, func() { cands = tr.weightedCandidates(hess) }); err != nil {
			return nil, err
		}
	}
	td, err := tr.treeData(cands, agg)
	if err != nil {
		return nil, err
	}
	tn := tree.New(cfg.MaxDepth)
	maxNodes := tree.MaxNodes(cfg.MaxDepth)

	// Instance subsampling: the tree is grown from a per-tree row subset
	// (stochastic gradient boosting); predictions still update everywhere.
	sampling := cfg.InstanceSampleRatio < 1
	var idx *tree.Index
	if sampling {
		k := int(cfg.InstanceSampleRatio * float64(n))
		if k < 1 {
			k = 1
		}
		perm := tr.rng.Perm(n)[:k]
		rows := make([]int32, k)
		for i, r := range perm {
			rows[i] = int32(r)
		}
		sort.Slice(rows, func(a, b int) bool { return rows[a] < rows[b] })
		idx = tree.NewIndexFrom(rows, maxNodes)
	} else {
		idx = tree.NewIndex(n, maxNodes)
	}

	// active lists the layer's nodes with their gradient totals. A shard
	// learns its root's from the first layer's aggregation.
	active := []LayerNode{{Node: 0}}
	if whole {
		for _, r := range idx.Rows(0) {
			active[0].G += grad[r]
			active[0].H += hess[r]
		}
	}
	leaf := func(nd LayerNode) {
		tn.SetLeaf(nd.Node, cfg.LearningRate*LeafWeight(nd.G, nd.H, cfg.Lambda))
	}
	buildOpts := histogram.BuildOptions{
		Parallelism: tr.pool.Workers(),
		BatchSize:   cfg.BatchSize,
		Pool:        td.pool,
	}
	// Per-layer scratch: the nodes Splits decides, their data passes, and
	// the splits the mirror classifies.
	var layer []LayerNode
	var builds []ooc.NodeBuild
	var splits []ooc.NodeSplit
	if tr.splitMask == nil {
		tr.splitMask = make([]bool, n)
	}
	mask := tr.splitMask
	goLeft := func(r int32) bool { return mask[r] }

	for depth := 0; depth < cfg.MaxDepth && len(active) > 0; depth++ {
		if depth == cfg.MaxDepth-1 {
			if depth == 0 && !whole {
				return nil, fmt.Errorf("core: a shard's root learns its totals from a split layer; MaxDepth must be >= 2")
			}
			// The last layer is never built: its nodes are leaves.
			for _, nd := range active {
				leaf(nd)
			}
			break
		}

		// BUILD_HISTOGRAM: a data pass for every built node in node order,
		// each handed to the aggregator as soon as it is built, and each
		// derived node right after its sibling.
		layer, builds = layer[:0], builds[:0]
		for _, nd := range active {
			if whole && !nd.Derived && idx.Count(nd.Node) == 0 {
				leaf(nd) // no rows to split
				continue
			}
			layer = append(layer, nd)
			if !nd.Derived {
				rows := idx.Rows(nd.Node)
				builds = append(builds, ooc.NodeBuild{Rows: rows})
				tr.BuiltHists++
				tr.BuiltRows += len(rows)
			}
		}
		tr.build, tr.find = phaseSpan{}, phaseSpan{}
		err := tr.buildLayer(td, layer, builds, buildOpts, agg)
		if err == nil {
			err = tr.record(agg, "build_hist", depth, tr.build)
		}
		if err != nil {
			return nil, err
		}

		// FIND_SPLIT is the aggregator's.
		decisions, err := agg.Splits(depth, layer)
		if err != nil {
			return nil, err
		}

		// SPLIT_TREE: apply the winning splits; each node's partition fans
		// out over row chunks (stable concatenation, see Index.SplitStable).
		var next []LayerNode
		if err := tr.Time(agg, "split_tree", depth, func() {
			// The mirror writes every split node's verdicts into the row
			// mask before any node is partitioned; goLeft is then an array
			// read, safe from every SplitStable worker. Split values travel
			// a wire as float64, so the bucket recovery stays exact.
			splits = splits[:0]
			for i, dec := range decisions {
				if dec.Split.Found {
					p, k := splitBin(td.layout, dec.Split)
					splits = append(splits, ooc.NodeSplit{Rows: idx.Rows(layer[i].Node), Pos: p, Bucket: k})
				}
			}
			td.mirror.Classify(tr.pool, splits, mask)
			for i, dec := range decisions {
				nd, split := layer[i], dec.Split
				if depth == 0 && !whole && dec.HasTotals {
					nd.G, nd.H = dec.G, dec.H
				}
				if !split.Found {
					leaf(nd)
					continue
				}
				tn.SetSplit(nd.Node, split.Feature, split.Value, split.Gain)
				idx.SplitStable(nd.Node, goLeft, tr.pool)
				l, r := tree.Left(nd.Node), tree.Right(nd.Node)
				// Below the root only one child of each split gets a data
				// pass and its sibling is derived, unless the children are
				// the last layer, which is never built.
				derive := depth+2 < cfg.MaxDepth && agg.Derives() &&
					(!whole || (idx.Count(l) > 0 && idx.Count(r) > 0))
				next = append(next,
					LayerNode{Node: l, Derived: derive && !split.BuildLeft(), G: split.LeftG, H: split.LeftH},
					LayerNode{Node: r, Derived: derive && split.BuildLeft(), G: split.RightG, H: split.RightH})
			}
		}); err != nil {
			return nil, err
		}
		active = next
	}

	// A streaming I/O failure inside a pool worker records sticky state and
	// leaves partial accumulations behind; abort before using them.
	if err := tr.rows.Err(); err != nil {
		return nil, err
	}

	if sampling {
		// rows outside the subsample never entered the index; score every
		// row through a compiled engine over the finished tree instead
		eng, err := tr.scoreEngine([]*tree.Tree{tn}, 0)
		if err != nil {
			return nil, fmt.Errorf("core: compiling tree scorer: %w", err)
		}
		if tr.predScratch == nil {
			tr.predScratch = make([]float64, n)
		}
		scratch := tr.predScratch
		tr.scoreInto(eng, scratch)
		tr.pool.For(n, parallel.RowChunk, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				preds[i] += scratch[i]
			}
		})
		return tn, nil
	}
	// Update predictions leaf by leaf using the index ranges, chunked over
	// each leaf's rows.
	for node := range tn.Nodes {
		nd := &tn.Nodes[node]
		if !nd.Used || !nd.Leaf || nd.Weight == 0 {
			continue
		}
		rows := idx.Rows(node)
		w := nd.Weight
		tr.pool.For(len(rows), parallel.RowChunk, func(lo, hi int) {
			for _, r := range rows[lo:hi] {
				preds[r] += w
			}
		})
	}
	return tn, nil
}

// SplitPredicate returns the goLeft test of a split over d's rows quantized
// as binned under layout: the rule every binned mirror classifies a split's
// rows by. The float comparison v <= SplitValue(k) becomes bin(v) <= k: the
// split value is always a cut, Candidates.Bucket recovers its bucket index k
// exactly, and by the bucket semantics (bucket k holds values <= Cuts[k],
// values above every cut land in the last, never-proposed bucket) the two
// predicates partition rows identically. The returned predicate only reads
// shared state and is safe for concurrent use.
func SplitPredicate(d *dataset.Dataset, binned *histogram.Binned, layout *histogram.Layout, split Split) func(r int32) bool {
	p, k := splitBin(layout, split)
	return func(r int32) bool {
		return binned.Bin(int(r), p) <= k
	}
}

// splitBin returns a split's sampled position under layout and the bucket
// its value closes: a row goes left when its bin there is at most that.
func splitBin(layout *histogram.Layout, split Split) (int32, int) {
	p := layout.Pos(split.Feature)
	return p, layout.Cands[p].Bucket(split.Value)
}

// Train is the one-call convenience API: sketch, train, return the model.
func Train(d *dataset.Dataset, cfg Config) (*Model, error) {
	tr, err := NewTrainer(d, cfg)
	if err != nil {
		return nil, err
	}
	return tr.Train()
}
