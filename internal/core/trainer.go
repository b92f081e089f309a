package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
// Figure 13 experiments read these.
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

// Trainer runs single-process GBDT training. It is also the computational
// engine reused by every distributed strategy in internal/baselines and
// internal/cluster.
//
// Every phase of the boosting loop — gradients, weighted sketches, histogram
// builds, split finding, tree splitting, and scoring — runs through one
// shared worker pool sized by Config.Parallelism. The pool's fixed chunk
// grids and ordered reductions make the trained model bit-identical for
// every parallelism value (DESIGN.md invariant 15).
type Trainer struct {
	cfg   Config
	data  *dataset.Dataset
	cands []sketch.Candidates
	rng   *rand.Rand
	pool  *parallel.Pool

	// src is the disk-resident data path (out-of-core mode); exactly one of
	// data/src is non-nil. labels is the resident label column of either
	// path.
	src    *ooc.Source
	labels []float32

	// splitMask is the out-of-core split scratch: per-row goLeft verdicts,
	// precomputed for a whole layer in one walk over the spill so
	// SplitStable's predicate never touches disk (one bool per row, part of
	// the documented fixed working set).
	splitMask []bool

	// predScratch is the reusable per-tree scoring buffer of the
	// instance-sampling path.
	predScratch []float64

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
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.NoNodeIndex && cfg.InstanceSampleRatio < 1 {
		return nil, fmt.Errorf("core: NoNodeIndex (ablation) does not support instance sampling")
	}
	return &Trainer{
		cfg:    cfg,
		data:   d,
		labels: d.Labels,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		pool:   parallel.New(cfg.ResolvedParallelism()),
	}, nil
}

// Candidates returns the per-feature split candidates, computing them on
// first use (CREATE_SKETCH + PULL_SKETCH phases) on the trainer's pool: one
// feature range per worker, every sketch fed in row order, so the
// candidates are one serial AddDataset pass's at any parallelism.
func (tr *Trainer) Candidates() []sketch.Candidates {
	if tr.cands == nil {
		start := time.Now()
		set := sketch.NewSet(tr.numFeatures(), tr.cfg.sketchEps())
		set.AddRows(tr.pool, tr.numRows(), tr.rows())
		tr.cands = set.CandidatesOn(tr.pool, tr.cfg.NumCandidates)
		d := time.Since(start)
		tr.Times.Sketch += d
		trainMetrics().spans.Record(-1, -1, -1, "sketch", start, d)
	}
	return tr.cands
}

// SetCandidates installs externally computed candidates (the distributed
// runtime merges sketches on the parameter server and shares the result).
func (tr *Trainer) SetCandidates(c []sketch.Candidates) { tr.cands = c }

// SampleFeatures draws σM distinct features, sorted ascending. With σ == 1
// it returns the identity.
func (tr *Trainer) SampleFeatures() []int32 {
	m := tr.numFeatures()
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
	cands := tr.Candidates()
	if err := tr.srcErr(); err != nil {
		return nil, err
	}
	n := tr.numRows()
	lf := loss.New(tr.cfg.Loss)
	preds := make([]float64, n)
	grad := make([]float64, n)
	hess := make([]float64, n)
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
		if err := tr.scoreTrainInto(eng, preds); err != nil {
			return nil, err
		}
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

	// With every feature sampled and the candidates fixed, the layout — and
	// with it every bin id — is the same for every tree: quantize once per
	// run. Otherwise once per tree. Nothing outlives this call.
	perRun := tr.cfg.FeatureSampleRatio >= 1 && !tr.cfg.WeightedCandidates
	var td *treeData
	defer func() { td.close() }()

	m := trainMetrics()
	for t := 0; t < tr.cfg.NumTrees; t++ {
		treeStart := time.Now()
		gs := time.Now()
		tr.pool.For(n, parallel.RowChunk, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				grad[i], hess[i] = lf.Gradients(float64(tr.labels[i]), preds[i])
			}
		})
		gd := time.Since(gs)
		tr.Times.Gradients += gd
		m.spans.Record(-1, t, -1, "gradients", gs, gd)

		treeCands := cands
		if tr.cfg.WeightedCandidates {
			ws := time.Now()
			treeCands = tr.weightedCandidates(hess)
			wd := time.Since(ws)
			tr.Times.Sketch += wd
			m.spans.Record(-1, t, -1, "sketch", ws, wd)
		}
		if td == nil || !perRun {
			td.close()
			var err error
			if td, err = tr.newTreeData(t, treeCands); err != nil {
				return nil, err
			}
		}
		tn, err := tr.growTree(t, td, grad, hess, preds)
		if err != nil {
			return nil, err
		}
		model.Trees = append(model.Trees, tn)
		m.trees.Inc()
		m.spans.Record(-1, t, -1, "tree", treeStart, time.Since(treeStart))

		if tr.OnTree != nil {
			tr.OnTree(TreeEvent{
				Tree:      t,
				TrainLoss: loss.MeanLoss(lf, tr.labels, preds),
				Elapsed:   time.Since(start),
			})
		}
		if err := tr.srcErr(); err != nil {
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
	m := tr.numFeatures()
	n := tr.numRows()
	eps := tr.cfg.sketchEps()
	sketches := make([]*sketch.WeightedGK, m)
	// Out of core the sketch grid (parallel.SketchChunk) is coarser than the
	// storage grid; walking a range chunk run by chunk run inserts the same
	// values in the same order as one resident pass.
	rows := tr.rows()
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

// treeData is what growTree reads besides the gradients: the layout of the
// sampled features, the quantized mirror of the dataset under it (resident,
// spilled in out-of-core mode, neither under Config.NoBinning) and the
// histogram pool of that layout.
type treeData struct {
	layout  *histogram.Layout
	binned  *histogram.Binned
	spilled *ooc.SpilledBinned
	pool    *histogram.Pool
}

// newTreeData samples tree t's features and quantizes the dataset under
// their layout: every nonzero's bin id, reused by every node of every layer
// for both histogram construction and splitting.
func (tr *Trainer) newTreeData(t int, cands []sketch.Candidates) (*treeData, error) {
	layout, err := histogram.NewLayout(tr.SampleFeatures(), cands, tr.numFeatures())
	if err != nil {
		return nil, err
	}
	td := &treeData{layout: layout}
	bs := time.Now()
	switch {
	case tr.src != nil:
		// The mirror spills to a memory-mapped scratch file instead of
		// materializing. Under a memory budget, cap the free list at the
		// partials one build holds at most (parallel.ReduceOrdered's
		// window of Workers+1) so idle histograms from wide layers cannot
		// pile up;
		// recycling is allocation-only, so the cap cannot affect results.
		td.pool = histogram.NewPoolCap(layout, tr.pool.Workers()+1)
		if td.spilled, err = tr.src.BuildBinned(layout, tr.pool); err != nil {
			return nil, err
		}
	case tr.cfg.NoBinning:
		td.pool = histogram.NewPool(layout)
		return td, nil
	default:
		td.pool = histogram.NewPool(layout)
		td.binned = histogram.NewBinned(tr.data, layout, tr.pool.Workers())
	}
	bd := time.Since(bs)
	tr.Times.BuildHist += bd
	trainMetrics().spans.Record(-1, t, -1, "binning", bs, bd)
	return td, nil
}

// close releases the spill file, if any. Safe on nil.
func (td *treeData) close() {
	if td != nil && td.spilled != nil {
		td.spilled.Close()
	}
}

// buildLayer gives every node a layer lists its data pass. Out of core the
// layer's one-batch nodes share one walk over the spill per pool worker
// (ooc.SpilledBinned.BuildLayer); resident data builds node by node, each
// build fanning out over its row batches. Both fill every histogram with
// the same bits.
func (tr *Trainer) buildLayer(td *treeData, builds []ooc.NodeBuild, grad, hess []float64, opts histogram.BuildOptions) {
	if td.spilled != nil {
		td.spilled.BuildLayer(tr.pool, builds, grad, hess, opts)
		return
	}
	for _, b := range builds {
		if td.binned != nil {
			histogram.BuildBinned(b.H, td.binned, b.Rows, grad, hess, opts)
		} else {
			histogram.Build(b.H, tr.data, b.Rows, grad, hess, opts)
		}
	}
}

// findSplitChunk is how many scan units one FIND_SPLIT pool task takes. A
// unit is one ScanWord, so PosChunk must be its width.
const (
	findSplitChunk      = 16
	_              uint = parallel.PosChunk - 64
	_              uint = 64 - parallel.PosChunk
)

// nodeState tracks the gradient sums of one active tree node.
type nodeState struct {
	g, h float64
}

// splitTask carries one buildable node through a layer's three phases:
// its histogram is built in BUILD_HISTOGRAM, scanned in FIND_SPLIT, and the
// winning split applied in SPLIT_TREE.
type splitTask struct {
	node int
	st   nodeState
	h    *histogram.Histogram
}

// growTree builds one regression tree layer by layer (§4.4 BUILD_HISTOGRAM →
// FIND_SPLIT → SPLIT_TREE) and updates preds with the new leaf weights.
func (tr *Trainer) growTree(treeIdx int, td *treeData, grad, hess, preds []float64) (*tree.Tree, error) {
	m := trainMetrics()
	cfg := tr.cfg
	layout, binned, spilled, pool := td.layout, td.binned, td.spilled, td.pool
	n := tr.numRows()
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

	// nodeOf supports the NoNodeIndex ablation: per-instance node ids so a
	// node's rows can be recovered by a full scan.
	var nodeOf []int32
	if cfg.NoNodeIndex {
		nodeOf = make([]int32, n)
	}
	rowsFor := func(node int) []int32 {
		if !cfg.NoNodeIndex {
			return idx.Rows(node)
		}
		var rows []int32
		for i, nd := range nodeOf {
			if nd == int32(node) {
				rows = append(rows, int32(i))
			}
		}
		return rows
	}

	states := make(map[int]nodeState, maxNodes)
	var rootG, rootH float64
	for _, r := range idx.Rows(0) {
		rootG += grad[r]
		rootH += hess[r]
	}
	states[0] = nodeState{rootG, rootH}

	active := []int{0}
	buildOpts := histogram.BuildOptions{
		Parallelism: tr.pool.Workers(),
		BatchSize:   cfg.BatchSize,
		Dense:       cfg.DenseBuild,
		Pool:        pool,
	}

	leaf := func(node int) {
		st := states[node]
		tn.SetLeaf(node, cfg.LearningRate*LeafWeight(st.g, st.h, cfg.Lambda))
	}
	// builds lists the layer's data passes for one buildLayer call. Each
	// goes into a deferred histogram: the sparse binned builds leave only
	// what the node's rows touched for FIND_SPLIT to scan and the pool to
	// clear, and a derived histogram only what its parent's rows touched.
	var builds []ooc.NodeBuild
	build := func(node int) *histogram.Histogram {
		h := pool.Get()
		h.Defer()
		rows := rowsFor(node)
		builds = append(builds, ooc.NodeBuild{H: h, Rows: rows})
		tr.BuiltHists++
		tr.BuiltRows += len(rows)
		return h
	}

	// Below the root only one child of each split gets a data pass — the one
	// Split.BuildLeft names — and its sibling is the parent's histogram minus
	// it, subtracted in place once the layer is built. While a layer's
	// children are going to be built, parents holds the parent's histogram
	// of the i-th sibling pair of active until it becomes the derived
	// child's: a split node's histogram outlives its FIND_SPLIT by less than
	// a layer, and no second one is needed.
	type pairParent struct {
		h         *histogram.Histogram
		buildLeft bool
	}
	var parents []pairParent
	// derives pairs each such parent with its built child.
	type derivation struct{ parent, child *histogram.Histogram }
	var derives []derivation

	// FIND_SPLIT scratch, reused by every layer: one unit per (node, non-empty
	// ScanWord) — the PosChunk range of positions that word stands for.
	numPos := layout.NumFeatures()
	words := (numPos + parallel.PosChunk - 1) / parallel.PosChunk
	type scanUnit struct{ task, word int32 }
	var units []scanUnit
	var bests []Split
	// SPLIT_TREE scratch out of core: the layer's splits, classified in one
	// walk over the spill.
	var layerSplits []ooc.NodeSplit

	for depth := 0; depth < cfg.MaxDepth && len(active) > 0; depth++ {
		var next []int
		layerStart := time.Now()
		atMax := depth == cfg.MaxDepth-1

		// BUILD_HISTOGRAM: list the layer's data passes in node order, make
		// them in one buildLayer call, then derive each built child's
		// sibling from the parent.
		bs := time.Now()
		var tasks []splitTask
		builds, derives = builds[:0], derives[:0]
		// direct gives a node its own data pass, or makes it a leaf when it
		// has no rows to split.
		direct := func(node int) {
			if idxCount(idx, nodeOf, node) == 0 {
				leaf(node)
				return
			}
			tasks = append(tasks, splitTask{node, states[node], build(node)})
		}
		switch {
		case atMax:
			for _, node := range active {
				leaf(node)
			}
		case depth == 0:
			direct(0)
		}
		for i, pp := range parents {
			left, right := active[2*i], active[2*i+1]
			if idxCount(idx, nodeOf, left) == 0 || idxCount(idx, nodeOf, right) == 0 {
				// Nothing to subtract: one child holds all of the parent's
				// rows.
				pool.Put(pp.h)
				direct(left)
				direct(right)
				continue
			}
			// The parent's histogram becomes the derived child's, in place.
			hl, hr := pp.h, pp.h
			if pp.buildLeft {
				hl = build(left)
				derives = append(derives, derivation{pp.h, hl})
			} else {
				hr = build(right)
				derives = append(derives, derivation{pp.h, hr})
			}
			tasks = append(tasks, splitTask{left, states[left], hl}, splitTask{right, states[right], hr})
		}
		parents = parents[:0]
		tr.buildLayer(td, builds, grad, hess, buildOpts)
		for _, d := range derives {
			d.parent.SetSub(d.parent, d.child)
			tr.DerivedHists++
			m.subtraction.Inc()
		}
		buildD := time.Since(bs)
		tr.Times.BuildHist += buildD

		// FIND_SPLIT: Algorithm 1 fanned out over (node × PosChunk range the
		// node touched); each node's partial bests fold in ascending range
		// order, so the chosen split is worker-count-independent. A range
		// nothing touched has no candidate, so leaving it out of the fold
		// changes nothing — unless the guard says the full scan would be
		// fooled, and then the node is scanned in full.
		fs := time.Now()
		splits := make([]Split, len(tasks))
		units = units[:0]
		for ti := range tasks {
			t := &tasks[ti]
			if !TouchedScanExact(t.h, t.st.h, cfg.MinChildHessian) {
				t.h.Materialize()
			}
			for w := 0; w < words; w++ {
				if t.h.ScanWord(w) != 0 {
					units = append(units, scanUnit{int32(ti), int32(w)})
				}
			}
		}
		bests = slices.Grow(bests[:0], len(units))[:len(units)]
		tr.pool.For(len(units), findSplitChunk, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				t := &tasks[units[j].task]
				pLo := int(units[j].word) * parallel.PosChunk
				pHi := min(pLo+parallel.PosChunk, numPos)
				bests[j] = FindSplitRange(t.h, pLo, pHi, t.st.g, t.st.h, cfg.Lambda, cfg.Gamma, cfg.MinChildHessian)
			}
		})
		for j, u := range units {
			if bests[j].Better(splits[u.task]) {
				splits[u.task] = bests[j]
			}
		}
		findD := time.Since(fs)
		tr.Times.FindSplit += findD

		// SPLIT_TREE: apply the winning splits; each node's partition fans
		// out over row chunks (stable concatenation, see Index.SplitStable).
		ss := time.Now()
		var maskLeft func(int32) bool
		if spilled != nil {
			// Out of core, one walk over the spill writes every split node's
			// verdicts into the row mask before any node is partitioned; the
			// predicate is then a pure array read — identical to
			// SplitPredicate on the resident binned matrix, and safe from
			// every SplitStable worker.
			layerSplits = layerSplits[:0]
			for ti, split := range splits {
				if split.Found {
					p := layout.Pos(split.Feature)
					layerSplits = append(layerSplits, ooc.NodeSplit{
						Rows: idx.Rows(tasks[ti].node), Pos: p, Bucket: layout.Cands[p].Bucket(split.Value),
					})
				}
			}
			if tr.splitMask == nil {
				tr.splitMask = make([]bool, n)
			}
			spilled.Classify(tr.pool, layerSplits, tr.splitMask)
			mask := tr.splitMask
			maskLeft = func(r int32) bool { return mask[r] }
		}
		for ti := range tasks {
			t := &tasks[ti]
			split := splits[ti]
			if !split.Found {
				leaf(t.node)
				pool.Put(t.h)
				continue
			}
			tn.SetSplit(t.node, split.Feature, split.Value, split.Gain)
			goLeft := maskLeft
			if spilled == nil {
				goLeft = SplitPredicate(tr.data, binned, layout, split)
			}
			idx.SplitStable(t.node, goLeft, tr.pool)
			if cfg.NoNodeIndex {
				l, r := int32(tree.Left(t.node)), int32(tree.Right(t.node))
				nd := int32(t.node)
				tr.pool.For(n, parallel.RowChunk, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						if nodeOf[i] == nd {
							if goLeft(int32(i)) {
								nodeOf[i] = l
							} else {
								nodeOf[i] = r
							}
						}
					}
				})
			}
			states[tree.Left(t.node)] = nodeState{split.LeftG, split.LeftH}
			states[tree.Right(t.node)] = nodeState{split.RightG, split.RightH}
			next = append(next, tree.Left(t.node), tree.Right(t.node))
			// The histogram lives on as the children's parent unless they are
			// the last layer, which is never built.
			if depth+2 < cfg.MaxDepth {
				parents = append(parents, pairParent{t.h, split.BuildLeft()})
			} else {
				pool.Put(t.h)
			}
		}
		splitD := time.Since(ss)
		tr.Times.SplitTree += splitD

		// Per-layer aggregates: one span per phase per layer, summed over
		// the layer's nodes, anchored at the layer's start.
		m.spans.Record(-1, treeIdx, depth, "build_hist", layerStart, buildD)
		m.spans.Record(-1, treeIdx, depth, "find_split", layerStart, findD)
		m.spans.Record(-1, treeIdx, depth, "split_tree", layerStart, splitD)
		active = next
	}

	// A streaming I/O failure inside a pool worker records sticky state and
	// leaves partial accumulations behind; abort before using them.
	if err := tr.srcErr(); err != nil {
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
		eng.PredictBatchInto(tr.data, scratch)
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
		rows := rowsFor(node)
		w := nd.Weight
		tr.pool.For(len(rows), parallel.RowChunk, func(lo, hi int) {
			for _, r := range rows[lo:hi] {
				preds[r] += w
			}
		})
	}
	return tn, nil
}

// SplitPredicate returns the goLeft test of a split. With a binned matrix
// the float comparison v <= SplitValue(k) becomes bin(v) <= k: the split
// value is always a cut, Candidates.Bucket recovers its bucket index k
// exactly, and by the bucket semantics (bucket k holds values <= Cuts[k],
// values above every cut land in the last, never-proposed bucket) the two
// predicates partition rows identically — so binned and float training
// produce bit-identical models. The returned predicate only reads shared
// state and is safe for concurrent use (SplitStable calls it from every
// pool worker).
func SplitPredicate(d *dataset.Dataset, binned *histogram.Binned, layout *histogram.Layout, split Split) func(r int32) bool {
	f, v := int(split.Feature), split.Value
	if binned == nil {
		return func(r int32) bool {
			return float64(d.Row(int(r)).Feature(f)) <= v
		}
	}
	p := layout.Pos(split.Feature)
	k := layout.Cands[p].Bucket(v)
	return func(r int32) bool {
		return binned.Bin(int(r), p) <= k
	}
}

// idxCount returns the instance count of a node under either row-tracking
// scheme.
func idxCount(idx *tree.Index, nodeOf []int32, node int) int {
	if nodeOf == nil {
		return idx.Count(node)
	}
	c := 0
	for _, nd := range nodeOf {
		if nd == int32(node) {
			c++
		}
	}
	return c
}

// Train is the one-call convenience API: sketch, train, return the model.
func Train(d *dataset.Dataset, cfg Config) (*Model, error) {
	tr, err := NewTrainer(d, cfg)
	if err != nil {
		return nil, err
	}
	return tr.Train()
}
