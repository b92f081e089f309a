package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"dimboost/internal/histogram"
	"dimboost/internal/parallel"
	"dimboost/internal/sketch"
	"dimboost/internal/tree"
)

// Aggregator turns the node histograms a process builds over its own rows
// into a layer's split decisions and node totals. It is the one place the
// runtimes that grow trees with core's grower differ: the systems the paper
// compares (§2.3) differ only in how a layer's histograms are aggregated.
//
// The grower calls it in phase order. Sample comes once per tree, after the
// gradients. Each layer then hands every built node to Built as soon as its
// build finishes, each derived node right after its built sibling, and asks
// Splits for the decisions, in layer order; an aggregator may decide each
// node inside Built. The local trainer's aggregator is a pairAggregator,
// handed each built node and derived sibling in one call, pairs possibly
// concurrently. Every phase is timed in sections, each inside Compute, and
// recorded once into Times and Done.
type Aggregator interface {
	// Sample agrees on the tree's feature sample, given this process's own
	// draw of it, and returns the features the tree's histograms lay out:
	// those of the sample whose candidates cands (indexed by feature id)
	// can split, histogram.Splittable, or the whole sample for a runtime
	// that lays out every sampled feature.
	Sample(drawn []int32, cands []sketch.Candidates) ([]int32, error)
	// Derives reports whether a split node's children get one data pass,
	// for the child Split.BuildLeft names, and the other child's histogram
	// is the parent's minus it. Otherwise both children are built.
	Derives() bool
	// Built takes over the histogram of one node of the layer, nd, and puts
	// it back into pool once done with it. h is nil for a derived node,
	// which is handed over right after its built sibling.
	Built(nd LayerNode, h *histogram.Histogram, pool *histogram.Pool) error
	// Splits decides the layer: each node's best split, in layer order, and
	// the node totals the aggregation knows.
	Splits(depth int, layer []LayerNode) ([]Decision, error)
	// Compute runs f, a timed section of phase, holding whatever serializes
	// the runtime's compute; it reads no clock, so lock waits go untimed.
	Compute(phase string, f func())
	// Done is the sink of every finished phase: per tree (depth −1)
	// "gradients", then "sketch" for weighted candidates and "binning" when
	// the tree needs them; per layer "build_hist", then "find_split" if the
	// aggregator times it, "split_tree"; and the phases the aggregator times
	// itself (the cluster's run-level "sketch"). d sums the phase's sections.
	Done(phase string, depth int, start time.Time, d time.Duration) error
}

// phaseSpan is one phase in the record: its first section's start and the
// wall time of all its sections.
type phaseSpan struct {
	start time.Time
	d     time.Duration
}

// time runs f as a section of phase inside agg.Compute: the one clock read
// of the grower and its aggregators.
func (s *phaseSpan) time(agg Aggregator, phase string, f func()) {
	agg.Compute(phase, func() {
		start := time.Now()
		f()
		s.add(start, time.Since(start))
	})
}

// add adds a section of d that began at start.
func (s *phaseSpan) add(start time.Time, d time.Duration) {
	s.d += d
	if s.start.IsZero() {
		s.start = start
	}
}

// record, the one writer of Times, adds a finished phase to them (binning
// is histogram building) and hands it to agg.Done.
func (tr *Trainer) record(agg Aggregator, phase string, depth int, s phaseSpan) error {
	switch phase {
	case "sketch":
		tr.Times.Sketch += s.d
	case "gradients":
		tr.Times.Gradients += s.d
	case "binning", "build_hist":
		tr.Times.BuildHist += s.d
	case "find_split":
		tr.Times.FindSplit += s.d
	case "split_tree":
		tr.Times.SplitTree += s.d
	}
	return agg.Done(phase, depth, s.start, s.d)
}

// Time runs f as a phase's one section and records it: the grower times its
// phases with it, an aggregator those it runs itself (the cluster worker's
// CREATE_SKETCH and FIND_SPLIT).
func (tr *Trainer) Time(agg Aggregator, phase string, depth int, f func()) error {
	var s phaseSpan
	s.time(agg, phase, f)
	return tr.record(agg, phase, depth, s)
}

// NodeBuilder is an Aggregator that builds every resident node histogram
// itself instead of the grower building it from the quantized rows: the mesh
// baselines build the way the competitors do (§5.1). BuildNode fills h with
// the gradient sums of rows under opts' batch grid. Out of core the grower
// builds from the spill whatever the aggregator.
type NodeBuilder interface {
	BuildNode(h *histogram.Histogram, rows []int32, grad, hess []float64, opts histogram.BuildOptions)
}

// LayerNode is one node of a layer as the grower hands it to Splits. Derived
// marks a histogram that is parent − sibling instead of built. G and H are
// the node's gradient totals as far as this process knows them: zero at the
// root of a shard, whose totals only the aggregation knows.
type LayerNode struct {
	Node    int
	Derived bool
	G, H    float64
}

// Decision is an aggregator's answer for one layer node: its best split and,
// when HasTotals, the node's gradient totals.
type Decision struct {
	Split     Split
	G, H      float64
	HasTotals bool
}

// pairAggregator is an Aggregator whose hand-over may run concurrently for
// distinct pairs of a layer, a pair being a built node and its derived
// sibling, if any. The grower hands it each pair whole through builtPair,
// never Built: when the layer has at least as many pairs as the trainer's
// pool has workers (more than one), from one fork over the pairs, one task
// each; otherwise one pair after another.
type pairAggregator interface {
	// builtPair takes over the histogram h of the built node nd and, when
	// sib is not nil, derives the histogram of nd's sibling sib, and puts
	// each back into pool once done with it.
	builtPair(nd LayerNode, h *histogram.Histogram, sib *LayerNode, pool *histogram.Pool, pr pairRun) error
}

// pairRun is how a pair's hand-over runs: the pool it may fan out over (the
// trainer's, or parallel.Serial inside a layer's fork) and the spans it
// times its build_hist and find_split sections into.
type pairRun struct {
	run         *parallel.Pool
	build, find *phaseSpan
}

// localAggregator aggregates nothing: the trainer holds every row, so a
// node's histogram is already its global one. It finds each node's split as
// soon as the node's histogram exists, and puts the histogram back unless the
// node is a split parent of the next built layer. A derived child's histogram
// is its parent's with the built sibling subtracted in place, so the trainer
// holds one layer of split parents and the nodes in hand.
type localAggregator struct {
	tr *Trainer
	t  int
	// parents holds, by node, the histogram of every split node of the last
	// layer until its pair takes it over, and of every split node of this
	// one whose children get built; decided holds each scanned node's
	// decision until Splits. A pair reads and writes only its own nodes' and
	// parent's slots, so distinct pairs can run concurrently.
	parents []*histogram.Histogram
	decided []Decision

	// FIND_SPLIT scratch of a scan fanned out over the pool: a node's
	// non-empty ScanWords and the best split of each.
	words []int32
	bests []Split
}

// newLocalAggregator returns the local aggregator of tree t, with a slot for
// every node a tree can have.
func newLocalAggregator(tr *Trainer, t int) *localAggregator {
	n := tree.MaxNodes(tr.cfg.MaxDepth)
	return &localAggregator{tr: tr, t: t, parents: make([]*histogram.Histogram, n), decided: make([]Decision, n)}
}

// findSplitChunk is the most ScanWords one FIND_SPLIT pool task takes; a
// node that touched fewer than two such tasks per worker gets smaller ones,
// so its scan still spreads over the pool. A word is one PosChunk range, so
// PosChunk must be its width.
const (
	findSplitChunk      = 16
	_              uint = parallel.PosChunk - 64
	_              uint = 64 - parallel.PosChunk
)

// Sample lays the tree out over the drawn features that can split.
func (la *localAggregator) Sample(drawn []int32, cands []sketch.Candidates) ([]int32, error) {
	return histogram.Splittable(drawn, cands), nil
}

func (la *localAggregator) Derives() bool { return true }

// Built is never called: the grower hands a pairAggregator its nodes
// through builtPair.
func (la *localAggregator) Built(nd LayerNode, _ *histogram.Histogram, _ *histogram.Pool) error {
	return fmt.Errorf("core: node %d handed over outside a pair", nd.Node)
}

// builtPair scans a built node and, if its sibling is derived, the sibling,
// whose histogram is the parent's minus the built node's, subtracted in
// place while both are as built. If the sibling is not derived, nothing
// takes over the parent's histogram, which is put back.
func (la *localAggregator) builtPair(nd LayerNode, h *histogram.Histogram, sib *LayerNode, pool *histogram.Pool, pr pairRun) error {
	parent := tree.Parent(nd.Node)
	var ph *histogram.Histogram
	if nd.Node > 0 {
		ph, la.parents[parent] = la.parents[parent], nil
	}
	if sib == nil {
		pool.Put(ph)
		la.scan(nd, h, pool, pr)
		return nil
	}
	if ph == nil || sib.Node != tree.Left(parent)+tree.Right(parent)-nd.Node {
		return fmt.Errorf("core: derived node %d handed over without its parent and built sibling", sib.Node)
	}
	pr.build.time(la, "build_hist", func() { ph.SetSub(ph, h) })
	la.scan(nd, h, pool, pr)
	la.scan(*sib, ph, pool, pr)
	return nil
}

// scan runs Algorithm 1 on node nd's histogram h over the PosChunk ranges
// the node touched, folding the ranges' best splits in ascending range
// order: on pr.run when it has more than one worker, in tasks of ranges, and
// range by range otherwise. Either way the chosen split is the same. A range
// nothing touched has no candidate, so leaving it out of the fold changes
// nothing — unless the guard says the full scan would be fooled, and then
// the node is scanned in full. h lives on as the children's parent if the
// node splits and they are not the last layer, which is never built.
func (la *localAggregator) scan(nd LayerNode, h *histogram.Histogram, pool *histogram.Pool, pr pairRun) {
	cfg := la.tr.cfg
	var split Split
	pr.find.time(la, "find_split", func() {
		if !TouchedScanExact(h, nd.H, cfg.MinChildHessian) {
			h.Materialize()
		}
		numPos := h.Layout.NumFeatures()
		words := (numPos + parallel.PosChunk - 1) / parallel.PosChunk
		best := func(w int) Split {
			lo := w * parallel.PosChunk
			return FindSplitRange(h, lo, min(lo+parallel.PosChunk, numPos), nd.G, nd.H, cfg.Lambda, cfg.Gamma, cfg.MinChildHessian)
		}
		if pr.run.Workers() == 1 {
			for w := 0; w < words; w++ {
				if h.ScanWord(w) == 0 {
					continue
				}
				if b := best(w); b.Better(split) {
					split = b
				}
			}
			return
		}
		la.words = la.words[:0]
		for w := 0; w < words; w++ {
			if h.ScanWord(w) != 0 {
				la.words = append(la.words, int32(w))
			}
		}
		ws := la.words
		la.bests = slices.Grow(la.bests[:0], len(ws))[:len(ws)]
		bests := la.bests
		tasks := 2 * pr.run.Workers()
		pr.run.For(len(ws), min(findSplitChunk, (len(ws)+tasks-1)/tasks), func(lo, hi int) {
			for j := lo; j < hi; j++ {
				bests[j] = best(int(ws[j]))
			}
		})
		for _, b := range bests {
			if b.Better(split) {
				split = b
			}
		}
	})
	la.decided[nd.Node] = Decision{Split: split, G: nd.G, H: nd.H, HasTotals: true}
	if split.Found && tree.Depth(nd.Node)+2 < cfg.MaxDepth {
		la.parents[nd.Node] = h
	} else {
		pool.Put(h)
	}
}

// Splits returns the layer's decisions in layer order and counts its derived
// nodes. The layer's find_split is the sum of its scans, or its share of a
// node-parallel layer's wall time, and this last section.
func (la *localAggregator) Splits(depth int, layer []LayerNode) ([]Decision, error) {
	tr := la.tr
	decisions := make([]Decision, len(layer))
	var err error
	tr.find.time(la, "find_split", func() {
		for i, nd := range layer {
			decisions[i], la.decided[nd.Node] = la.decided[nd.Node], Decision{}
			if !decisions[i].HasTotals && err == nil {
				err = fmt.Errorf("core: layer node %d was never handed over", nd.Node)
			}
			if nd.Derived {
				tr.DerivedHists++
				trainMetrics().subtraction.Inc()
			}
		}
	})
	return decisions, cmp.Or(err, tr.record(la, "find_split", depth, tr.find))
}

func (la *localAggregator) Compute(_ string, f func()) { f() }

func (la *localAggregator) Done(phase string, depth int, start time.Time, d time.Duration) error {
	trainMetrics().spans.Record(-1, la.t, depth, phase, start, d)
	return nil
}
