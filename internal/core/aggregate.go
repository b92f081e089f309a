package core

import (
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
// build finishes, every derived node after them, and asks Splits for the
// decisions. Trainer.Time times each phase once, inside Compute, and hands
// the record to Times and to Done.
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
	// Built takes over the histogram of one node of the layer and puts it
	// back into pool once done with it. h is nil for a derived node, which
	// is handed over after every build of its layer.
	Built(node int, h *histogram.Histogram, pool *histogram.Pool) error
	// Splits decides the layer: each node's best split, in layer order, and
	// the node totals the aggregation knows.
	Splits(depth int, layer []LayerNode) ([]Decision, error)
	// Compute runs f, a timed section of phase, holding whatever serializes
	// the runtime's compute; it reads no clock, so lock waits go untimed.
	Compute(phase string, f func())
	// Done is the sink of every finished phase: per tree (depth −1)
	// "gradients", then "sketch" for weighted candidates and "binning" when
	// the tree needs them; per layer "build_hist", then "find_split" if
	// Splits times it, "split_tree"; and the phases the aggregator times
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
		s.d += time.Since(start)
		if s.start.IsZero() {
			s.start = start
		}
	})
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
// phases with it, an aggregator those it runs itself (FIND_SPLIT in Splits).
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

// localAggregator aggregates nothing: the trainer holds every row, so a
// node's histogram is already its global one. A derived child's histogram is
// its parent's with the built sibling subtracted in place, and FIND_SPLIT
// fans out over (node × PosChunk range) on the trainer's pool.
type localAggregator struct {
	tr *Trainer
	t  int
	// hists holds the histogram of every node of the layer being built, and
	// of every split node of the last layer until its derived child takes
	// it over.
	hists map[int]*histogram.Histogram

	// FIND_SPLIT scratch: one unit per (node, non-empty ScanWord), and the
	// best split of each.
	units []scanUnit
	bests []Split
}

type scanUnit struct{ task, word int32 }

// findSplitChunk is how many scan units one FIND_SPLIT pool task takes. A
// unit is one ScanWord, so PosChunk must be its width.
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

// Built keeps a built histogram for FIND_SPLIT. A derived node's is its
// parent's minus the built sibling, subtracted in place: a split node's
// histogram outlives its FIND_SPLIT by less than a layer, and no second one
// is needed.
func (la *localAggregator) Built(node int, h *histogram.Histogram, _ *histogram.Pool) error {
	if la.hists == nil {
		la.hists = map[int]*histogram.Histogram{}
	}
	if h == nil {
		parent := tree.Parent(node)
		h = la.hists[parent]
		h.SetSub(h, la.hists[tree.Left(parent)+tree.Right(parent)-node])
		delete(la.hists, parent)
		la.tr.DerivedHists++
		trainMetrics().subtraction.Inc()
	}
	la.hists[node] = h
	return nil
}

// Splits runs Algorithm 1 fanned out over (node × PosChunk range the node
// touched); each node's partial bests fold in ascending range order, so the
// chosen split is worker-count-independent. A range nothing touched has no
// candidate, so leaving it out of the fold changes nothing — unless the guard
// says the full scan would be fooled, and then the node is scanned in full.
func (la *localAggregator) Splits(depth int, layer []LayerNode) ([]Decision, error) {
	tr, cfg := la.tr, la.tr.cfg
	pool := tr.td.pool
	var decisions []Decision
	err := tr.Time(la, "find_split", depth, func() {
		hists := make([]*histogram.Histogram, len(layer))
		for i, nd := range layer {
			hists[i] = la.hists[nd.Node]
			delete(la.hists, nd.Node)
		}
		// What is left are split nodes whose children both had a data pass,
		// one of them holding no rows.
		for _, h := range la.hists {
			pool.Put(h)
		}
		clear(la.hists)

		numPos := tr.td.layout.NumFeatures()
		words := (numPos + parallel.PosChunk - 1) / parallel.PosChunk
		la.units = la.units[:0]
		for i, h := range hists {
			if !TouchedScanExact(h, layer[i].H, cfg.MinChildHessian) {
				h.Materialize()
			}
			for w := 0; w < words; w++ {
				if h.ScanWord(w) != 0 {
					la.units = append(la.units, scanUnit{int32(i), int32(w)})
				}
			}
		}
		units := la.units
		la.bests = slices.Grow(la.bests[:0], len(units))[:len(units)]
		bests := la.bests
		tr.pool.For(len(units), findSplitChunk, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				nd := &layer[units[j].task]
				pLo := int(units[j].word) * parallel.PosChunk
				pHi := min(pLo+parallel.PosChunk, numPos)
				bests[j] = FindSplitRange(hists[units[j].task], pLo, pHi, nd.G, nd.H, cfg.Lambda, cfg.Gamma, cfg.MinChildHessian)
			}
		})
		decisions = make([]Decision, len(layer))
		for i, nd := range layer {
			decisions[i] = Decision{G: nd.G, H: nd.H, HasTotals: true}
		}
		for j, u := range units {
			if bests[j].Better(decisions[u.task].Split) {
				decisions[u.task].Split = bests[j]
			}
		}
		// The histogram lives on as the children's parent unless they are
		// the last layer, which is never built.
		for i, nd := range layer {
			if decisions[i].Split.Found && depth+2 < cfg.MaxDepth {
				la.hists[nd.Node] = hists[i]
			} else {
				pool.Put(hists[i])
			}
		}
	})
	return decisions, err
}

func (la *localAggregator) Compute(_ string, f func()) { f() }

func (la *localAggregator) Done(phase string, depth int, start time.Time, d time.Duration) error {
	trainMetrics().spans.Record(-1, la.t, depth, phase, start, d)
	return nil
}
