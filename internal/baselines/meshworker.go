package baselines

import (
	"fmt"
	"sync"
	"time"

	"dimboost/internal/comm"
	"dimboost/internal/core"
	"dimboost/internal/dataset"
	"dimboost/internal/histogram"
	"dimboost/internal/loss"
	"dimboost/internal/sketch"
)

// meshWorker is one rank of a mesh-based baseline trainer: core's tree
// grower over the rank's shard, with the rank as its core.Aggregator. Only
// the per-node histogram aggregation differs by system, and no system
// derives a histogram: every rank builds both children of every split, which
// keeps the baselines the direct-build oracle of the subtraction trick.
type meshWorker struct {
	rank  int
	opts  Options
	shard *dataset.Dataset
	mesh  *comm.Mesh
	tr    *core.Trainer
	start time.Time

	model  *core.Model
	events []core.TreeEvent
	// recs are the split records of the layer's nodes aggregated so far.
	recs []core.Decision

	// compute sums the rank's gradients and histogram builds from its
	// record (Done). Their sections serialize on computeLock so their times
	// measure each rank's own work even when ranks outnumber cores.
	compute     time.Duration
	computeLock *sync.Mutex
}

// encodeRec flattens a split record into the 11 float64s the mesh carries.
func encodeRec(d core.Decision) []float64 {
	found, tot := 0.0, 0.0
	if d.Split.Found {
		found = 1
	}
	if d.HasTotals {
		tot = 1
	}
	return []float64{found, float64(d.Split.Feature), d.Split.Value, d.Split.Gain,
		d.Split.LeftG, d.Split.LeftH, d.Split.RightG, d.Split.RightH, d.G, d.H, tot}
}

func decodeRec(v []float64) (core.Decision, error) {
	if len(v) != 11 {
		return core.Decision{}, fmt.Errorf("baselines: split record has %d fields", len(v))
	}
	return core.Decision{
		Split: core.Split{
			Found: v[0] != 0, Feature: int32(v[1]), Value: v[2], Gain: v[3],
			LeftG: v[4], LeftH: v[5], RightG: v[6], RightH: v[7],
		},
		G: v[8], H: v[9], HasTotals: v[10] != 0,
	}, nil
}

func (mw *meshWorker) run() error {
	cfg := mw.opts.Core
	lf := loss.New(cfg.Loss)
	preds := make([]float64, mw.shard.NumRows())
	mw.model = &core.Model{Loss: cfg.Loss}
	for t := 0; t < cfg.NumTrees; t++ {
		tn, err := mw.tr.GrowTree(mw, preds)
		if err != nil {
			return fmt.Errorf("tree %d: %w", t, err)
		}
		mw.model.Trees = append(mw.model.Trees, tn)
		mw.events = append(mw.events, core.TreeEvent{
			Tree:      t,
			TrainLoss: loss.MeanLoss(lf, mw.shard.Labels, preds),
			Elapsed:   time.Since(mw.start),
		})
	}
	return nil
}

// Sample: every rank shares the seed, so the draws agree without
// communication. The layout covers every sampled feature, those no row has
// included, as the compared systems' histograms do.
func (mw *meshWorker) Sample(drawn []int32, _ []sketch.Candidates) ([]int32, error) {
	return drawn, nil
}

func (mw *meshWorker) Derives() bool { return false }

// Built aggregates the node's histogram across ranks as soon as it is
// built, so a rank holds one at a time: the collectives copy it onto the
// mesh.
func (mw *meshWorker) Built(_ core.LayerNode, h *histogram.Histogram, pool *histogram.Pool) error {
	defer pool.Put(h)
	rec, err := mw.aggregateAndSplit(len(mw.recs), h)
	mw.recs = append(mw.recs, rec)
	return err
}

func (mw *meshWorker) Splits(int, []core.LayerNode) ([]core.Decision, error) {
	recs := mw.recs
	mw.recs = nil
	return recs, nil
}

// BuildNode is the compared systems' histogram construction: from the float
// rows of the rank's shard, densely (§5.1) unless SparseBuild.
func (mw *meshWorker) BuildNode(h *histogram.Histogram, rows []int32, grad, hess []float64, opts histogram.BuildOptions) {
	build := histogram.BuildDense
	if mw.opts.SparseBuild {
		build = histogram.BuildSparse
	}
	histogram.BuildBatches(h, rows, opts, func(part *histogram.Histogram, batch []int32) {
		build(part, mw.shard, batch, grad, hess)
	})
}

// counted says whether a phase is the rank's compute: the gradients and the
// histogram builds are; binning, split finding (inside Built) and the rest
// of the grower's work are not.
func counted(phase string) bool { return phase == "gradients" || phase == "build_hist" }

// Compute serializes the counted phases.
func (mw *meshWorker) Compute(phase string, f func()) {
	if counted(phase) {
		mw.computeLock.Lock()
		defer mw.computeLock.Unlock()
	}
	f()
}

// Done sums the counted phases into compute. Ranks record no spans.
func (mw *meshWorker) Done(phase string, _ int, _ time.Time, d time.Duration) error {
	if counted(phase) {
		mw.compute += d
	}
	return nil
}

// aggregateAndSplit merges a node's local histogram across ranks with the
// system's strategy and returns the agreed global split record. nodeIdx is
// the node's index within its layer (for round-robin assignment).
func (mw *meshWorker) aggregateAndSplit(nodeIdx int, h *histogram.Histogram) (core.Decision, error) {
	cfg, layout := mw.opts.Core, h.Layout
	find := func(hist *histogram.Histogram) core.Decision {
		tg, th := hist.FeatureTotals(0)
		return core.Decision{
			Split:     core.FindSplit(hist, tg, th, cfg.Lambda, cfg.Gamma, cfg.MinChildHessian),
			G:         tg,
			H:         th,
			HasTotals: true,
		}
	}
	w := mw.mesh.Size()
	if w == 1 {
		return find(h), nil
	}

	switch mw.opts.System {
	case MLlibStyle:
		merged := mw.mesh.ReduceToRoot(mw.rank, packRaw(h))
		var rec core.Decision
		if mw.rank == 0 {
			rec = find(unpackRaw(merged, layout))
			for to := 1; to < w; to++ {
				mw.mesh.Send(mw.rank, to, encodeRec(rec))
			}
			return rec, nil
		}
		return decodeRec(mw.mesh.Recv(mw.rank, 0))

	case XGBoostStyle:
		merged := mw.mesh.BinomialReduceToRoot(mw.rank, packRaw(h))
		var payload []float64
		if mw.rank == 0 {
			payload = encodeRec(find(unpackRaw(merged, layout)))
		}
		return decodeRec(mw.mesh.BroadcastBinomial(mw.rank, payload))

	case LightGBMStyle:
		return mw.lightGBMAggregate(h, layout)

	case TencentBoostStyle:
		return mw.tencentAggregate(nodeIdx, h, layout, find)

	default:
		return core.Decision{}, fmt.Errorf("baselines: system %v has no mesh aggregation", mw.opts.System)
	}
}

// lightGBMAggregate runs recursive-halving ReduceScatter over a
// feature-group-aligned padded vector, finds the best split on each owned
// group, and exchanges the small split records.
func (mw *meshWorker) lightGBMAggregate(h *histogram.Histogram, layout *histogram.Layout) (core.Decision, error) {
	cfg := mw.opts.Core
	w := mw.mesh.Size()
	plan := newSegPlan(layout, w)
	res := mw.mesh.ReduceScatterHalving(mw.rank, plan.pack(h))

	var mine core.Decision
	haveMine := false
	if res.Block != nil {
		group := res.Start / plan.L
		if hist, fLo, fHi, ok := plan.unpackGroup(res.Block, group, layout); ok {
			tg, th := hist.FeatureTotals(fLo)
			mine = core.Decision{
				Split:     core.FindSplitRange(hist, fLo, fHi, tg, th, cfg.Lambda, cfg.Gamma, cfg.MinChildHessian),
				G:         tg,
				H:         th,
				HasTotals: true,
			}
			haveMine = true
		}
	}
	// Exchange records: every participating rank broadcasts its record to
	// all (the "communicate local best splits" step); empty groups send a
	// not-found record so receive counts stay deterministic.
	participants := plan.participants(w)
	if participants[mw.rank] {
		payload := encodeRec(mine)
		if !haveMine {
			payload = encodeRec(core.Decision{})
		}
		for to := 0; to < w; to++ {
			if to != mw.rank {
				mw.mesh.Send(mw.rank, to, payload)
			}
		}
	}
	best := core.Decision{}
	if haveMine {
		best = mine
	}
	for from := 0; from < w; from++ {
		if from == mw.rank || !participants[from] {
			continue
		}
		rec, err := decodeRec(mw.mesh.Recv(mw.rank, from))
		if err != nil {
			return core.Decision{}, err
		}
		best = foldRec(best, rec)
	}
	return best, nil
}

// tencentAggregate scatter-gathers blocks over the co-located PS, then the
// node's responsible worker pulls the full merged histogram (h bytes — no
// two-phase split) and distributes the decision.
func (mw *meshWorker) tencentAggregate(nodeIdx int, h *histogram.Histogram, layout *histogram.Layout, find func(*histogram.Histogram) core.Decision) (core.Decision, error) {
	w := mw.mesh.Size()
	owner := nodeIdx % w
	vecLen := 2 * layout.TotalBuckets
	res := mw.mesh.PSScatterGather(mw.rank, packRaw(h))
	// Full-histogram pull: every rank ships its merged block to the owner.
	if mw.rank != owner {
		header := append([]float64{float64(res.Start), float64(len(res.Block))}, res.Block...)
		mw.mesh.Send(mw.rank, owner, header)
		return decodeRec(mw.mesh.Recv(mw.rank, owner))
	}
	full := make([]float64, vecLen)
	copy(full[res.Start:], res.Block)
	for from := 0; from < w; from++ {
		if from == owner {
			continue
		}
		msg := mw.mesh.Recv(mw.rank, from)
		start, ln := int(msg[0]), int(msg[1])
		copy(full[start:start+ln], msg[2:])
	}
	rec := find(unpackRaw(full, layout))
	payload := encodeRec(rec)
	for to := 0; to < w; to++ {
		if to != owner {
			mw.mesh.Send(mw.rank, to, payload)
		}
	}
	return rec, nil
}

// foldRec merges two split records, keeping the better split and any totals.
func foldRec(a, b core.Decision) core.Decision {
	out := a
	if b.Split.Better(a.Split) {
		out.Split = b.Split
	}
	if !out.HasTotals && b.HasTotals {
		out.G, out.H, out.HasTotals = b.G, b.H, true
	}
	return out
}

// packRaw flattens a histogram as [G;H].
func packRaw(h *histogram.Histogram) []float64 {
	out := make([]float64, 0, 2*len(h.G))
	out = append(out, h.G...)
	out = append(out, h.H...)
	return out
}

// unpackRaw views a [G;H] vector as a histogram under the layout.
func unpackRaw(vec []float64, layout *histogram.Layout) *histogram.Histogram {
	t := layout.TotalBuckets
	return &histogram.Histogram{Layout: layout, G: vec[:t], H: vec[t : 2*t]}
}

// segPlan maps the histogram onto p2 equal-length padded segments whose
// boundaries align with feature-group boundaries, so recursive halving never
// cuts a feature's buckets apart.
type segPlan struct {
	p2 int // participating ranks (largest power of two <= w)
	L  int // per-segment length (2·maxGroupBuckets)
	// per group: sampled feature position range and bucket region
	fLo, fHi []int
	bLo, bSz []int
}

func newSegPlan(layout *histogram.Layout, w int) *segPlan {
	p2 := 1
	for p2*2 <= w {
		p2 *= 2
	}
	sp := &segPlan{p2: p2, fLo: make([]int, p2), fHi: make([]int, p2), bLo: make([]int, p2), bSz: make([]int, p2)}
	f := layout.NumFeatures()
	for g := 0; g < p2; g++ {
		lo, hi := comm.BlockRange(f, p2, g)
		sp.fLo[g], sp.fHi[g] = lo, hi
		bLo, _ := layout.BucketRange(lo)
		if lo == hi {
			sp.bLo[g], sp.bSz[g] = bLo, 0
			continue
		}
		_, bHi := layout.BucketRange(hi - 1)
		sp.bLo[g] = bLo
		sp.bSz[g] = bHi - bLo
		if 2*sp.bSz[g] > sp.L {
			sp.L = 2 * sp.bSz[g]
		}
	}
	if sp.L == 0 {
		sp.L = 2
	}
	return sp
}

// pack lays out each group's [G;H] region into its padded segment.
func (sp *segPlan) pack(h *histogram.Histogram) []float64 {
	vec := make([]float64, sp.p2*sp.L)
	for g := 0; g < sp.p2; g++ {
		base := g * sp.L
		lo, sz := sp.bLo[g], sp.bSz[g]
		copy(vec[base:base+sz], h.G[lo:lo+sz])
		copy(vec[base+sz:base+2*sz], h.H[lo:lo+sz])
	}
	return vec
}

// unpackGroup rebuilds a (mostly zero) full histogram holding only group g's
// buckets, plus the group's feature-position range. ok is false for empty
// groups.
func (sp *segPlan) unpackGroup(block []float64, g int, layout *histogram.Layout) (h *histogram.Histogram, fLo, fHi int, ok bool) {
	if g < 0 || g >= sp.p2 || sp.bSz[g] == 0 {
		return nil, 0, 0, false
	}
	h = histogram.New(layout)
	lo, sz := sp.bLo[g], sp.bSz[g]
	copy(h.G[lo:lo+sz], block[:sz])
	copy(h.H[lo:lo+sz], block[sz:2*sz])
	return h, sp.fLo[g], sp.fHi[g], true
}

// participants marks the ranks that own a block after the non-power-of-two
// fold-in (odd ranks below 2(w−p2) go idle).
func (sp *segPlan) participants(w int) []bool {
	r := w - sp.p2
	out := make([]bool, w)
	for rank := 0; rank < w; rank++ {
		out[rank] = !(rank < 2*r && rank%2 == 1)
	}
	return out
}
