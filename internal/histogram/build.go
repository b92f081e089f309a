package histogram

import (
	"math/bits"

	"dimboost/internal/dataset"
	"dimboost/internal/parallel"
)

// BuildDense is the traditional histogram construction the paper uses as a
// baseline: for every instance it enumerates every sampled feature,
// including zeros (O(N·M), §5.1). rows selects the instances (global row
// ids into d); grad/hess are per-row gradients indexed by global row id.
// Row indices and Layout.Features are both sorted, so one merge-walk per
// row replaces a per-feature binary search.
func BuildDense(h *Histogram, d *dataset.Dataset, rows []int32, grad, hess []float64) {
	h.Materialize()
	l := h.Layout
	for _, r := range rows {
		in := d.Row(int(r))
		g, hs := grad[r], hess[r]
		j := 0
		for p, f := range l.Features {
			for j < len(in.Indices) && in.Indices[j] < f {
				j++
			}
			v := 0.0
			if j < len(in.Indices) && in.Indices[j] == f {
				v = float64(in.Values[j])
			}
			k := l.Cands[p].Bucket(v)
			idx := int(l.Offsets[p]) + k
			h.G[idx] += g
			h.H[idx] += hs
		}
	}
}

// BuildSparse is the sparsity-aware construction of Algorithm 2: gradients
// are accumulated once into per-feature zero buckets, and only nonzero
// entries are touched individually — O(z·N + M).
func BuildSparse(h *Histogram, d *dataset.Dataset, rows []int32, grad, hess []float64) {
	h.Materialize()
	l := h.Layout
	var sumG, sumH float64
	for _, r := range rows {
		g, hs := grad[r], hess[r]
		sumG += g
		sumH += hs
		in := d.Row(int(r))
		for j, f := range in.Indices {
			p := l.Pos(f)
			if p < 0 {
				continue // feature not sampled this tree
			}
			c := l.Cands[p]
			k := c.Bucket(float64(in.Values[j]))
			base := int(l.Offsets[p])
			h.G[base+k] += g
			h.H[base+k] += hs
			z := base + c.ZeroBucket
			h.G[z] -= g
			h.H[z] -= hs
		}
	}
	for p := range l.Features {
		z := int(l.Offsets[p]) + l.Cands[p].ZeroBucket
		h.G[z] += sumG
		h.H[z] += sumH
	}
}

// BuildSparseBinned is BuildSparse over pre-quantized bin ids: the same
// accumulation in the same order (so results are bit-identical), but the
// inner loop is pure index arithmetic — no Pos lookup, no float compare,
// no binary search.
func BuildSparseBinned(h *Histogram, b *Binned, rows []int32, grad, hess []float64) {
	sumG, sumH := AccumSparseBinned(h, b, rows, grad, hess, 0, 0)
	FinishSparseZeros(h, sumG, sumH)
}

// AccumSparseBinned runs Algorithm 2's per-entry accumulation over rows
// without the final zero-bucket pass, threading the running gradient sums
// through so a batch can be split across several Binned views (the
// out-of-core streaming build walks one batch over multiple disk-resident
// chunk segments). rows index into b; grad/hess are indexed by the same row
// ids (callers slice them so local rows line up). Chaining calls and then
// applying FinishSparseZeros once performs float operations in exactly the
// order of BuildSparseBinned over the concatenated rows — bit-identical.
// On a deferred histogram every accumulated entry also marks its position in
// the touched set.
func AccumSparseBinned(h *Histogram, b *Binned, rows []int32, grad, hess []float64, sumG, sumH float64) (float64, float64) {
	if b.Bins16 != nil {
		return accumSparseBins(h, b, b.Bins16, rows, grad, hess, sumG, sumH)
	}
	return accumSparseBins(h, b, b.Bins8, rows, grad, hess, sumG, sumH)
}

// FinishSparseZeros completes a chain of AccumSparseBinned calls with the
// accumulated gradient sums. On a materialised histogram they go to every
// sampled feature's zero bucket; on a deferred one to the zero buckets of
// the touched positions only, and into the deferred mass for the rest.
func FinishSparseZeros(h *Histogram, sumG, sumH float64) {
	zeros := h.Layout.zeroIdx
	if !h.deferred {
		for _, z := range zeros {
			h.G[z] += sumG
			h.H[z] += sumH
		}
		return
	}
	for w, set := range h.touched {
		for b := set; b != 0; b &= b - 1 {
			z := zeros[w<<6+bits.TrailingZeros64(b)]
			h.G[z] += sumG
			h.H[z] += sumH
		}
	}
	h.defG += sumG
	h.defH += sumH
}

func accumSparseBins[T uint8 | uint16](h *Histogram, b *Binned, bins []T, rows []int32, grad, hess []float64, sumG, sumH float64) (float64, float64) {
	l := h.Layout
	offs, zeros := l.Offsets, l.zeroIdx
	pos, touched, track := b.Pos, h.touched, h.deferred
	for _, r := range rows {
		g, hs := grad[r], hess[r]
		sumG += g
		sumH += hs
		lo, hi := b.RowPtr[r], b.RowPtr[r+1]
		for j := lo; j < hi; j++ {
			p := pos[j]
			if track {
				touched[p>>6] |= 1 << (p & 63)
			}
			idx := int(offs[p]) + int(bins[j])
			h.G[idx] += g
			h.H[idx] += hs
			z := zeros[p]
			h.G[z] -= g
			h.H[z] -= hs
		}
	}
	return sumG, sumH
}

// BuildOptions control the parallel batch construction of §5.2.
type BuildOptions struct {
	// Parallelism is the number of builder goroutines (the paper's q
	// threads). Values < 1 mean runtime.GOMAXPROCS(0). The result is
	// bit-identical for every value: the batch grid and the merge order
	// depend only on BatchSize.
	Parallelism int
	// BatchSize is the number of instances per batch (the paper's b).
	// Values < 1 use a default of 4096.
	BatchSize int
	// Pool, when non-nil, supplies the per-goroutine partial histograms
	// instead of allocating fresh ones per Build call. The trainer shares
	// one pool across a whole tree, making steady-state builds
	// allocation-free.
	Pool *Pool
}

// batchSize resolves the BatchSize default.
func (o BuildOptions) batchSize() int {
	if o.BatchSize < 1 {
		return 4096
	}
	return o.BatchSize
}

// OneBatch reports whether a node of n rows is a single batch of the grid:
// BuildBatches then builds it straight into the node's histogram, with no
// partial and no merge.
func (o BuildOptions) OneBatch(n int) bool { return n <= o.batchSize() }

// Build constructs the histogram of one tree node over the given rows using
// the parallel batch method: the row range is cut into batches of
// opts.BatchSize forming a fixed grid, every batch accumulates into its own
// partial histogram, and the partials are merged in ascending batch order
// (parallel.ReduceOrdered). Both the grid and the merge order are functions
// of (rows, BatchSize) alone, so the result is bit-identical for every
// Parallelism; a single-batch range builds directly into h, which is then
// bit-identical to BuildSparse.
func Build(h *Histogram, d *dataset.Dataset, rows []int32, grad, hess []float64, opts BuildOptions) {
	BuildBatches(h, rows, opts, func(part *Histogram, batch []int32) {
		BuildSparse(part, d, batch, grad, hess)
	})
}

// BuildBinned is Build over the quantized matrix: same batching, same
// deterministic merge order, but each batch accumulates straight from bin
// ids. The result is in h's state: materialised unless the caller Deferred
// h.
func BuildBinned(h *Histogram, b *Binned, rows []int32, grad, hess []float64, opts BuildOptions) {
	if opts.OneBatch(len(rows)) {
		// The deep-node path: no closure, no allocation.
		BuildSparseBinned(h, b, rows, grad, hess)
		return
	}
	BuildBatches(h, rows, opts, func(part *Histogram, batch []int32) {
		BuildSparseBinned(part, b, batch, grad, hess)
	})
}

// BuildBatches is the batching/merging driver under every Build*: it runs
// the per-batch builder over the fixed batch grid and folds the partials
// into h in ascending batch order. Partial histograms come from opts.Pool
// when set; eager prefix merging recycles each partial as soon as it is
// folded in, so a sequential run cycles a single pooled partial and a
// parallel one holds at most Parallelism+1 (parallel.ReduceOrdered's
// window), however many batches the node spans. Partials
// are handed to build in h's state, so a deferred target's merge with a
// sparse binned builder's partials walks touched positions only and a
// materialised target's is the dense merge.
func BuildBatches(h *Histogram, rows []int32, opts BuildOptions, build func(part *Histogram, batch []int32)) {
	if opts.OneBatch(len(rows)) {
		build(h, rows)
		return
	}
	deferred := h.deferred // the merges below may change it while batches build
	// A one-worker build (P = 1, or a task of a node-parallel layer) runs on
	// the caller's goroutine; it is no training pool, so it leaves the
	// worker gauge New sets alone.
	p := parallel.Serial()
	if opts.Parallelism != 1 {
		p = parallel.New(opts.Parallelism)
	}
	parallel.ReduceOrdered(p, len(rows), opts.batchSize(),
		func(_, lo, hi int) *Histogram {
			var part *Histogram
			if opts.Pool != nil {
				part = opts.Pool.Get()
			} else {
				part = New(h.Layout)
			}
			if deferred {
				part.Defer()
			}
			build(part, rows[lo:hi])
			return part
		},
		func(_ int, part *Histogram) {
			h.Add(part)
			if opts.Pool != nil {
				opts.Pool.Put(part)
			}
		})
}
