package core

import (
	"slices"

	"dimboost/internal/dataset"
	"dimboost/internal/histogram"
	"dimboost/internal/ooc"
	"dimboost/internal/parallel"
	"dimboost/internal/predict"
)

// rowSource is where the trainer's rows live: in memory (residentRows) or in
// a chunked file read through a bounded cache (spilledRows). The trainer
// reads its rows only through it and the binned mirror it quantizes them
// into, so the grower has one data path whichever it is.
type rowSource interface {
	NumRows() int
	NumFeatures() int
	// Labels is the label column, indexed by row.
	Labels() []float32
	// ForRowRange walks rows [lo, hi) in ascending order, a sketch.Rows.
	ForRowRange(lo, hi int, fn func(d *dataset.Dataset, base, rlo, rhi int))
	// bin quantizes the rows under layout on pool's workers into the binned
	// mirror of the trees grown under it, and returns the layout's histogram
	// pool with it. columns says some node will hold every row (no row is
	// sampled out of the tree): a resident mirror then also keeps the
	// column-major copy such a node builds from.
	bin(layout *histogram.Layout, pool *parallel.Pool, columns bool) (binnedRows, *histogram.Pool, error)
	// Err is the sticky I/O error of a streaming pass, if any: a pass that
	// fails records it and skips its work, and the trainer aborts at its next
	// phase boundary instead of training on partial data.
	Err() error
}

// binnedRows is a tree's binned mirror of the rows: every nonzero's bin id
// under the tree's layout, read by every node of every layer for both
// histogram construction and splitting.
type binnedRows interface {
	// build fills the histogram of every node, each a deferred one from
	// opts.Pool, on pool's workers. nb, when not nil, builds a resident node
	// from the float rows instead.
	build(pool *parallel.Pool, nodes []ooc.NodeBuild, grad, hess []float64, opts histogram.BuildOptions, nb NodeBuilder)
	// oneWalk reports whether build reads the rows once however many nodes
	// it builds, as the spill does: the grower then builds a layer in one
	// call before any hand-over. Otherwise each node is built on its own,
	// right before its pair is handed over.
	oneWalk() bool
	// Classify writes every split's verdicts into mask, indexed by row, on
	// pool's workers: mask[r] = bin(r, Pos) <= Bucket for every row r of
	// every split, SplitPredicate's goLeft. A layer's splits hold disjoint
	// rows.
	Classify(pool *parallel.Pool, splits []ooc.NodeSplit, mask []bool)
	Close() error
}

// residentRows are rows in memory.
type residentRows struct{ d *dataset.Dataset }

func (r residentRows) NumRows() int      { return r.d.NumRows() }
func (r residentRows) NumFeatures() int  { return r.d.NumFeatures }
func (r residentRows) Labels() []float32 { return r.d.Labels }
func (r residentRows) Err() error        { return nil }

func (r residentRows) ForRowRange(lo, hi int, fn func(*dataset.Dataset, int, int, int)) {
	fn(r.d, 0, lo, hi)
}

func (r residentRows) bin(layout *histogram.Layout, pool *parallel.Pool, columns bool) (binnedRows, *histogram.Pool, error) {
	rb := residentBinned{b: histogram.NewBinned(r.d, layout, pool.Workers())}
	if columns {
		rb.cols = histogram.NewColumns(rb.b, pool)
	}
	return rb, histogram.NewPool(layout), nil
}

// residentBinned is the binned mirror in memory, and when the trees sample
// no rows its column-major copy. It builds nodes one after another, so the
// grower builds each node right before its pair is handed over. A node that
// holds every row — the root, on the local trainer and on each cluster
// worker's shard — builds from the copy, its positions fanned out over the
// pool it is given; any other fans out over its row batches
// (opts.Parallelism).
type residentBinned struct {
	b    *histogram.Binned
	cols *histogram.Columns
}

func (rb residentBinned) build(pool *parallel.Pool, nodes []ooc.NodeBuild, grad, hess []float64, opts histogram.BuildOptions, nb NodeBuilder) {
	for i := range nodes {
		nd := &nodes[i]
		nd.H = opts.Pool.Get()
		nd.H.Defer()
		switch {
		case nb != nil:
			nb.BuildNode(nd.H, nd.Rows, grad, hess, opts)
		case rb.cols != nil && len(nd.Rows) == rb.cols.NumRows():
			// A node's rows are ascending, so these are 0, 1, …, n−1.
			rb.cols.Build(nd.H, grad, hess, opts, pool)
		default:
			histogram.BuildBinned(nd.H, rb.b, nd.Rows, grad, hess, opts)
		}
	}
}

func (rb residentBinned) oneWalk() bool { return false }

// Classify fans the layer's rows out over the pool once: the splits' rows,
// end to end, are one grid of row chunks.
func (rb residentBinned) Classify(pool *parallel.Pool, splits []ooc.NodeSplit, mask []bool) {
	ends := make([]int, len(splits)) // ends[i] counts the rows of splits[:i+1]
	n := 0
	for i, s := range splits {
		n += len(s.Rows)
		ends[i] = n
	}
	pool.For(n, parallel.RowChunk, func(lo, hi int) {
		for i, _ := slices.BinarySearch(ends, lo+1); lo < hi; i++ {
			s, start := splits[i], ends[i]-len(splits[i].Rows)
			for _, r := range s.Rows[lo-start : min(hi, ends[i])-start] {
				mask[r] = rb.b.Bin(int(r), s.Pos) <= s.Bucket
			}
			lo = min(hi, ends[i])
		}
	})
}

func (rb residentBinned) Close() error { return nil }

// scoreInto scores every row into out with eng, one engine call per piece of
// a row chunk the row source hands over; prediction is per-row pure, so the
// scores are those of one batch call over all rows.
func (tr *Trainer) scoreInto(eng *predict.Engine, out []float64) {
	eng.Workers = 1
	tr.pool.For(len(out), parallel.RowChunk, func(lo, hi int) {
		tr.rows.ForRowRange(lo, hi, func(d *dataset.Dataset, base, rlo, rhi int) {
			a, b := rlo-base, rhi-base
			rows := dataset.Dataset{RowPtr: d.RowPtr[a : b+1], Indices: d.Indices, Values: d.Values, Labels: d.Labels[a:b], NumFeatures: d.NumFeatures}
			eng.PredictBatchInto(&rows, out[rlo:rhi])
		})
	})
}
