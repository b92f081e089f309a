package histogram

import (
	"slices"

	"dimboost/internal/parallel"
)

// Columns is the column-major copy of a Binned mirror: for every sampled
// position, the rows that store a nonzero there, in ascending order, and
// their bin ids. A node that holds every row builds from it (Build) one
// position at a time, so each position's buckets stay in cache while its
// column streams past, where the row walk scatters every row across the
// whole histogram. It costs 5 bytes per nonzero (an int32 row and a uint8
// bin; 6 with uint16 bins) and 8 per sampled position.
type Columns struct {
	// ColPtr delimits position p's entries as [ColPtr[p], ColPtr[p+1]).
	ColPtr []int64
	// Rows holds the row id of each entry; ascending within a position.
	Rows []int32
	// Bins8/Bins16 hold the bin id of each entry, parallel to Rows; exactly
	// one is non-nil, as in the Binned it was copied from.
	Bins8  []uint8
	Bins16 []uint16

	numRows int
}

// NewColumns transposes b on pool's workers: each worker counts, then
// copies, the entries of one contiguous range of rows, and a worker's
// entries of a position go after those of the ranges before it, so every
// column comes out in ascending row order. The copy is the same at any
// parallelism.
func NewColumns(b *Binned, pool *parallel.Pool) *Columns {
	n, npos := b.NumRows(), len(b.Layout.Features)
	c := &Columns{ColPtr: make([]int64, npos+1), Rows: make([]int32, b.NNZ()), numRows: n}
	if b.Wide() {
		c.Bins16 = make([]uint16, b.NNZ())
	} else {
		c.Bins8 = make([]uint8, b.NNZ())
	}
	k := max(1, min(pool.Workers(), n))
	// at[w][p] counts range w's entries of position p, then becomes where
	// its next one goes.
	at := make([][]int64, k)
	pool.Tasks(k, func(w int) {
		cnt := make([]int64, npos)
		lo, hi := b.RowPtr[w*n/k], b.RowPtr[(w+1)*n/k]
		for _, p := range b.Pos[lo:hi] {
			cnt[p]++
		}
		at[w] = cnt
	})
	for p := 0; p < npos; p++ {
		next := c.ColPtr[p]
		for w := range at {
			next, at[w][p] = next+at[w][p], next
		}
		c.ColPtr[p+1] = next
	}
	pool.Tasks(k, func(w int) {
		if c.Bins16 != nil {
			transposeRange(c, c.Bins16, b, b.Bins16, at[w], w*n/k, (w+1)*n/k)
		} else {
			transposeRange(c, c.Bins8, b, b.Bins8, at[w], w*n/k, (w+1)*n/k)
		}
	})
	return c
}

// transposeRange copies the entries of b's rows [lo, hi) into their columns,
// the next free slot of position p being at[p].
func transposeRange[T uint8 | uint16](c *Columns, dst []T, b *Binned, src []T, at []int64, lo, hi int) {
	for r := lo; r < hi; r++ {
		for j := b.RowPtr[r]; j < b.RowPtr[r+1]; j++ {
			p := b.Pos[j]
			i := at[p]
			c.Rows[i], dst[i] = int32(r), src[j]
			at[p] = i + 1
		}
	}
}

// NumRows returns the number of rows of the mirror the copy was made from.
func (c *Columns) NumRows() int { return c.numRows }

// Build fills h, which is zeroed (fresh from New, Reset or Pool.Get, and
// deferred or not), with the histogram of the node that holds every row, in
// the bits BuildBinned gives over rows 0, 1, …, n−1 with the same
// BatchSize. Within a batch every operation on a position's buckets — +g to
// its bin and −g to its zero bucket per entry, then the batch's gradient sum
// to the zero bucket — comes in ascending row order in both walks, since a
// row holds a position at most once; the batch grid and the ascending merge
// of the batches' partials are BuildBatches'. The 64-position words of the
// touched set are fanned out over pool, one word a task, so each word and
// each bucket has one writer. Unlike BuildBatches, which fans the batches
// out, batches go one after another, so a node of several batches holds one
// partial (from opts.Pool when set) at a time.
func (c *Columns) Build(h *Histogram, grad, hess []float64, opts BuildOptions, pool *parallel.Pool) {
	n := c.numRows
	if opts.OneBatch(n) {
		c.buildBatch(h, 0, n, grad, hess, pool)
		return
	}
	deferred := h.deferred
	batches, size := parallel.Grid(n, opts.batchSize())
	for k := 0; k < batches; k++ {
		lo, hi := parallel.ChunkBounds(k, size, n)
		var part *Histogram
		if opts.Pool != nil {
			part = opts.Pool.Get()
		} else {
			part = New(h.Layout)
		}
		if deferred {
			part.Defer()
		}
		c.buildBatch(part, lo, hi, grad, hess, pool)
		h.Add(part)
		if opts.Pool != nil {
			opts.Pool.Put(part)
		}
	}
}

// buildBatch builds rows [lo, hi) into the zeroed h: AccumSparseBinned then
// FinishSparseZeros, position by position.
func (c *Columns) buildBatch(h *Histogram, lo, hi int, grad, hess []float64, pool *parallel.Pool) {
	var sumG, sumH float64
	for r := lo; r < hi; r++ {
		sumG += grad[r]
		sumH += hess[r]
	}
	all := lo == 0 && hi == c.numRows
	pool.Tasks(touchedWords(h.Layout), func(w int) {
		if c.Bins16 != nil {
			buildWord(h, c, c.Bins16, w, all, int32(lo), int32(hi), grad, hess, sumG, sumH)
		} else {
			buildWord(h, c, c.Bins8, w, all, int32(lo), int32(hi), grad, hess, sumG, sumH)
		}
	})
	if h.deferred {
		h.defG += sumG
		h.defH += sumH
	}
}

// buildWord builds the positions of touched word w from their entries in
// rows [lo, hi) (every entry when all is set). A deferred h's word gets the
// positions with an entry there; the others keep their buckets at zero and
// are owed the batch's sums as deferred mass.
func buildWord[T uint8 | uint16](h *Histogram, c *Columns, bins []T, w int, all bool, lo, hi int32, grad, hess []float64, sumG, sumH float64) {
	l := h.Layout
	G, H := h.G, h.H
	var set uint64
	for p := w << 6; p < min(w<<6+64, len(l.Features)); p++ {
		a, b := c.ColPtr[p], c.ColPtr[p+1]
		if !all {
			col := c.Rows[a:b]
			i, _ := slices.BinarySearch(col, lo)
			j, _ := slices.BinarySearch(col[i:], hi)
			a, b = a+int64(i), a+int64(i+j)
		}
		if a == b && h.deferred {
			continue
		}
		if a < b {
			set |= 1 << (p & 63)
		}
		off, z := int(l.Offsets[p]), int(l.zeroIdx[p])
		for j := a; j < b; j++ {
			r := c.Rows[j]
			g, hs := grad[r], hess[r]
			k := off + int(bins[j])
			G[k] += g
			H[k] += hs
			G[z] -= g
			H[z] -= hs
		}
		G[z] += sumG
		H[z] += sumH
	}
	if h.deferred {
		h.touched[w] = set
	}
}
