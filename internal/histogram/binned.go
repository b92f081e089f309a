package histogram

import (
	"sort"

	"dimboost/internal/dataset"
	"dimboost/internal/parallel"
)

// Binned is a quantized CSR mirror of a dataset restricted to a Layout's
// sampled features: every stored nonzero is reduced to its sampled position
// and its histogram bin id, computed once per layout from the
// split-candidate cuts. Histogram construction and node splitting then become pure integer
// arithmetic — no float comparisons and no per-nonzero binary searches —
// which is how production histogram systems (XGBoost, LightGBM) spend the
// dominant GBDT cost.
//
// Bin ids are uint8 when every sampled feature has at most 256 buckets (the
// common case: K split candidates per feature, K ≤ 255) and escalate to
// uint16 otherwise. Exactly one of Bins8/Bins16 is non-nil.
type Binned struct {
	Layout *Layout
	// RowPtr delimits row r's entries as [RowPtr[r], RowPtr[r+1]), exactly
	// like dataset.Dataset but counting only sampled-feature nonzeros.
	RowPtr []int64
	// Pos holds the sampled position (index into Layout.Features) of each
	// entry; ascending within a row.
	Pos []int32
	// Bins8/Bins16 hold the bin id of each entry, parallel to Pos.
	Bins8  []uint8
	Bins16 []uint16
}

// Wide reports whether bin ids needed uint16 escalation.
func (b *Binned) Wide() bool { return b.Bins16 != nil }

// NumRows returns the number of mirrored rows.
func (b *Binned) NumRows() int { return len(b.RowPtr) - 1 }

// NNZ returns the number of stored (sampled-feature) entries.
func (b *Binned) NNZ() int64 { return int64(len(b.Pos)) }

// SizeBytes estimates the in-memory footprint of the binned arrays.
func (b *Binned) SizeBytes() int64 {
	return int64(len(b.RowPtr))*8 + int64(len(b.Pos))*4 + int64(len(b.Bins8)) + int64(len(b.Bins16))*2
}

// Bin returns the bin id of sampled position p in row r; when the row
// stores no entry for p the value is zero and the feature's zero bucket is
// returned. Entries within a row are sorted by position, so lookup is a
// binary search over the row's (few) sampled nonzeros.
func (b *Binned) Bin(r int, p int32) int {
	lo, hi := b.RowPtr[r], b.RowPtr[r+1]
	row := b.Pos[lo:hi]
	i := sort.Search(len(row), func(i int) bool { return row[i] >= p })
	if i < len(row) && row[i] == p {
		if b.Bins16 != nil {
			return int(b.Bins16[lo+int64(i)])
		}
		return int(b.Bins8[lo+int64(i)])
	}
	return b.Layout.Cands[p].ZeroBucket
}

// WideBins reports whether bin ids under the layout escalate to uint16: some
// sampled feature has more buckets than a uint8 tells apart.
func (l *Layout) WideBins() bool {
	for p := range l.Features {
		if l.Cands[p].NumBuckets() > 256 {
			return true
		}
	}
	return false
}

// CountBins writes into rowPtr[r+1], for every row r of d in [lo, hi), how
// many of its nonzeros the layout samples: a Binned's RowPtr before the
// running sum.
func CountBins(d *dataset.Dataset, l *Layout, rowPtr []int64, lo, hi int) {
	for r := lo; r < hi; r++ {
		kept := int64(0)
		for _, f := range d.Row(r).Indices {
			if l.Pos(f) >= 0 {
				kept++
			}
		}
		rowPtr[r+1] = kept
	}
}

// Fill quantizes every sampled nonzero of d's rows [lo, hi) into b, whose
// RowPtr delimits them: its position and its bin id under b's layout.
func (b *Binned) Fill(d *dataset.Dataset, lo, hi int) {
	l, pos, bins8, bins16 := b.Layout, b.Pos, b.Bins8, b.Bins16
	for r := lo; r < hi; r++ {
		in := d.Row(r)
		at := b.RowPtr[r]
		for j, f := range in.Indices {
			p := l.Pos(f)
			if p < 0 {
				continue
			}
			k := l.Cands[p].Bucket(float64(in.Values[j]))
			pos[at] = p
			if bins16 != nil {
				bins16[at] = uint16(k)
			} else {
				bins8[at] = uint8(k)
			}
			at++
		}
	}
}

// NewBinned quantizes every sampled-feature nonzero of d into its histogram
// bin under the layout, in parallel over row chunks (each row's entries are
// computed independently, so the result is the same at any parallelism;
// values < 1 mean runtime.GOMAXPROCS(0)). The result is reused across all
// nodes and layers of every tree grown under the layout; the quantization pays the per-nonzero binary
// search exactly once instead of once per layer.
func NewBinned(d *dataset.Dataset, l *Layout, parallelism int) *Binned {
	n := d.NumRows()
	b := &Binned{Layout: l, RowPtr: make([]int64, n+1)}
	pl := parallel.New(parallelism)
	pl.For(n, parallel.RowChunk, func(lo, hi int) { CountBins(d, l, b.RowPtr, lo, hi) })
	for r := 0; r < n; r++ {
		b.RowPtr[r+1] += b.RowPtr[r]
	}
	nnz := b.RowPtr[n]
	b.Pos = make([]int32, nnz)
	if l.WideBins() {
		b.Bins16 = make([]uint16, nnz)
	} else {
		b.Bins8 = make([]uint8, nnz)
	}
	pl.For(n, parallel.RowChunk, func(lo, hi int) { b.Fill(d, lo, hi) })
	return b
}
