// Package dataset provides sparse and dense training-data containers for
// DimBoost, along with LibSVM I/O, row-wise partitioning for distributed
// workers, and synthetic high-dimensional generators used by the experiment
// harness.
//
// The primary container is Dataset, a compressed sparse row (CSR) matrix of
// float32 feature values plus a float32 label per row. High-dimensional
// datasets in the paper (RCV1, Synthesis, Gender) are extremely sparse
// (76–107 nonzeros out of 47K–330K features), so the CSR layout is the
// canonical representation; dense data is stored as rows whose nonzero
// entries happen to cover every column.
package dataset

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Instance is a single sparse training example: parallel Indices/Values
// arrays sorted by feature index, plus a label. Instances borrow their
// backing arrays from the Dataset they were taken from; callers must not
// mutate them.
type Instance struct {
	Indices []int32
	Values  []float32
	Label   float32
}

// Feature returns the value of feature f, or 0 if f is not present.
// Indices are sorted, so lookup is a binary search.
func (in Instance) Feature(f int) float32 {
	i := sort.Search(len(in.Indices), func(i int) bool { return in.Indices[i] >= int32(f) })
	if i < len(in.Indices) && in.Indices[i] == int32(f) {
		return in.Values[i]
	}
	return 0
}

// NNZ returns the number of stored (nonzero) entries.
func (in Instance) NNZ() int { return len(in.Indices) }

// Dataset is a CSR sparse matrix with labels. Row i occupies
// Indices[RowPtr[i]:RowPtr[i+1]] and Values[RowPtr[i]:RowPtr[i+1]];
// indices within a row are strictly increasing.
type Dataset struct {
	RowPtr      []int64
	Indices     []int32
	Values      []float32
	Labels      []float32
	NumFeatures int
}

// NumRows returns the number of instances.
func (d *Dataset) NumRows() int { return len(d.Labels) }

// NNZ returns the total number of stored entries.
func (d *Dataset) NNZ() int64 { return int64(len(d.Indices)) }

// Row returns the i-th instance. The returned Instance aliases the dataset's
// storage.
func (d *Dataset) Row(i int) Instance {
	lo, hi := d.RowPtr[i], d.RowPtr[i+1]
	return Instance{Indices: d.Indices[lo:hi], Values: d.Values[lo:hi], Label: d.Labels[i]}
}

// AvgNNZ returns the average number of nonzeros per row (the paper's z).
func (d *Dataset) AvgNNZ() float64 {
	if d.NumRows() == 0 {
		return 0
	}
	return float64(d.NNZ()) / float64(d.NumRows())
}

// SizeBytes estimates the in-memory footprint of the CSR arrays.
func (d *Dataset) SizeBytes() int64 {
	return int64(len(d.RowPtr))*8 + int64(len(d.Indices))*4 + int64(len(d.Values))*4 + int64(len(d.Labels))*4
}

// Validate checks structural invariants: monotone row pointers, sorted
// strictly-increasing indices within each row, indices within
// [0, NumFeatures), and finite values.
func (d *Dataset) Validate() error {
	n := d.NumRows()
	if len(d.RowPtr) != n+1 {
		return fmt.Errorf("dataset: RowPtr length %d, want %d", len(d.RowPtr), n+1)
	}
	if d.RowPtr[0] != 0 {
		return errors.New("dataset: RowPtr[0] != 0")
	}
	if d.RowPtr[n] != int64(len(d.Indices)) {
		return fmt.Errorf("dataset: RowPtr[n]=%d, want %d", d.RowPtr[n], len(d.Indices))
	}
	if len(d.Indices) != len(d.Values) {
		return fmt.Errorf("dataset: %d indices vs %d values", len(d.Indices), len(d.Values))
	}
	for i := 0; i < n; i++ {
		lo, hi := d.RowPtr[i], d.RowPtr[i+1]
		if lo > hi {
			return fmt.Errorf("dataset: row %d has negative extent", i)
		}
		prev := int32(-1)
		for j := lo; j < hi; j++ {
			idx := d.Indices[j]
			if idx <= prev {
				return fmt.Errorf("dataset: row %d indices not strictly increasing at %d", i, j)
			}
			if idx < 0 || int(idx) >= d.NumFeatures {
				return fmt.Errorf("dataset: row %d feature %d out of range [0,%d)", i, idx, d.NumFeatures)
			}
			if v := d.Values[j]; math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return fmt.Errorf("dataset: row %d value at feature %d not finite", i, idx)
			}
			prev = idx
		}
	}
	return nil
}

// Builder accumulates rows and produces a Dataset. It is not safe for
// concurrent use.
type Builder struct {
	rowPtr      []int64
	indices     []int32
	values      []float32
	labels      []float32
	numFeatures int
}

// NewBuilder returns a Builder for datasets with the given feature count.
// If numFeatures is 0 the dimensionality is inferred as maxIndex+1 at Build.
func NewBuilder(numFeatures int) *Builder {
	return &Builder{rowPtr: []int64{0}, numFeatures: numFeatures}
}

// Add appends one sparse row. Indices must be strictly increasing; zero
// values are dropped.
func (b *Builder) Add(indices []int32, values []float32, label float32) error {
	if len(indices) != len(values) {
		return fmt.Errorf("dataset: %d indices vs %d values", len(indices), len(values))
	}
	prev := int32(-1)
	for i, idx := range indices {
		if idx <= prev {
			return fmt.Errorf("dataset: indices not strictly increasing at position %d", i)
		}
		prev = idx
		if values[i] == 0 {
			continue
		}
		b.indices = append(b.indices, idx)
		b.values = append(b.values, values[i])
		if b.numFeatures == 0 && int(idx) >= b.numFeatures {
			// inferred below at Build; track nothing here
		}
	}
	b.rowPtr = append(b.rowPtr, int64(len(b.indices)))
	b.labels = append(b.labels, label)
	return nil
}

// AddDense appends one dense row, dropping zeros.
func (b *Builder) AddDense(row []float32, label float32) {
	for i, v := range row {
		if v != 0 {
			b.indices = append(b.indices, int32(i))
			b.values = append(b.values, v)
		}
	}
	b.rowPtr = append(b.rowPtr, int64(len(b.indices)))
	b.labels = append(b.labels, label)
}

// Build finalizes the dataset. The Builder must not be reused afterwards.
func (b *Builder) Build() *Dataset {
	nf := b.numFeatures
	if nf == 0 {
		for _, idx := range b.indices {
			if int(idx)+1 > nf {
				nf = int(idx) + 1
			}
		}
	}
	return &Dataset{
		RowPtr:      b.rowPtr,
		Indices:     b.indices,
		Values:      b.values,
		Labels:      b.labels,
		NumFeatures: nf,
	}
}

// FromDense converts a dense matrix with labels into a Dataset.
func FromDense(rows [][]float32, labels []float32) (*Dataset, error) {
	if len(rows) != len(labels) {
		return nil, fmt.Errorf("dataset: %d rows vs %d labels", len(rows), len(labels))
	}
	nf := 0
	for _, r := range rows {
		if len(r) > nf {
			nf = len(r)
		}
	}
	b := NewBuilder(nf)
	for i, r := range rows {
		b.AddDense(r, labels[i])
	}
	return b.Build(), nil
}

// ToDense materializes the dataset as a dense matrix. Intended for tests and
// the PCA substrate on reduced data; it allocates NumRows×NumFeatures floats.
func (d *Dataset) ToDense() [][]float32 {
	out := make([][]float32, d.NumRows())
	for i := range out {
		row := make([]float32, d.NumFeatures)
		in := d.Row(i)
		for j, idx := range in.Indices {
			row[idx] = in.Values[j]
		}
		out[i] = row
	}
	return out
}

// SelectFeatures returns a copy of the dataset restricted to features
// [0, limit), re-using the paper's "Gender-10K = first 10K features"
// protocol (§7.3.4). Entries with index >= limit are dropped.
func (d *Dataset) SelectFeatures(limit int) *Dataset {
	if limit >= d.NumFeatures {
		limit = d.NumFeatures
	}
	b := NewBuilder(limit)
	for i := 0; i < d.NumRows(); i++ {
		in := d.Row(i)
		cut := sort.Search(len(in.Indices), func(k int) bool { return in.Indices[k] >= int32(limit) })
		// Indices within a row are sorted, so the prefix is exactly the kept set.
		b.indices = append(b.indices, in.Indices[:cut]...)
		b.values = append(b.values, in.Values[:cut]...)
		b.rowPtr = append(b.rowPtr, int64(len(b.indices)))
		b.labels = append(b.labels, in.Label)
	}
	return b.Build()
}

// Subset returns a copy containing rows [lo, hi).
func (d *Dataset) Subset(lo, hi int) *Dataset {
	if lo < 0 || hi > d.NumRows() || lo > hi {
		panic(fmt.Sprintf("dataset: bad subset [%d,%d) of %d rows", lo, hi, d.NumRows()))
	}
	b := NewBuilder(d.NumFeatures)
	// The range's sizes are known: allocate once instead of growing (empty
	// arrays stay nil, as appending nothing leaves them).
	if nnz := int(d.RowPtr[hi] - d.RowPtr[lo]); nnz > 0 {
		b.indices = make([]int32, 0, nnz)
		b.values = make([]float32, 0, nnz)
	}
	if hi > lo {
		b.rowPtr = append(make([]int64, 0, hi-lo+1), 0)
		b.labels = make([]float32, 0, hi-lo)
	}
	for i := lo; i < hi; i++ {
		in := d.Row(i)
		b.indices = append(b.indices, in.Indices...)
		b.values = append(b.values, in.Values...)
		b.rowPtr = append(b.rowPtr, int64(len(b.indices)))
		b.labels = append(b.labels, in.Label)
	}
	return b.Build()
}

// Gather returns a copy containing the given rows in order (rows may repeat
// — bootstrap sampling uses that).
func (d *Dataset) Gather(rows []int32) *Dataset {
	b := NewBuilder(d.NumFeatures)
	for _, r := range rows {
		in := d.Row(int(r))
		b.indices = append(b.indices, in.Indices...)
		b.values = append(b.values, in.Values...)
		b.rowPtr = append(b.rowPtr, int64(len(b.indices)))
		b.labels = append(b.labels, in.Label)
	}
	return b.Build()
}

// Split partitions the dataset into train/test by the given train fraction,
// using rows in order (the paper splits 90%/10%).
func (d *Dataset) Split(trainFrac float64) (train, test *Dataset) {
	cut := int(float64(d.NumRows()) * trainFrac)
	if cut < 0 {
		cut = 0
	}
	if cut > d.NumRows() {
		cut = d.NumRows()
	}
	return d.Subset(0, cut), d.Subset(cut, d.NumRows())
}
