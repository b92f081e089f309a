package ooc

import (
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"sync"

	"dimboost/internal/histogram"
	"dimboost/internal/parallel"
)

// SpilledBinned is the disk-resident counterpart of histogram.Binned: one
// layout's quantized CSR mirror, written chunk by chunk to an unlinked spill
// file in parallel.RowChunk-aligned (more precisely, Source.ChunkRows-
// aligned) segments and read back through a bounded pinned cache —
// memory-mapped where the platform allows, pread + decode otherwise.
//
// Segment layout (native byte order, page-aligned start):
//
//	rowPtr (rows+1)×i64   chunk-local entry offsets
//	pos    nnz×i32        sampled position of each kept nonzero
//	bins   nnz×u8|u16     bin id (u16 iff any sampled feature has >256 buckets)
//
// Histogram builds (BuildLayer) and split classification (Classify) each
// walk the segments once per layer and pool worker, using exactly the
// in-memory accumulation grid and merge order, so every result is
// Float64bits-identical to histogram.BuildBinned / Binned.Bin on the full
// matrix.
type SpilledBinned struct {
	src    *Source
	layout *histogram.Layout
	wide   bool

	f       *os.File
	path    string
	unlinkd bool
	segs    []segMeta
	written int64

	cache *cache[*binnedSeg]
}

type segMeta struct {
	off  int64
	rows int
	nnz  int64
}

// binnedSeg is one resident segment: a chunk-local Binned view over either a
// mapping of the spill file or decoded heap slices.
type binnedSeg struct {
	bin    histogram.Binned
	mapped []byte
}

// segBytes returns the byte size of a segment holding rows rows and nnz
// entries.
func segBytes(rows int, nnz int64, wide bool) int64 {
	w := int64(1)
	if wide {
		w = 2
	}
	return int64(rows+1)*8 + nnz*4 + nnz*w
}

// maxNarrowBuckets mirrors histogram.NewBinned's uint8/uint16 escalation
// threshold.
const maxNarrowBuckets = 256

// BuildBinned quantizes the dataset under the layout and spills the result —
// the out-of-core counterpart of histogram.NewBinned, run once per layout.
// Chunks quantize in parallel through the pool; each worker pins one source
// chunk, encodes its segment into a pooled buffer, and writes it at the
// chunk's precomputed offset, so the file content is independent of worker
// count and schedule.
func (s *Source) BuildBinned(l *histogram.Layout, pool *parallel.Pool) (*SpilledBinned, error) {
	wide := false
	for p := range l.Features {
		if l.Cands[p].NumBuckets() > maxNarrowBuckets {
			wide = true
			break
		}
	}
	nc := s.NumChunks()
	sb := &SpilledBinned{src: s, layout: l, wide: wide, segs: make([]segMeta, nc)}

	// Offsets are bounds computed from the *source* nonzero counts (feature
	// sampling can only keep fewer), so writers never depend on each other's
	// actual sizes and the build parallelizes freely. The gap between bound
	// and actual is disk-only waste, never resident.
	offs := make([]int64, nc+1)
	for c := 0; c < nc; c++ {
		lo, hi := s.ChunkBounds(c)
		offs[c+1] = offs[c] + alignPage(segBytes(hi-lo, s.cf.ChunkNNZ(c), wide))
	}

	f, err := os.CreateTemp(s.opt.SpillDir, "dimboost-spill-*.bin")
	if err != nil {
		return nil, err
	}
	sb.f, sb.path = f, f.Name()
	// Unlink immediately where the OS allows: the spill is pure scratch and
	// should vanish even on a crash. Close removes the path otherwise.
	if err := os.Remove(sb.path); err == nil {
		sb.unlinkd = true
	}

	var maxBound int64
	for c := 0; c < nc; c++ {
		if b := offs[c+1] - offs[c]; b > maxBound {
			maxBound = b
		}
	}
	// Encode buffers recycle through an explicit free list rather than a
	// sync.Pool: at most one buffer per concurrent task ever exists, so the
	// budget accounting (maxBound per buffer) is deterministic and bounded by
	// the worker count regardless of GC or race-detector pool behavior.
	var (
		bufMu   sync.Mutex
		bufFree [][]byte
		nBufs   int64
	)
	getBuf := func() []byte {
		bufMu.Lock()
		defer bufMu.Unlock()
		if n := len(bufFree); n > 0 {
			b := bufFree[n-1]
			bufFree = bufFree[:n-1]
			return b
		}
		nBufs++
		s.tr.Reserve(maxBound)
		return make([]byte, maxBound)
	}
	putBuf := func(b []byte) {
		bufMu.Lock()
		bufFree = append(bufFree, b)
		bufMu.Unlock()
	}

	pool.Tasks(nc, func(c int) {
		d, release, err := s.Chunk(c)
		if err != nil {
			s.fail(err)
			return
		}
		defer release()
		buf := getBuf()
		defer putBuf(buf)

		rows := d.NumRows()
		rowPtrB := buf[: (rows+1)*8 : (rows+1)*8]
		// Pass 1: count kept nonzeros per row straight into the rowPtr
		// section (cumulative), exactly like histogram.NewBinned's pass 1.
		binary.NativeEndian.PutUint64(rowPtrB, 0)
		kept := int64(0)
		for r := 0; r < rows; r++ {
			in := d.Row(r)
			for _, ft := range in.Indices {
				if l.Pos(ft) >= 0 {
					kept++
				}
			}
			binary.NativeEndian.PutUint64(rowPtrB[(r+1)*8:], uint64(kept))
		}
		// Pass 2: quantize into the pos and bin sections.
		posOff := int64(rows+1) * 8
		binOff := posOff + kept*4
		at := int64(0)
		for r := 0; r < rows; r++ {
			in := d.Row(r)
			for j, ft := range in.Indices {
				p := l.Pos(ft)
				if p < 0 {
					continue
				}
				k := l.Cands[p].Bucket(float64(in.Values[j]))
				binary.NativeEndian.PutUint32(buf[posOff+at*4:], uint32(p))
				if wide {
					binary.NativeEndian.PutUint16(buf[binOff+at*2:], uint16(k))
				} else {
					buf[binOff+at] = uint8(k)
				}
				at++
			}
		}
		n := segBytes(rows, kept, wide)
		if _, err := sb.f.WriteAt(buf[:n], offs[c]); err != nil {
			s.fail(fmt.Errorf("ooc: writing spill segment %d: %w", c, err))
			return
		}
		sb.segs[c] = segMeta{off: offs[c], rows: rows, nnz: kept}
	})
	// The encode buffers die with the free list here; release their
	// accounting.
	s.tr.Release(nBufs * maxBound)
	if err := s.Err(); err != nil {
		sb.Close()
		return nil, err
	}
	for _, m := range sb.segs {
		sb.written += segBytes(m.rows, m.nnz, wide)
	}
	oocMetrics().spillBytes.Add(sb.written)

	_, _, _, readBytes := cacheMetrics("binned")
	sb.cache = newCache("binned", s.spillCap, s.tr,
		func(c int) int64 {
			m := sb.segs[c]
			return alignPage(segBytes(m.rows, m.nnz, wide))
		},
		func(c int) (*binnedSeg, error) {
			seg, err := sb.loadSeg(c)
			if err == nil {
				readBytes.Add(segBytes(sb.segs[c].rows, sb.segs[c].nnz, wide))
			}
			return seg, err
		},
		func(seg *binnedSeg) {
			if seg.mapped != nil {
				munmap(seg.mapped)
			}
		},
	)
	return sb, nil
}

// loadSeg materializes segment c: mmap where supported, pread + decode
// otherwise. Both paths yield identical values.
func (sb *SpilledBinned) loadSeg(c int) (*binnedSeg, error) {
	m := sb.segs[c]
	n := segBytes(m.rows, m.nnz, sb.wide)
	posOff := int64(m.rows+1) * 8
	binOff := posOff + m.nnz*4
	if mmapSupported {
		data, err := mmapAt(sb.f, m.off, n)
		if err == nil {
			seg := &binnedSeg{mapped: data}
			seg.bin = histogram.Binned{
				Layout: sb.layout,
				RowPtr: castI64(data[:posOff], m.rows+1),
				Pos:    castI32(data[posOff:binOff], int(m.nnz)),
			}
			if sb.wide {
				seg.bin.Bins16 = castU16(data[binOff:], int(m.nnz))
			} else {
				seg.bin.Bins8 = data[binOff : binOff+m.nnz]
			}
			return seg, nil
		}
	}
	buf := make([]byte, n)
	if n > 0 {
		if _, err := sb.f.ReadAt(buf, m.off); err != nil {
			return nil, fmt.Errorf("ooc: reading spill segment %d: %w", c, err)
		}
	}
	seg := &binnedSeg{}
	seg.bin = histogram.Binned{
		Layout: sb.layout,
		RowPtr: getI64s(buf, m.rows+1),
		Pos:    getI32s(buf[posOff:], int(m.nnz)),
	}
	if sb.wide {
		seg.bin.Bins16 = getU16s(buf[binOff:], int(m.nnz))
	} else {
		seg.bin.Bins8 = append([]uint8(nil), buf[binOff:binOff+m.nnz]...)
	}
	return seg, nil
}

// Close evicts every resident segment (unmapping them) and deletes the
// spill file.
func (sb *SpilledBinned) Close() error {
	if sb.cache != nil {
		sb.cache.drop()
	}
	err := sb.f.Close()
	if !sb.unlinkd {
		os.Remove(sb.path)
	}
	return err
}

// Wide reports whether bin ids needed uint16 escalation.
func (sb *SpilledBinned) Wide() bool { return sb.wide }

// SpillBytes returns the payload bytes written to the spill file.
func (sb *SpilledBinned) SpillBytes() int64 { return sb.written }

// Seg pins segment c and returns its chunk-local Binned view (local row i is
// global row ChunkBounds(c).lo + i). The release function must be called
// exactly once; the view must not be used after release.
func (sb *SpilledBinned) Seg(c int) (*histogram.Binned, func(), error) {
	seg, release, err := sb.cache.pin(c)
	if err != nil {
		return nil, nil, err
	}
	return &seg.bin, release, nil
}

// NodeBuild is one node of a layer as BuildLayer takes it: the zeroed
// histogram to fill, deferred or materialised, and the node's rows
// (ascending global ids).
type NodeBuild struct {
	H    *histogram.Histogram
	Rows []int32
}

// layerUnit is one node, or one batch of a node, as walk advances it: its
// rows, the histogram it accumulates into, how far the walk has got, and
// the running zero-bucket sums carried from segment to segment.
type layerUnit struct {
	h          *histogram.Histogram
	rows       []int32
	at         int
	sumG, sumH float64
}

// BuildLayer is histogram.BuildBinned for every node of a layer over the
// spilled matrix. A node of several batches goes through
// histogram.BuildBatches, the batch grid and ascending fold every resident
// build uses: each batch walks only the segments its rows lie in, into a
// partial from opts.Pool, so at most P+1 partials are live whatever the
// row count. The nodes of one batch — every node below the top layers —
// build straight into their histograms, with no partial, in one walk over
// the spill per pool worker: they are dealt to the workers in contiguous
// runs of about equal row count, and a worker walks the segments its nodes
// have rows in once, in ascending order, pins each one once, and advances
// every node with rows there. Either way each walk threads the zero-bucket
// sums across segments (histogram.AccumSparseBinned), so every node sees
// its rows in the order a resident build does, and every histogram is
// Float64bits-equal to BuildBinned's on the resident mirror at any
// parallelism, chunk size and budget. A layer reads at most P × SpillBytes
// for its one-batch nodes, plus the segments of each batch of the others.
// pool stands in for opts.Parallelism; opts.Dense is not supported
// (out-of-core training rejects DenseBuild).
func (sb *SpilledBinned) BuildLayer(pool *parallel.Pool, nodes []NodeBuild, grad, hess []float64, opts histogram.BuildOptions) {
	var (
		units []layerUnit
		total int
	)
	for _, nd := range nodes {
		if !opts.OneBatch(len(nd.Rows)) {
			histogram.BuildBatches(nd.H, nd.Rows, opts, func(part *histogram.Histogram, batch []int32) {
				sb.walk([]layerUnit{{h: part, rows: batch}}, grad, hess)
			})
			continue
		}
		units = append(units, layerUnit{h: nd.H, rows: nd.Rows})
		total += len(nd.Rows)
	}
	runs := dealUnits(units, pool.Workers(), total)
	pool.Tasks(len(runs)-1, func(w int) { sb.walk(units[runs[w]:runs[w+1]], grad, hess) })
}

// dealUnits cuts units into at most p contiguous runs of about equal row
// count, run w being units[runs[w]:runs[w+1]]: each cut falls at the unit
// boundary nearest its share of the total.
func dealUnits(units []layerUnit, p, total int) []int {
	p = min(p, len(units))
	runs := make([]int, p+1)
	runs[p] = len(units)
	acc, w := 0, 1
	for i, u := range units {
		n := len(u.rows)
		for w < p && 2*total*w <= p*(2*acc+n) {
			runs[w] = i
			w++
		}
		acc += n
	}
	for ; w < p; w++ {
		runs[w] = len(units)
	}
	return runs
}

// walk advances units over the spill in one ascending pass. It pins each
// segment any unit still has rows in once — never more than one at a
// time — accumulates every such unit's run of rows there, and finishes
// every unit's zero buckets at the end. The chunk-local row ids go through
// one scratch buffer of ChunkRows int32s, part of the documented fixed
// working set and not budget-accounted.
func (sb *SpilledBinned) walk(units []layerUnit, grad, hess []float64) {
	chunkRows := sb.src.ChunkRows()
	local := make([]int32, 0, chunkRows)
	for {
		c := -1 // the lowest segment a unit still has rows in
		for i := range units {
			if u := &units[i]; u.at < len(u.rows) {
				if s := int(u.rows[u.at]) / chunkRows; c < 0 || s < c {
					c = s
				}
			}
		}
		if c < 0 {
			break
		}
		view, release, err := sb.Seg(c)
		if err != nil {
			sb.src.fail(err)
			return
		}
		lo, hi := sb.src.ChunkBounds(c)
		for i := range units {
			u := &units[i]
			local = local[:0]
			for ; u.at < len(u.rows) && int(u.rows[u.at]) < hi; u.at++ {
				local = append(local, u.rows[u.at]-int32(lo))
			}
			u.sumG, u.sumH = histogram.AccumSparseBinned(u.h, view, local, grad[lo:], hess[lo:], u.sumG, u.sumH)
		}
		release()
	}
	for i := range units {
		histogram.FinishSparseZeros(units[i].h, units[i].sumG, units[i].sumH)
	}
}

// NodeSplit is one split node of a layer as Classify takes it: the node's
// rows (ascending global ids) and its split, bin(row, Pos) <= Bucket going
// left.
type NodeSplit struct {
	Rows   []int32
	Pos    int32
	Bucket int
}

// Classify evaluates a whole layer's splits into mask, indexed by global
// row: mask[r] = bin(r, Pos) <= Bucket for every row r of every split. The
// pool's workers take one segment at a time and pin it once, however many
// nodes hold rows in it — a segment no split row lives in is not pinned —
// and find each node's rows inside it by binary search. A layer's nodes
// hold disjoint rows, so one mask takes every verdict. It then backs a
// trivially concurrency-safe goLeft for tree.Index.SplitStable — identical
// to histogram.Binned.Bin on the full matrix, so out-of-core splits
// partition rows exactly like in-memory ones.
func (sb *SpilledBinned) Classify(pool *parallel.Pool, splits []NodeSplit, mask []bool) {
	pool.Tasks(len(sb.segs), func(c int) {
		lo, hi := sb.src.ChunkBounds(c)
		var view *histogram.Binned
		for _, s := range splits {
			a, _ := slices.BinarySearch(s.Rows, int32(lo))
			b, _ := slices.BinarySearch(s.Rows, int32(hi))
			if a == b {
				continue
			}
			if view == nil {
				v, release, err := sb.Seg(c)
				if err != nil {
					sb.src.fail(err)
					return
				}
				defer release()
				view = v
			}
			for _, r := range s.Rows[a:b] {
				mask[r] = view.Bin(int(r)-lo, s.Pos) <= s.Bucket
			}
		}
	})
}
