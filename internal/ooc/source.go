package ooc

import (
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"dimboost/internal/dataset"
	"dimboost/internal/parallel"
)

// Options configure an out-of-core Source.
type Options struct {
	// Budget bounds the bytes the source cache, the binned spill cache, and
	// the resident label column may hold together. 0 means unlimited.
	Budget Budget
	// ChunkRows is the row count per disk chunk. Values < 1 default to
	// parallel.RowChunk. The chunk size is a storage knob only: training
	// results are bit-identical for every value, because the accumulation
	// grids (batch size, sketch chunk) never depend on it.
	ChunkRows int
	// Parallelism is the number of workers that may pin chunks concurrently
	// — the same value as core.Config.Parallelism. Values < 1 mean
	// runtime.GOMAXPROCS(0). It sets the deadlock-freedom floor
	// (MinBudget), so it must not understate the true worker count.
	Parallelism int
	// SpillDir is where binned spill files are created; "" uses
	// the OS temp directory.
	SpillDir string
}

func (o Options) normalized() Options {
	if o.ChunkRows < 1 {
		o.ChunkRows = parallel.RowChunk
	}
	if o.Parallelism < 1 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.SpillDir == "" {
		o.SpillDir = os.TempDir()
	}
	return o
}

// Source is a disk-resident training dataset: a chunked binary file served
// through a bounded pinned cache, plus the one per-row input kept resident —
// the label column (4 bytes/row). It is safe for concurrent use by up to
// Options.Parallelism workers, each pinning at most one chunk at a time.
//
// I/O failures after Open are sticky: the failing pass records the error
// (Err) and the trainer aborts at its next phase boundary instead of
// training on silently wrong data.
type Source struct {
	cf     *dataset.ChunkedFile
	opt    Options
	labels []float32
	tr     *Tracker

	minBudget  Budget
	srcCap     int64 // capacity of the source chunk cache
	spillCap   int64 // capacity handed to each SpilledBinned's segment cache
	fixedBytes int64 // labels + chunk index, reserved for the Source's lifetime

	cache  *cache[*dataset.Dataset]
	dsPool sync.Pool // recycled *dataset.Dataset chunk buffers

	err atomic.Value // error
}

// Open opens a binary dataset file for out-of-core training under the given
// options. A non-zero budget below MinBudget fails with *BudgetError.
func Open(path string, opt Options) (*Source, error) {
	opt = opt.normalized()
	cf, err := dataset.OpenChunked(path, opt.ChunkRows)
	if err != nil {
		return nil, err
	}
	labels, err := cf.ReadLabels()
	if err != nil {
		cf.Close()
		return nil, err
	}
	s := &Source{cf: cf, opt: opt, labels: labels, tr: &Tracker{}}

	// Budget floor and split. The floor admits one pinned chunk per worker
	// plus one in flight, for both caches, on top of the fixed resident
	// state; see DESIGN.md "Out-of-core training".
	p := int64(opt.Parallelism)
	maxSrc := cf.MaxChunkBytes()
	maxSeg := s.maxSegBound()
	s.fixedBytes = int64(len(labels))*4 + int64(cf.NumChunks()+1)*8
	srcFloor := (p + 1) * maxSrc
	spillFloor := (p + 1) * maxSeg
	s.minBudget = Budget(s.fixedBytes + srcFloor + spillFloor)
	if opt.Budget > 0 && opt.Budget < s.minBudget {
		cf.Close()
		return nil, &BudgetError{Budget: opt.Budget, Min: s.minBudget, Parallelism: opt.Parallelism}
	}
	if opt.Budget == 0 {
		const unbounded = int64(1) << 62
		s.srcCap, s.spillCap = unbounded, unbounded
	} else {
		// Split the surplus above the floors proportionally, so both caches
		// scale with the budget.
		surplus := int64(opt.Budget) - int64(s.minBudget)
		extraSrc := surplus * srcFloor / (srcFloor + spillFloor)
		s.srcCap = srcFloor + extraSrc
		s.spillCap = spillFloor + (surplus - extraSrc)
	}
	s.tr.Reserve(s.fixedBytes)
	oocMetrics().budget.Set(int64(opt.Budget))

	_, _, _, readBytes := cacheMetrics("source")
	s.cache = newCache("source", s.srcCap, s.tr,
		func(c int) int64 { return cf.ChunkBytes(c) },
		func(c int) (*dataset.Dataset, error) {
			d, _ := s.dsPool.Get().(*dataset.Dataset)
			if d == nil {
				d = new(dataset.Dataset)
			}
			if err := cf.ReadChunk(c, d); err != nil {
				s.dsPool.Put(d)
				return nil, err
			}
			readBytes.Add(cf.ChunkBytes(c))
			return d, nil
		},
		func(d *dataset.Dataset) { s.dsPool.Put(d) },
	)
	return s, nil
}

// maxSegBound returns the worst-case resident size of one binned spill
// segment: every source nonzero kept, wide (uint16) bins, page-aligned.
func (s *Source) maxSegBound() int64 {
	var m int64
	for c := 0; c < s.cf.NumChunks(); c++ {
		lo, hi := s.cf.ChunkBounds(c)
		b := segBytes(hi-lo, s.cf.ChunkNNZ(c), true)
		if b > m {
			m = b
		}
	}
	return alignPage(m)
}

// Close releases the source's caches and file handle.
func (s *Source) Close() error {
	s.cache.drop()
	s.tr.Release(s.fixedBytes)
	return s.cf.Close()
}

// NumRows returns the dataset's row count.
func (s *Source) NumRows() int { return s.cf.NumRows() }

// NumFeatures returns the dataset's feature dimensionality.
func (s *Source) NumFeatures() int { return s.cf.NumFeatures() }

// NNZ returns the dataset's stored-entry count.
func (s *Source) NNZ() int64 { return s.cf.NNZ() }

// Labels returns the resident label column, indexed by global row.
func (s *Source) Labels() []float32 { return s.labels }

// Path returns the backing file path.
func (s *Source) Path() string { return s.cf.Path() }

// ChunkRows returns the rows-per-chunk granularity.
func (s *Source) ChunkRows() int { return s.cf.ChunkRows() }

// NumChunks returns the number of chunks in the fixed grid.
func (s *Source) NumChunks() int { return s.cf.NumChunks() }

// ChunkBounds returns chunk c's global row range [lo, hi).
func (s *Source) ChunkBounds(c int) (lo, hi int) { return s.cf.ChunkBounds(c) }

// Budget returns the configured budget (0 = unlimited).
func (s *Source) Budget() Budget { return s.opt.Budget }

// MinBudget returns the smallest budget that admits this dataset at the
// configured parallelism — the deadlock-freedom floor callers are told to
// retry with when Open rejects their budget.
func (s *Source) MinBudget() Budget { return s.minBudget }

// Tracker returns the source's resident-bytes accounting.
func (s *Source) Tracker() *Tracker { return s.tr }

// Chunk pins chunk c and returns its rows as a self-contained Dataset whose
// local row i is global row ChunkBounds(c).lo + i. The release function must
// be called exactly once; the Dataset must not be used after release.
func (s *Source) Chunk(c int) (*dataset.Dataset, func(), error) {
	return s.cache.pin(c)
}

// fail records a sticky I/O error; the first error wins.
func (s *Source) fail(err error) {
	if err != nil {
		s.err.CompareAndSwap(nil, err)
	}
}

// Err returns the first I/O error recorded by any streaming pass, or nil.
// The trainer checks it at phase boundaries.
func (s *Source) Err() error {
	if e := s.err.Load(); e != nil {
		return e.(error)
	}
	return nil
}

// ForEachChunk streams every chunk through the pool, calling fn with the
// pinned chunk and its global row range. Chunks run concurrently; fn must
// not retain d past its return. Failed chunk loads record a sticky error
// (Err) and are skipped.
func (s *Source) ForEachChunk(pool *parallel.Pool, fn func(c, lo, hi int, d *dataset.Dataset)) error {
	pool.Tasks(s.NumChunks(), func(c int) {
		d, release, err := s.Chunk(c)
		if err != nil {
			s.fail(err)
			return
		}
		lo, hi := s.ChunkBounds(c)
		fn(c, lo, hi, d)
		release()
	})
	return s.Err()
}

// ForRowRange walks global rows [lo, hi) chunk run by chunk run, in
// ascending order, pinning one chunk at a time: fn sees the pinned chunk,
// its base row, and the global sub-range [rlo, rhi) it covers (local row =
// global - base). It serves passes whose grid is not the storage grid — the
// weighted sketch's parallel.SketchChunk rows, and the unweighted sketch's
// per-worker walk over every row (it is a sketch.Rows). Safe for concurrent
// use from pool workers; each call pins at most one chunk at a time. Load
// failures record a sticky error and stop the walk.
func (s *Source) ForRowRange(lo, hi int, fn func(d *dataset.Dataset, base, rlo, rhi int)) {
	for at := lo; at < hi; {
		c := at / s.cf.ChunkRows()
		clo, chi := s.ChunkBounds(c)
		end := min(hi, chi)
		d, release, err := s.Chunk(c)
		if err != nil {
			s.fail(err)
			return
		}
		fn(d, clo, at, end)
		release()
		at = end
	}
}
