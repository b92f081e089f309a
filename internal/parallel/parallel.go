// Package parallel is the shared worker pool of the training loop: chunked
// parallel-for and ordered reduction over a fixed chunk grid, the
// multi-core counterpart of the batch machinery §5.2 applies to histogram
// construction.
//
// The design contract is determinism at any parallelism:
//
//   - The chunk grid over an index range [0, n) depends only on n and the
//     chunk size — never on the worker count. Workers claim chunks off an
//     atomic counter (the same scheme proven in internal/predict), so load
//     balances dynamically, but the set of chunks is invariant.
//   - Reductions merge per-chunk partial results in ascending chunk order.
//     A chunk's partial is a pure function of its index range, and the
//     merge sequence is a pure function of the grid, so the reduced value
//     is bit-identical for every worker count, including one.
//
// Together these make every phase of training routed through the pool —
// gradients, weighted sketches, histogram merges, split finding, row
// partitioning — produce bit-identical models at any Config.Parallelism
// (DESIGN.md invariant 15).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Default chunk sizes shared by the training phases. They are part of the
// determinism contract: results may depend on these constants (they fix the
// reduction grid) but never on the worker count.
const (
	// RowChunk is the per-chunk row count for elementwise passes
	// (gradients, prediction updates) and row partitioning.
	RowChunk = 4096
	// SketchChunk is the per-chunk row count for weighted-sketch
	// construction; larger than RowChunk because each chunk pays a
	// per-feature merge.
	SketchChunk = 8192
	// PosChunk is the per-chunk sampled-feature count for split finding.
	PosChunk = 64
)

// Pool runs chunked loops with a bounded number of workers. The zero value
// is not useful; construct with New. A Pool is stateless between calls and
// safe for concurrent use.
type Pool struct {
	workers int
}

// New returns a pool with the given worker bound; values < 1 mean
// runtime.GOMAXPROCS(0).
func New(workers int) *Pool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	poolMetrics().workers.Set(int64(workers))
	return &Pool{workers: workers}
}

// Workers returns the pool's worker bound.
func (p *Pool) Workers() int { return p.workers }

// serial is the one-worker pool Serial returns.
var serial = &Pool{workers: 1}

// Serial returns a one-worker pool: its loops run inline on the caller's
// goroutine in ascending chunk order. A task of a Tasks fork runs its inner
// loops on it, so they do not fan out again. Unlike New it sets no gauge.
func Serial() *Pool { return serial }

// Grid returns the number of chunks covering [0, n) at the given chunk
// size, and the normalized size. chunk values < 1 are treated as 1. The
// grid is the chunk-source abstraction shared by every consumer of the
// pool: in-memory passes, the predict scorer, and the out-of-core chunk
// caches all address work by the same (n, chunk) → chunk-index mapping, so
// a pass can swap its data source without perturbing the reduction order.
func Grid(n, chunk int) (chunks, size int) {
	if chunk < 1 {
		chunk = 1
	}
	return (n + chunk - 1) / chunk, chunk
}

// ChunkBounds returns chunk c's index range [lo, hi) on a grid of the given
// normalized chunk size over [0, n).
func ChunkBounds(c, size, n int) (lo, hi int) {
	lo = c * size
	hi = lo + size
	if hi > n {
		hi = n
	}
	return
}

// grid and bounds are the internal spellings.
func grid(n, chunk int) (chunks, size int) { return Grid(n, chunk) }
func bounds(c, size, n int) (lo, hi int)   { return ChunkBounds(c, size, n) }

// ForChunks calls fn(c, lo, hi) for every chunk of the fixed grid over
// [0, n). Chunks run concurrently on up to p.Workers() goroutines; with one
// worker (or one chunk) everything runs inline on the caller's goroutine in
// ascending chunk order. fn must not assume any chunk ordering when workers
// exceed one.
func (p *Pool) ForChunks(n, chunk int, fn func(c, lo, hi int)) {
	chunks, size := grid(n, chunk)
	if chunks == 0 {
		return
	}
	m := poolMetrics()
	m.tasks.Add(int64(chunks))
	workers := p.workers
	if workers > chunks {
		workers = chunks
	}
	if workers == 1 {
		for c := 0; c < chunks; c++ {
			lo, hi := bounds(c, size, n)
			fn(c, lo, hi)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				// A chunk claimed off its static round-robin owner means
				// the dynamic scheme actually rebalanced work.
				if c%workers != w {
					m.steals.Inc()
				}
				lo, hi := bounds(c, size, n)
				fn(c, lo, hi)
			}
		}(w)
	}
	wg.Wait()
}

// For is ForChunks for elementwise work that does not need the chunk index.
func (p *Pool) For(n, chunk int, fn func(lo, hi int)) {
	p.ForChunks(n, chunk, func(_, lo, hi int) { fn(lo, hi) })
}

// Tasks runs fn(task) for every task in [0, k): a chunk grid of size one,
// for coarse-grained task lists such as the out-of-core chunk walks and the
// trainer's node-parallel layers (one task per pair of nodes). Tasks are
// claimed in ascending order.
func (p *Pool) Tasks(k int, fn func(task int)) {
	p.ForChunks(k, 1, func(c, _, _ int) { fn(c) })
}

// ReduceOrdered runs produce over every chunk of the fixed grid and calls
// merge once per chunk in ascending chunk order. produce calls run
// concurrently; merge calls are serialized and ordered, and may run
// concurrently with later produce calls (eager prefix merging, so partials
// can be recycled as soon as they are folded in). A chunk more than
// workers past the merge frontier waits for it before producing, so at
// most workers+1 partials are ever live, however many chunks the grid has
// and however slow the frontier chunk is. The merged result is therefore a
// pure function of (n, chunk, produce, merge) — the worker count cannot
// influence it.
func ReduceOrdered[T any](p *Pool, n, chunk int, produce func(c, lo, hi int) T, merge func(c int, part T)) {
	chunks, size := grid(n, chunk)
	if chunks == 0 {
		return
	}
	m := poolMetrics()
	m.tasks.Add(int64(chunks))
	workers := p.workers
	if workers > chunks {
		workers = chunks
	}
	if workers == 1 {
		for c := 0; c < chunks; c++ {
			lo, hi := bounds(c, size, n)
			merge(c, produce(c, lo, hi))
		}
		return
	}
	var (
		next     atomic.Int64
		mu       sync.Mutex
		advanced = sync.NewCond(&mu) // signalled when frontier moves
		ready    = make([]T, chunks)
		done     = make([]bool, chunks)
		frontier int
		wg       sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				if c%workers != w {
					m.steals.Inc()
				}
				// Chunks are claimed in ascending order, so the frontier
				// chunk is claimed, and its producer never waits here.
				mu.Lock()
				for c > frontier+workers {
					advanced.Wait()
				}
				mu.Unlock()
				lo, hi := bounds(c, size, n)
				part := produce(c, lo, hi)
				mu.Lock()
				ready[c], done[c] = part, true
				// Drain the ready prefix: whoever finishes the chunk at the
				// frontier merges everything contiguous behind it, so after
				// the last chunk completes the fold is already finished.
				from := frontier
				for frontier < chunks && done[frontier] {
					merge(frontier, ready[frontier])
					var zero T
					ready[frontier] = zero
					frontier++
				}
				if frontier > from {
					advanced.Broadcast()
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
}
