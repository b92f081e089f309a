package histogram

import (
	"sync"

	"dimboost/internal/obs"
)

var (
	poolOnce   sync.Once
	poolHits   *obs.Counter
	poolMisses *obs.Counter
)

func poolMetrics() (*obs.Counter, *obs.Counter) {
	poolOnce.Do(func() {
		r := obs.Default()
		poolHits = r.Counter("dimboost_train_hist_pool_hits_total", "Histogram pool Gets satisfied from the free list.")
		poolMisses = r.Counter("dimboost_train_hist_pool_misses_total", "Histogram pool Gets that had to allocate.")
	})
	return poolHits, poolMisses
}

// Pool recycles Histograms of one layout. A tree's histogram traffic — one
// per active node per layer plus one partial per builder goroutine per
// Build call — would otherwise allocate a fresh 2×TotalBuckets float64
// pair every time; the pool caps the working set at the peak number of
// simultaneously live histograms. It is safe for concurrent use.
type Pool struct {
	layout *Layout
	cap    int
	mu     sync.Mutex
	free   []*Histogram
}

// NewPool creates an empty pool for the layout with an unbounded free list.
func NewPool(l *Layout) *Pool { return &Pool{layout: l} }

// NewPoolCap creates a pool that parks at most cap idle histograms; Puts
// beyond the cap drop the histogram for the GC instead (eviction). Values
// < 1 mean unbounded. Memory-budgeted callers use a small cap so idle
// histograms cannot pile up beyond the working set.
func NewPoolCap(l *Layout, cap int) *Pool { return &Pool{layout: l, cap: cap} }

// Get returns a zeroed histogram, recycling a previously Put one when
// available.
func (p *Pool) Get() *Histogram {
	p.mu.Lock()
	var h *Histogram
	if n := len(p.free); n > 0 {
		h = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	hits, misses := poolMetrics()
	if h == nil {
		misses.Inc()
		return New(p.layout)
	}
	hits.Inc()
	h.Reset()
	return h
}

// Put returns a histogram to the pool for reuse. The caller must not touch
// h afterwards. nil histograms and histograms of a different layout are
// ignored, so callers can hand back whatever they hold unconditionally.
func (p *Pool) Put(h *Histogram) {
	if h == nil || h.Layout != p.layout {
		return
	}
	p.mu.Lock()
	if p.cap < 1 || len(p.free) < p.cap {
		p.free = append(p.free, h)
	}
	p.mu.Unlock()
}

// Idle returns the number of histograms currently parked in the pool.
func (p *Pool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}
