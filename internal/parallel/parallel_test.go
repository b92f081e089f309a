package parallel

import (
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func TestForChunksCoversRangeOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 5, 100, 1000} {
			p := New(workers)
			hits := make([]atomic.Int32, n)
			p.ForChunks(n, 7, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestForChunksGridIndependentOfWorkers(t *testing.T) {
	// The (chunk, lo, hi) set must depend only on (n, chunk size).
	collect := func(workers int) map[[3]int]bool {
		p := New(workers)
		seen := make(chan [3]int, 64)
		p.ForChunks(100, 16, func(c, lo, hi int) { seen <- [3]int{c, lo, hi} })
		close(seen)
		out := map[[3]int]bool{}
		for v := range seen {
			out[v] = true
		}
		return out
	}
	ref := collect(1)
	for _, w := range []int{2, 3, 8} {
		got := collect(w)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d chunks, want %d", w, len(got), len(ref))
		}
		for v := range ref {
			if !got[v] {
				t.Fatalf("workers=%d: missing chunk %v", w, v)
			}
		}
	}
}

// TestReduceOrderedIsOrderDeterministic exploits float non-associativity:
// folding per-chunk sums in ascending order must give the same bits at
// every worker count, which only holds if the merge order is fixed.
func TestReduceOrderedIsOrderDeterministic(t *testing.T) {
	n := 10_000
	vals := make([]float64, n)
	x := 0.5
	for i := range vals {
		// Spread magnitudes over ~30 decades so association order matters.
		x = 4 * x * (1 - x)
		vals[i] = math.Ldexp(1+x, (i%97)-48)
	}
	sum := func(workers int) uint64 {
		p := New(workers)
		total := 0.0
		ReduceOrdered(p, n, 64,
			func(_, lo, hi int) float64 {
				s := 0.0
				for i := lo; i < hi; i++ {
					s += vals[i]
				}
				return s
			},
			func(_ int, part float64) { total += part })
		return math.Float64bits(total)
	}
	ref := sum(1)
	for _, w := range []int{2, 3, 4, 8} {
		if got := sum(w); got != ref {
			t.Fatalf("workers=%d: sum bits %x != %x at workers=1", w, got, ref)
		}
	}
}

func TestReduceOrderedMergesAscending(t *testing.T) {
	for _, workers := range []int{1, 2, 5} {
		p := New(workers)
		var order []int
		ReduceOrdered(p, 50, 4,
			func(c, _, _ int) int { return c },
			func(c int, part int) {
				if part != c {
					t.Fatalf("chunk %d merged with partial %d", c, part)
				}
				order = append(order, c)
			})
		for i, c := range order {
			if c != i {
				t.Fatalf("workers=%d: merge order %v not ascending", workers, order)
			}
		}
		if len(order) != 13 {
			t.Fatalf("workers=%d: %d merges, want 13", workers, len(order))
		}
	}
}

// TestReduceOrderedBoundsLivePartials stalls the first chunk while the other
// workers race ahead: a partial is live from its produce to its merge, and
// at most workers+1 may be live at once, not one per chunk.
func TestReduceOrderedBoundsLivePartials(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		var live, peak atomic.Int64
		ReduceOrdered(New(workers), 200, 1,
			func(c, _, _ int) int {
				n := live.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				if c == 0 {
					time.Sleep(20 * time.Millisecond)
				}
				return c
			},
			func(int, int) { live.Add(-1) })
		if got := peak.Load(); got > int64(workers+1) {
			t.Fatalf("workers=%d: %d partials live at once, want at most %d", workers, got, workers+1)
		}
	}
}

func TestTasks(t *testing.T) {
	p := New(4)
	hits := make([]atomic.Int32, 37)
	p.Tasks(len(hits), func(task int) { hits[task].Add(1) })
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("task %d ran %d times", i, hits[i].Load())
		}
	}
}

func TestNewResolvesWorkerBound(t *testing.T) {
	if got := New(3).Workers(); got != 3 {
		t.Fatalf("Workers() = %d, want 3", got)
	}
	if got := New(0).Workers(); got < 1 {
		t.Fatalf("New(0).Workers() = %d, want >= 1", got)
	}
	if got := New(-5).Workers(); got < 1 {
		t.Fatalf("New(-5).Workers() = %d, want >= 1", got)
	}
}

func TestPoolMetricsCountTasks(t *testing.T) {
	m := poolMetrics()
	before := m.tasks.Value()
	New(2).ForChunks(100, 10, func(_, _, _ int) {})
	if got := m.tasks.Value() - before; got != 10 {
		t.Fatalf("tasks counter advanced by %d, want 10", got)
	}
}
