package histogram

import (
	"sync"
	"testing"
)

// TestPoolCapEvicts pins NewPoolCap's eviction contract: Puts beyond the cap
// drop the histogram instead of growing the free list.
func TestPoolCapEvicts(t *testing.T) {
	_, cands, _, _ := buildFixture(t, 80, 10, 4, 27)
	l, err := NewLayout(AllFeatures(10), cands, 10)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPoolCap(l, 2)
	hs := []*Histogram{p.Get(), p.Get(), p.Get(), p.Get()}
	for _, h := range hs {
		p.Put(h)
	}
	if p.Idle() != 2 {
		t.Fatalf("Idle = %d, want cap 2", p.Idle())
	}
	// Unbounded when cap < 1.
	u := NewPoolCap(l, 0)
	for _, h := range hs {
		u.Put(h)
	}
	if u.Idle() != 4 {
		t.Fatalf("unbounded Idle = %d, want 4", u.Idle())
	}
}

// TestPoolNoAliasingUnderConcurrency hammers one small-cap pool from many
// goroutines and asserts the core safety property behind every pooled build:
// a Get never returns a histogram that another goroutine still holds. The
// tiny cap forces constant evictions and fresh allocations, interleaving the
// free list's push/pop under contention. Each holder writes a unique tag into
// its histogram and verifies it before Put — any aliasing shows up as a
// clobbered tag (and as a race under -race).
func TestPoolNoAliasingUnderConcurrency(t *testing.T) {
	_, cands, _, _ := buildFixture(t, 80, 10, 4, 28)
	l, err := NewLayout(AllFeatures(10), cands, 10)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPoolCap(l, 2)

	var mu sync.Mutex
	live := make(map[*Histogram]int)

	const workers = 8
	const rounds = 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				h := p.Get()
				mu.Lock()
				if prev, ok := live[h]; ok {
					mu.Unlock()
					t.Errorf("Get returned a histogram still held by goroutine %d", prev)
					return
				}
				live[h] = w
				mu.Unlock()

				tag := float64(w*rounds + i + 1)
				if h.G[0] != 0 || h.H[0] != 0 {
					t.Errorf("Get returned a non-zeroed histogram")
				}
				h.G[0], h.H[0] = tag, -tag
				// A second touch after other goroutines have had a chance
				// to Get/Put: aliasing would clobber the tag.
				if h.G[0] != tag || h.H[0] != -tag {
					t.Errorf("histogram mutated while held: G[0]=%v H[0]=%v want %v/%v", h.G[0], h.H[0], tag, -tag)
				}

				mu.Lock()
				delete(live, h)
				mu.Unlock()
				p.Put(h)
			}
		}(w)
	}
	wg.Wait()
}

// TestConcurrentBuildsShareCappedPool runs several full binned builds at once
// against a single cap-forced pool and requires every result to stay
// bit-identical to an unpooled reference — partial-histogram buffers recycled
// across concurrent builders must never leak accumulations between builds.
func TestConcurrentBuildsShareCappedPool(t *testing.T) {
	d, cands, grad, hess := buildFixture(t, 600, 40, 9, 29)
	l, err := NewLayout(AllFeatures(40), cands, 40)
	if err != nil {
		t.Fatal(err)
	}
	rows := allRows(600)
	b := NewBinned(d, l, 4)
	ref := New(l)
	BuildBinned(ref, b, rows, grad, hess, BuildOptions{Parallelism: 2, BatchSize: 32})

	// Cap far below the partial traffic of builds×workers so the pool is
	// constantly evicting and re-allocating while builders run.
	pool := NewPoolCap(l, 1)
	const builds = 6
	results := make([]*Histogram, builds)
	var wg sync.WaitGroup
	for i := 0; i < builds; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got := New(l)
			BuildBinned(got, b, rows, grad, hess, BuildOptions{Parallelism: 2, BatchSize: 32, Pool: pool})
			results[i] = got
		}(i)
	}
	wg.Wait()
	for _, got := range results {
		requireBitIdentical(t, "concurrent pooled build", ref, got)
	}
	if pool.Idle() > 1 {
		t.Fatalf("Idle = %d exceeds cap 1", pool.Idle())
	}
}

// requireClean fails unless h is what Pool.Get promises: every bucket zero,
// an empty touched set, no deferred mass, materialised.
func requireClean(t *testing.T, ctx string, h *Histogram) {
	t.Helper()
	for i := range h.G {
		if h.G[i] != 0 || h.H[i] != 0 {
			t.Fatalf("%s: bucket %d = (%v, %v) after Get", ctx, i, h.G[i], h.H[i])
		}
	}
	for w, set := range h.touched {
		if set != 0 {
			t.Fatalf("%s: touched word %d = %#x after Get", ctx, w, set)
		}
	}
	if h.deferred || h.defG != 0 || h.defH != 0 {
		t.Fatalf("%s: deferred=%v mass=(%v, %v) after Get", ctx, h.deferred, h.defG, h.defH)
	}
}

// TestPoolGetIsCleanWhateverWasPut recycles a histogram in every state the
// trainer, the drivers and the servers leave one in. A deferred histogram is
// cleared through its touched set alone, so a bucket outside it surviving
// the round trip would be exactly the bug.
func TestPoolGetIsCleanWhateverWasPut(t *testing.T) {
	d, cands, grad, hess := buildFixture(t, 300, 200, 6, 31)
	l, err := NewLayout(AllFeatures(200), cands, 200)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBinned(d, l, 2)
	rows := allRows(300)
	some, rest := rows[:40], rows[40:]
	ref := New(l)
	BuildSparseBinned(ref, b, some, grad, hess)
	opts := BuildOptions{Parallelism: 2, BatchSize: 16}

	states := []struct {
		name string
		make func(p *Pool) *Histogram
	}{
		{"deferred single batch", func(p *Pool) *Histogram {
			h := p.Get()
			h.Defer()
			BuildSparseBinned(h, b, some, grad, hess)
			return h
		}},
		{"deferred Add target", func(p *Pool) *Histogram {
			h := p.Get()
			h.Defer()
			BuildBinned(h, b, rows, grad, hess, opts)
			return h
		}},
		{"deferred then materialised", func(p *Pool) *Histogram {
			h := p.Get()
			h.Defer()
			BuildSparseBinned(h, b, some, grad, hess)
			h.Materialize()
			return h
		}},
		{"materialised Add target", func(p *Pool) *Histogram {
			h := p.Get()
			BuildBinned(h, b, rows, grad, hess, opts)
			return h
		}},
		{"dense build into a deferred target", func(p *Pool) *Histogram {
			h := p.Get()
			h.Defer()
			BuildDense(h, d, some, grad, hess)
			return h
		}},
		{"SetSub result of deferred operands", func(p *Pool) *Histogram {
			parent, child := New(l), New(l)
			parent.Defer()
			BuildSparseBinned(parent, b, rows, grad, hess)
			child.Defer()
			BuildSparseBinned(child, b, rest, grad, hess)
			h := p.Get()
			h.Defer()
			h.SetSub(parent, child)
			return h
		}},
		{"deferred difference of a deep node", func(p *Pool) *Histogram {
			// Few rows: most positions are outside the parent's touched set,
			// some inside it are the child's too.
			parent, child := p.Get(), p.Get()
			parent.Defer()
			BuildSparseBinned(parent, b, some, grad, hess)
			child.Defer()
			BuildSparseBinned(child, b, some[:10], grad, hess)
			h := p.Get()
			h.SetSub(parent, child)
			if !h.deferred {
				t.Fatal("difference of two deferred histograms is not deferred")
			}
			return h
		}},
		{"deferred difference in place", func(p *Pool) *Histogram {
			parent, child := p.Get(), p.Get()
			parent.Defer()
			BuildSparseBinned(parent, b, some, grad, hess)
			child.Defer()
			BuildSparseBinned(child, b, some[25:], grad, hess)
			parent.SetSub(parent, child)
			return parent
		}},
		{"deferred difference, materialised", func(p *Pool) *Histogram {
			parent, child := p.Get(), p.Get()
			parent.Defer()
			BuildSparseBinned(parent, b, some, grad, hess)
			child.Defer()
			BuildSparseBinned(child, b, some[30:], grad, hess)
			h := p.Get()
			h.SetSub(parent, child)
			h.Materialize()
			return h
		}},
		{"dense difference of a deferred and a materialised operand", func(p *Pool) *Histogram {
			parent, child := p.Get(), p.Get()
			parent.Defer()
			BuildSparseBinned(parent, b, some, grad, hess)
			BuildSparseBinned(child, b, some[:10], grad, hess)
			h := p.Get()
			h.SetSub(parent, child)
			return h
		}},
		{"literal", func(p *Pool) *Histogram {
			src := New(l)
			BuildSparseBinned(src, b, rows, grad, hess)
			return &Histogram{Layout: l, G: src.G, H: src.H}
		}},
	}
	for _, st := range states {
		p := NewPool(l)
		h := st.make(p)
		p.Put(h)
		got := p.Get()
		if got != h {
			t.Fatalf("%s: pool did not recycle the histogram", st.name)
		}
		requireClean(t, st.name, got)
		// And it builds like a fresh one, in either state.
		BuildSparseBinned(got, b, some, grad, hess)
		requireBitIdentical(t, st.name+": rebuilt", ref, got)
		p.Put(got)
		got = p.Get()
		got.Defer()
		BuildSparseBinned(got, b, some, grad, hess)
		got.Materialize()
		requireBitIdentical(t, st.name+": rebuilt deferred", ref, got)
	}
}

// TestPoolDeferredRoundTripsConcurrently cycles deferred and materialised
// builds of different row sets through one small pool from several
// goroutines: whatever state the previous holder left, every build must
// equal its unpooled reference.
func TestPoolDeferredRoundTripsConcurrently(t *testing.T) {
	d, cands, grad, hess := buildFixture(t, 400, 120, 5, 32)
	l, err := NewLayout(AllFeatures(120), cands, 120)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBinned(d, l, 2)
	rows := allRows(400)
	const workers = 6
	refs := make([]*Histogram, workers)
	for w := range refs {
		refs[w] = New(l)
		BuildSparseBinned(refs[w], b, rows[w*50:w*50+20+w*7], grad, hess)
	}
	p := NewPoolCap(l, 2)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				h := p.Get()
				if (w+i)%2 == 0 {
					h.Defer()
				}
				BuildSparseBinned(h, b, rows[w*50:w*50+20+w*7], grad, hess)
				if i%3 == 0 {
					h.Materialize()
				}
				c := h.Clone()
				c.Materialize()
				for j := range c.G {
					if c.G[j] != refs[w].G[j] || c.H[j] != refs[w].H[j] {
						t.Errorf("worker %d round %d: bucket %d differs from the unpooled build", w, i, j)
						return
					}
				}
				p.Put(h)
			}
		}(w)
	}
	wg.Wait()
}
