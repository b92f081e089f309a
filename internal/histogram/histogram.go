// Package histogram implements gradient histograms — the central data
// structure of GBDT training (§2.2) — and the paper's two computation
// optimizations: sparsity-aware construction (Algorithm 2, §5.1) and
// parallel batch construction over a node-to-instance index (§5.2).
//
// A histogram summarizes, for every (sampled) feature and every split-
// candidate bucket, the sums of first-order (G) and second-order (H)
// gradients of the instances whose feature value falls in the bucket.
package histogram

import (
	"fmt"
	"math/bits"

	"dimboost/internal/sketch"
)

// Layout maps a sampled feature set to a flat bucket array. It is immutable
// after construction and shared by every histogram of a tree.
type Layout struct {
	// Features lists the sampled global feature ids in ascending order.
	Features []int32
	// Cands holds the split candidates of each sampled feature, parallel to
	// Features.
	Cands []sketch.Candidates
	// Offsets[p] is the index of the first bucket of sampled feature p in
	// the flat arrays; Offsets[len(Features)] == TotalBuckets.
	Offsets []int32
	// TotalBuckets is the flat array length.
	TotalBuckets int

	// posOf maps a global feature id to its position in Features, or -1.
	posOf []int32
	// zeroIdx[p] is the flat bucket index of sampled position p's zero
	// bucket, precomputed so the binned build paths need no Candidates
	// lookups in their inner loops.
	zeroIdx []int32
}

// NewLayout builds a layout for the given sampled features. cands must be
// indexed by global feature id and numFeatures is the global dimensionality.
// features must be sorted ascending and duplicate-free.
func NewLayout(features []int32, cands []sketch.Candidates, numFeatures int) (*Layout, error) {
	l := &Layout{
		Features: features,
		Cands:    make([]sketch.Candidates, len(features)),
		Offsets:  make([]int32, len(features)+1),
		posOf:    make([]int32, numFeatures),
		zeroIdx:  make([]int32, len(features)),
	}
	for i := range l.posOf {
		l.posOf[i] = -1
	}
	off := int32(0)
	prev := int32(-1)
	for p, f := range features {
		if f <= prev || int(f) >= numFeatures {
			return nil, fmt.Errorf("histogram: bad sampled feature %d at position %d", f, p)
		}
		prev = f
		l.Cands[p] = cands[f]
		l.Offsets[p] = off
		l.posOf[f] = int32(p)
		l.zeroIdx[p] = off + int32(cands[f].ZeroBucket)
		off += int32(cands[f].NumBuckets())
	}
	l.Offsets[len(features)] = off
	l.TotalBuckets = int(off)
	return l, nil
}

// AllFeatures returns the identity feature list [0, numFeatures), the σ=1
// case.
func AllFeatures(numFeatures int) []int32 {
	out := make([]int32, numFeatures)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// Splittable returns the features of the ascending list features whose
// candidates can split (sketch.Candidates.CanSplit), in a new slice of their
// length. cands is indexed by global feature id. A feature with the zero cut
// alone is one no row has a nonzero of: its one bucket only ever holds its
// node's whole mass and is never split on, so a layout without it finds
// every split a layout with it does. DimBoost's trainer, its workers and its
// servers all lay their histograms out over what this keeps, so the
// positions they number agree.
func Splittable(features []int32, cands []sketch.Candidates) []int32 {
	n := 0
	for _, f := range features {
		if cands[f].CanSplit() {
			n++
		}
	}
	out := make([]int32, 0, n)
	for _, f := range features {
		if cands[f].CanSplit() {
			out = append(out, f)
		}
	}
	return out
}

// NumFeatures returns the number of sampled features.
func (l *Layout) NumFeatures() int { return len(l.Features) }

// Pos returns the sampled position of global feature f, or -1 when f is not
// sampled.
func (l *Layout) Pos(f int32) int32 { return l.posOf[f] }

// BucketRange returns the flat [lo, hi) bucket range of sampled position p.
func (l *Layout) BucketRange(p int) (lo, hi int) {
	return int(l.Offsets[p]), int(l.Offsets[p+1])
}

// SizeBytes returns the float32 wire size of one histogram under this
// layout: 2 statistics × TotalBuckets × 4 bytes — the paper's h (§3).
func (l *Layout) SizeBytes() int { return 2 * l.TotalBuckets * 4 }

// Histogram is the G/H bucket arrays for one tree node under a Layout.
//
// A histogram is in one of two states. Materialised (the zero state: what
// New, Reset, Pool.Get and a Histogram{Layout, G, H} literal give) means the
// flat G/H arrays are complete and every feature's buckets sum to the node
// totals. Deferred (entered with Defer, SetDeferred or as the difference of
// two deferred histograms, left with Materialize or Reset) is the form a node
// histogram keeps between its accumulation and its split scan — in the
// trainer, on the parameter server's push wire and in a server's shard:
// only the positions in the touched set hold anything, and every other
// position is owed the deferred zero mass — the (ΣG, ΣH) Algorithm 2 would
// have added to its zero bucket. Its exported arrays are complete at the
// touched positions only. Reset, the zero-bucket finish, Add, SetSub and the
// split scan of a deferred histogram walk the touched set alone, so a deep
// node costs what its rows touched, not the layout.
type Histogram struct {
	Layout *Layout
	G, H   []float64

	// touched is a bitset over sampled positions: while the histogram is
	// deferred the sparse binned builders set a position's bit with every
	// nonzero they accumulate. Nil until the first Defer on a
	// literal-constructed histogram.
	touched []uint64
	// deferred marks the deferred state; defG/defH are the zero mass owed
	// to every untouched position.
	deferred   bool
	defG, defH float64
}

// New returns a zeroed histogram for the layout.
func New(l *Layout) *Histogram {
	return &Histogram{
		Layout:  l,
		G:       make([]float64, l.TotalBuckets),
		H:       make([]float64, l.TotalBuckets),
		touched: make([]uint64, touchedWords(l)),
	}
}

// touchedWords returns the length of a layout's touched bitset.
func touchedWords(l *Layout) int { return (len(l.Features) + 63) / 64 }

// Defer switches a zeroed histogram (fresh from New, Reset or Pool.Get) to
// the deferred state. The sparse binned builders then leave it deferred —
// one build per Defer, since a second build could not replay the dense
// float order — and every other builder materialises it first, so a caller
// may Defer whatever build follows.
func (h *Histogram) Defer() {
	if h.touched == nil {
		h.touched = make([]uint64, touchedWords(h.Layout))
	}
	h.deferred = true
}

// Materialize completes a deferred histogram in place: every untouched
// position's zero bucket receives the deferred mass. It is a no-op on a
// materialised histogram.
func (h *Histogram) Materialize() {
	if !h.deferred {
		return
	}
	h.deferred = false
	// Adding a zero mass is the identity: buckets start at +0 and are only
	// ever added to or subtracted from, so none holds −0.
	if h.defG != 0 || h.defH != 0 {
		zeros := h.Layout.zeroIdx
		for w, set := range h.touched {
			for b := ^set & wordMask(w, len(zeros)); b != 0; b &= b - 1 {
				z := zeros[w<<6+bits.TrailingZeros64(b)]
				h.G[z] += h.defG
				h.H[z] += h.defH
			}
		}
	}
	h.defG, h.defH = 0, 0
}

// Deferred reports whether h is in the deferred state.
func (h *Histogram) Deferred() bool { return h.deferred }

// SetDeferred puts a zeroed histogram (fresh from New, Reset or Pool.Get) in
// the deferred state with the given touched set and deferred mass — the
// receiving end of a deferred histogram built elsewhere, whose touched
// positions' buckets the caller then fills. touched has the layout's bitset
// length (one bit per sampled position, 64 to a word) and no bit at or past
// the last sampled position.
func (h *Histogram) SetDeferred(touched []uint64, g, hs float64) {
	h.Defer()
	copy(h.touched, touched)
	h.defG, h.defH = g, hs
}

// wordMask returns the bits of bitset word w that are positions below n.
func wordMask(w, n int) uint64 {
	if rest := n - w<<6; rest < 64 {
		return 1<<rest - 1
	}
	return ^uint64(0)
}

// ScanWord returns word w of the set of sampled positions a split scan has
// to visit — bit i stands for position 64w+i: the touched set of a deferred
// histogram, every position of a materialised one.
func (h *Histogram) ScanWord(w int) uint64 {
	if h.deferred {
		return h.touched[w]
	}
	return wordMask(w, len(h.Layout.Features))
}

// DeferredMass returns the (ΣG, ΣH) a deferred histogram owes each untouched
// position's zero bucket; zero for a materialised one.
func (h *Histogram) DeferredMass() (g, hs float64) { return h.defG, h.defH }

// Reset zeroes the histogram in place and leaves it materialised with an
// empty touched set. A deferred histogram clears only what was touched.
func (h *Histogram) Reset() {
	if h.deferred {
		offs := h.Layout.Offsets
		for w, set := range h.touched {
			for b := set; b != 0; b &= b - 1 {
				p := w<<6 + bits.TrailingZeros64(b)
				clear(h.G[offs[p]:offs[p+1]])
				clear(h.H[offs[p]:offs[p+1]])
			}
		}
		h.deferred, h.defG, h.defH = false, 0, 0
	} else {
		clear(h.G)
		clear(h.H)
	}
	clear(h.touched)
}

// Add accumulates other into h. Both must share a layout shape. Unless both
// are deferred this is the dense bucket-by-bucket merge of the two
// materialised forms (other is materialised in place: cheaper than walking
// its bitset once the target needs every zero bucket anyway). Two deferred
// histograms merge over the union of their touched sets with the float
// operations that dense merge would have performed on each bucket: a
// position only other touched first receives h's deferred mass, a position
// only h touched receives other's, and for the rest the two masses add.
func (h *Histogram) Add(other *Histogram) {
	if !h.deferred || !other.deferred {
		h.Materialize()
		other.Materialize()
		for i, g := range other.G {
			h.G[i] += g
		}
		for i, v := range other.H {
			h.H[i] += v
		}
		return
	}
	l := h.Layout
	for w, theirs := range other.touched {
		ours := h.touched[w]
		for b := theirs &^ ours; b != 0; b &= b - 1 {
			z := l.zeroIdx[w<<6+bits.TrailingZeros64(b)]
			h.G[z] += h.defG
			h.H[z] += h.defH
		}
		for b := ours &^ theirs; b != 0; b &= b - 1 {
			z := l.zeroIdx[w<<6+bits.TrailingZeros64(b)]
			h.G[z] += other.defG
			h.H[z] += other.defH
		}
		for b := theirs; b != 0; b &= b - 1 {
			p := w<<6 + bits.TrailingZeros64(b)
			lo, hi := l.Offsets[p], l.Offsets[p+1]
			hg, og := h.G[lo:hi], other.G[lo:hi]
			for i, g := range og {
				hg[i] += g
			}
			hh, oh := h.H[lo:hi], other.H[lo:hi]
			for i, v := range oh {
				hh[i] += v
			}
		}
		h.touched[w] = ours | theirs
	}
	h.defG += other.defG
	h.defH += other.defH
}

// SetSub fills h with parent − child, the histogram-subtraction trick: a split
// node's children partition its rows, so one child's histogram is the
// parent's minus its sibling's and only one child per split needs a data
// pass. h is zeroed, as for Defer, or is parent itself: subtracting in place
// is how the trainer turns a split node's histogram into its derived child's.
//
// Two deferred operands subtract in touched space when the child touched
// nothing the parent did not (its rows are a subset of the parent's): over the
// parent's touched set, a position the child touched too is subtracted bucket
// by bucket, and any other keeps the parent's buckets — copied, unless in
// place — less the child's deferred mass on its zero bucket. h ends deferred,
// with the parent's touched set and the difference of the two masses, and
// materialising it gives the dense subtraction's buckets bit for bit
// (x − (+0) = x). In every other state the operands are subtracted bucket by
// bucket as if materialised, and h ends materialised. Only h changes: a
// deferred operand other than h is read as its materialised form, not made
// it, so an operand another reader scans keeps its state.
func (h *Histogram) SetSub(parent, child *Histogram) {
	if !parent.deferred || !child.deferred || !subset(child.touched, parent.touched) {
		if h == parent {
			parent.Materialize()
		}
		for i := range h.G {
			h.G[i] = parent.G[i] - child.G[i]
		}
		for i := range h.H {
			h.H[i] = parent.H[i] - child.H[i]
		}
		h.subOwed(parent, child)
		h.deferred, h.defG, h.defH = false, 0, 0
		return
	}
	h.Defer()
	l := h.Layout
	for w, ours := range parent.touched {
		theirs := child.touched[w]
		for b := ours &^ theirs; b != 0; b &= b - 1 {
			p := w<<6 + bits.TrailingZeros64(b)
			if h != parent {
				lo, hi := l.Offsets[p], l.Offsets[p+1]
				copy(h.G[lo:hi], parent.G[lo:hi])
				copy(h.H[lo:hi], parent.H[lo:hi])
			}
			z := l.zeroIdx[p]
			h.G[z] = parent.G[z] - child.defG
			h.H[z] = parent.H[z] - child.defH
		}
		for b := theirs; b != 0; b &= b - 1 {
			p := w<<6 + bits.TrailingZeros64(b)
			lo, hi := l.Offsets[p], l.Offsets[p+1]
			hg, pg, cg := h.G[lo:hi], parent.G[lo:hi], child.G[lo:hi]
			for i, g := range pg {
				hg[i] = g - cg[i]
			}
			hh, ph, ch := h.H[lo:hi], parent.H[lo:hi], child.H[lo:hi]
			for i, v := range ph {
				hh[i] = v - ch[i]
			}
		}
		h.touched[w] = ours
	}
	h.defG, h.defH = parent.defG-child.defG, parent.defH-child.defH
}

// subOwed finishes the bucket-by-bucket h = parent − child at the zero
// buckets a deferred operand owes its mass to, applying Materialize's
// operation (+0 + mass) to a copy of the bucket instead of to the operand.
// An untouched bucket holds +0, so where only the child owes mass the
// parent's bucket is still intact even when h is the parent (x − (+0) = x).
func (h *Histogram) subOwed(parent, child *Histogram) {
	owes := func(o *Histogram, w int) uint64 {
		if !o.deferred || (o.defG == 0 && o.defH == 0) {
			return 0
		}
		return ^o.touched[w] & wordMask(w, len(h.Layout.Features))
	}
	zeros := h.Layout.zeroIdx
	for w := range touchedWords(h.Layout) {
		pOwes, cOwes := owes(parent, w), owes(child, w)
		for b := pOwes | cOwes; b != 0; b &= b - 1 {
			bit := b & -b
			z := zeros[w<<6+bits.TrailingZeros64(b)]
			pg, ph, cg, ch := parent.G[z], parent.H[z], child.G[z], child.H[z]
			if pOwes&bit != 0 {
				pg, ph = pg+parent.defG, ph+parent.defH
			}
			if cOwes&bit != 0 {
				cg, ch = cg+child.defG, ch+child.defH
			}
			h.G[z], h.H[z] = pg-cg, ph-ch
		}
	}
}

// Copy makes h a copy of src, state included. Both must share a layout
// shape; unlike Clone it allocates nothing, so the copy can be pooled
// scratch.
func (h *Histogram) Copy(src *Histogram) {
	copy(h.G, src.G)
	copy(h.H, src.H)
	if h.touched == nil {
		h.touched = make([]uint64, touchedWords(h.Layout))
	}
	clear(h.touched)
	copy(h.touched, src.touched)
	h.deferred, h.defG, h.defH = src.deferred, src.defG, src.defH
}

// subset reports whether every bit of a is set in b.
func subset(a, b []uint64) bool {
	for w, set := range a {
		if set&^b[w] != 0 {
			return false
		}
	}
	return true
}

// Clone returns a deep copy in the same state.
func (h *Histogram) Clone() *Histogram {
	c := New(h.Layout)
	c.Copy(h)
	return c
}

// FeatureTotals sums the G and H buckets of sampled position p. By
// construction (Algorithm 2 and the dense build alike) every feature's
// buckets sum to the node totals, which is what lets a parameter-server
// shard recover node statistics from its own feature range alone (§6.3).
// An untouched position of a deferred histogram yields the deferred mass,
// exactly the sum its materialised buckets — zeros and 0 + mass — would give.
func (h *Histogram) FeatureTotals(p int) (g, hs float64) {
	if h.deferred && h.touched[p>>6]&(1<<(p&63)) == 0 {
		return 0 + h.defG, 0 + h.defH
	}
	lo, hi := h.Layout.BucketRange(p)
	for i := lo; i < hi; i++ {
		g += h.G[i]
		hs += h.H[i]
	}
	return
}

// Slice returns the flat bucket range [lo, hi) of the G and H arrays,
// aliased, for shard extraction.
func (h *Histogram) Slice(lo, hi int) (g, hs []float64) {
	return h.G[lo:hi], h.H[lo:hi]
}
