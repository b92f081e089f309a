package core

import (
	"math"
	"math/bits"

	"dimboost/internal/histogram"
)

// Split describes the best split of one tree node, in the paper's terms a
// (split feature, split value, objective gain) triple plus the child
// gradient sums needed to compute child weights and node statistics without
// rebuilding histograms.
type Split struct {
	// Found is false when no split improves the objective.
	Found bool
	// Feature is the global feature id.
	Feature int32
	// Value is the threshold: x <= Value goes left.
	Value float64
	// Gain is the objective gain (already includes the −γ penalty).
	Gain float64
	// LeftG/LeftH and RightG/RightH are the child gradient sums.
	LeftG, LeftH   float64
	RightG, RightH float64
}

// gainTol is the relative tolerance under which two gains are considered
// tied. Histogram sums are float64 accumulations whose association order
// varies across the parallel builder, worker partitioning, and the dense/
// sparse construction; treating near-equal gains as ties keeps the chosen
// split identical across all of them.
const gainTol = 1e-9

// Better reports whether s should replace t as the best split. Gains equal
// within a relative tolerance tie-break toward the lower feature id and then
// the lower threshold, keeping the choice deterministic across workers and
// aggregation orders.
func (s Split) Better(t Split) bool {
	if !s.Found {
		return false
	}
	if !t.Found {
		return true
	}
	diff := s.Gain - t.Gain
	tol := gainTol * (1 + math.Max(math.Abs(s.Gain), math.Abs(t.Gain)))
	if diff > tol {
		return true
	}
	if diff < -tol {
		return false
	}
	if s.Feature != t.Feature {
		return s.Feature < t.Feature
	}
	return s.Value < t.Value
}

// BuildLeft is the one rule for which child of a split node gets a data pass:
// the one with the smaller hessian sum — the row count, in practice — and the
// left one on a tie. The other child's histogram is the parent's minus it.
// Every trainer and every worker evaluates it on the same split record, so
// they agree without a message.
func (s Split) BuildLeft() bool { return s.LeftH <= s.RightH }

// gainTerm is (ΣG)²/(ΣH+λ), the objective contribution of one child.
func gainTerm(g, h, lambda float64) float64 {
	return g * g / (h + lambda)
}

// LeafWeight returns the optimal leaf weight ω* = −ΣG/(ΣH+λ).
func LeafWeight(g, h, lambda float64) float64 {
	return -g / (h + lambda)
}

// FindSplit scans every sampled feature of the histogram for the maximal-
// gain split (Algorithm 1, lines 10–17). totalG/totalH are the node's
// gradient sums.
func FindSplit(h *histogram.Histogram, totalG, totalH, lambda, gamma, minChildHessian float64) Split {
	return FindSplitRange(h, 0, h.Layout.NumFeatures(), totalG, totalH, lambda, gamma, minChildHessian)
}

// FindSplitRange restricts the scan to sampled positions [pLo, pHi). The
// parameter-server shards use this to run Algorithm 1 on their own feature
// range only (two-phase split finding, §6.3).
//
// On a deferred histogram only the touched positions of the range are
// scanned. An untouched feature holds its whole mass in its zero bucket, so
// each of its prefix splits leaves one child empty; skipping them cannot
// change the answer whenever TouchedScanExact holds.
func FindSplitRange(h *histogram.Histogram, pLo, pHi int, totalG, totalH, lambda, gamma, minChildHessian float64) Split {
	l := h.Layout
	parent := gainTerm(totalG, totalH, lambda)
	best := Split{}
	// rejectBelow is −tol of Better(·, best) for a candidate that gains less
	// than best: both gains are positive, so tol depends on best alone.
	var rejectBelow float64
	for w := pLo >> 6; w<<6 < pHi; w++ {
		set := h.ScanWord(w)
		if first := w << 6; first < pLo {
			set &^= 1<<(pLo-first) - 1
		}
		if rest := pHi - w<<6; rest < 64 {
			set &= 1<<rest - 1
		}
		for ; set != 0; set &= set - 1 {
			p := w<<6 + bits.TrailingZeros64(set)
			lo, hi := l.BucketRange(p)
			nb := hi - lo
			var gl, hl float64
			// Splitting after the last bucket sends everything left; skip it.
			for k := 0; k < nb-1; k++ {
				gl += h.G[lo+k]
				hl += h.H[lo+k]
				gr := totalG - gl
				hr := totalH - hl
				if hl < minChildHessian || hr < minChildHessian {
					continue
				}
				gain := 0.5*(gainTerm(gl, hl, lambda)+gainTerm(gr, hr, lambda)-parent) - gamma
				if gain <= 0 {
					continue
				}
				// Better's own "clearly worse" test, before paying for a
				// Split: with γ = 0 nearly every candidate reaches here.
				if best.Found && gain-best.Gain < rejectBelow {
					continue
				}
				cand := Split{
					Found:   true,
					Feature: l.Features[p],
					Value:   l.Cands[p].SplitValue(k),
					Gain:    gain,
					LeftG:   gl, LeftH: hl,
					RightG: gr, RightH: hr,
				}
				if cand.Better(best) {
					best = cand
					rejectBelow = -gainTol * (1 + gain)
				}
			}
		}
	}
	return best
}

// TouchedScanExact reports whether scanning h's touched positions alone
// finds the split the full scan of the materialised histogram would. An
// untouched feature offers two prefix splits: everything right, which the
// full scan rejects when 0 < minChildHessian, and everything left, whose
// right child keeps only the rounding residue between the node total and
// the builder's own running sum. When it does not hold the caller
// materialises h first; a materialised histogram is scanned in full
// whatever this returns.
func TouchedScanExact(h *histogram.Histogram, totalH, minChildHessian float64) bool {
	_, dh := h.DeferredMass()
	return minChildHessian > 0 && (dh < minChildHessian || totalH-dh < minChildHessian)
}

// BestOf folds a set of per-shard splits into the global best, applying the
// same deterministic tie-break as FindSplitRange. This is the worker-side
// phase of two-phase split finding.
func BestOf(splits ...Split) Split {
	best := Split{}
	for _, s := range splits {
		if s.Better(best) {
			best = s
		}
	}
	return best
}
