// Package core implements the GBDT training algorithm itself: the greedy
// split finding of Algorithm 1, layer-wise tree growth (§4.4), and a
// single-process multi-threaded trainer that serves both as the reference
// implementation and as the per-worker engine of the distributed runtime.
package core

import (
	"fmt"
	"math"
	"runtime"

	"dimboost/internal/loss"
	"dimboost/internal/ooc"
)

// Config holds every GBDT hyper-parameter. Field names follow the paper's
// protocol section (§7.1): T trees, d maximal depth, K split candidates,
// σ feature sampling ratio, η learning rate, b batch size, q threads,
// r compressed bits.
type Config struct {
	// NumTrees is T, the number of boosting rounds.
	NumTrees int
	// MaxDepth is d, the maximal tree depth (1 = a single leaf).
	MaxDepth int
	// NumCandidates is K, the number of split candidates per feature.
	NumCandidates int
	// LearningRate is the shrinkage η applied to leaf weights.
	LearningRate float64
	// Lambda is the L2 leaf-weight regularizer λ.
	Lambda float64
	// Gamma is the per-leaf complexity penalty γ.
	Gamma float64
	// MinChildHessian rejects splits whose child hessian sums fall below
	// this threshold (prevents empty children).
	MinChildHessian float64
	// FeatureSampleRatio is σ, the fraction of features sampled per tree.
	FeatureSampleRatio float64
	// InstanceSampleRatio subsamples rows per tree (stochastic gradient
	// boosting); 1 uses every row. Predictions still update for all rows.
	InstanceSampleRatio float64
	// EarlyStoppingRounds stops training when the validation loss (see
	// Trainer.Validation) has not improved for this many consecutive
	// trees, keeping the best prefix; 0 disables.
	EarlyStoppingRounds int
	// WeightedCandidates recomputes split candidates every tree from
	// hessian-weighted quantile sketches (XGBoost's weighted sketch, which
	// the paper cites as WOS), so buckets hold equal hessian mass. Costs
	// one extra O(nnz) pass per tree.
	WeightedCandidates bool
	// Loss selects the training objective.
	Loss loss.Kind
	// SketchEps is the quantile-sketch rank error used when proposing
	// split candidates; 0 defaults to 1/(2K).
	SketchEps float64
	// Parallelism is q, the worker count of the shared training pool
	// (gradients, sketches, histogram builds, split finding, tree
	// splitting, scoring). Values < 1 resolve to runtime.GOMAXPROCS(0).
	// The trained model is bit-identical for every value, including 1
	// (DESIGN.md invariant 15).
	Parallelism int
	// BatchSize is b, the instance batch size of the parallel builder.
	BatchSize int
	// Seed drives feature sampling and any stochastic component.
	Seed int64

	// MemoryBudget bounds the bytes the out-of-core data path may keep
	// resident (chunk caches + labels); 0 keeps the in-memory path. A
	// non-zero budget routes training through internal/ooc: the dataset
	// stays on disk in the chunked binary format and the binned
	// mirror spills to memory-mapped scratch files, with results
	// bit-identical to in-memory training (see TrainOutOfCore).
	MemoryBudget ooc.Budget
}

// DefaultConfig mirrors the paper's protocol: T=20, d=7, K=20, σ=1, η=0.1.
// (The paper trains with η=0.01 on 110M-row datasets; laptop-scale runs
// converge better with 0.1.)
func DefaultConfig() Config {
	return Config{
		NumTrees:            20,
		MaxDepth:            7,
		NumCandidates:       20,
		LearningRate:        0.1,
		Lambda:              1.0,
		Gamma:               0.0,
		MinChildHessian:     1e-4,
		FeatureSampleRatio:  1.0,
		InstanceSampleRatio: 1.0,
		Loss:                loss.Logistic,
		Parallelism:         runtime.GOMAXPROCS(0),
		BatchSize:           10000,
		Seed:                42,
	}
}

// maxTreeDepth bounds MaxDepth, in a configuration and in a model file
// alike: a tree of depth d has 2^d − 1 node slots.
const maxTreeDepth = 24

// Validate rejects nonsensical configurations.
func (c Config) Validate() error {
	// A NaN passes every range comparison below, and an infinity some.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"LearningRate", c.LearningRate},
		{"Lambda", c.Lambda},
		{"Gamma", c.Gamma},
		{"MinChildHessian", c.MinChildHessian},
		{"FeatureSampleRatio", c.FeatureSampleRatio},
		{"InstanceSampleRatio", c.InstanceSampleRatio},
		{"SketchEps", c.SketchEps},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("core: %s %v is not finite", f.name, f.v)
		}
	}
	switch {
	case !c.Loss.Valid():
		return fmt.Errorf("core: Loss %v is not a loss kind", c.Loss)
	case c.NumTrees < 1:
		return fmt.Errorf("core: NumTrees %d < 1", c.NumTrees)
	case c.MaxDepth < 1 || c.MaxDepth > maxTreeDepth:
		return fmt.Errorf("core: MaxDepth %d outside [1,%d]", c.MaxDepth, maxTreeDepth)
	case c.NumCandidates < 1:
		return fmt.Errorf("core: NumCandidates %d < 1", c.NumCandidates)
	case c.LearningRate <= 0 || c.LearningRate > 1:
		return fmt.Errorf("core: LearningRate %v outside (0,1]", c.LearningRate)
	case c.Lambda < 0:
		return fmt.Errorf("core: Lambda %v < 0", c.Lambda)
	case c.Gamma < 0:
		return fmt.Errorf("core: Gamma %v < 0", c.Gamma)
	case c.FeatureSampleRatio <= 0 || c.FeatureSampleRatio > 1:
		return fmt.Errorf("core: FeatureSampleRatio %v outside (0,1]", c.FeatureSampleRatio)
	case c.InstanceSampleRatio <= 0 || c.InstanceSampleRatio > 1:
		return fmt.Errorf("core: InstanceSampleRatio %v outside (0,1]", c.InstanceSampleRatio)
	case c.EarlyStoppingRounds < 0:
		return fmt.Errorf("core: EarlyStoppingRounds %d < 0", c.EarlyStoppingRounds)
	case c.SketchEps < 0 || c.SketchEps >= 1:
		return fmt.Errorf("core: SketchEps %v outside [0,1)", c.SketchEps)
	case c.MemoryBudget < 0:
		return fmt.Errorf("core: MemoryBudget %d < 0", c.MemoryBudget)
	}
	return nil
}

// ResolvedParallelism returns the effective worker count of the training
// pool: Parallelism, or runtime.GOMAXPROCS(0) when unset (< 1).
func (c Config) ResolvedParallelism() int {
	if c.Parallelism >= 1 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// ResolvedSketchEps returns the effective quantile-sketch rank error:
// SketchEps, or 1/(2K) when unset.
func (c Config) ResolvedSketchEps() float64 {
	if c.SketchEps > 0 {
		return c.SketchEps
	}
	return 1 / (2 * float64(c.NumCandidates))
}
