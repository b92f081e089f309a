package core

import (
	"dimboost/internal/histogram"
	"dimboost/internal/ooc"
	"dimboost/internal/parallel"
)

// NewTrainerFromSource prepares a trainer over a disk-resident dataset: the
// out-of-core mode. Every training pass streams row chunks through the
// source's bounded cache instead of touching a resident Dataset, and the
// binned mirror spills to disk (ooc.SpilledBinned). The chunk grids
// and ordered reductions are identical to the in-memory path, so the trained
// model is Float64bits-identical to NewTrainer on the same data — at any
// parallelism and any budget admitted by ooc.Open.
func NewTrainerFromSource(src *ooc.Source, cfg Config) (*Trainer, error) {
	return newTrainer(spilledRows{src}, cfg)
}

// TrainOutOfCore trains from a chunked binary dataset file under
// cfg.MemoryBudget, opening and closing the source around one Train call.
// With a zero budget the source caches are effectively unbounded but the
// data path is still the streaming one.
func TrainOutOfCore(path string, cfg Config) (*Model, error) {
	src, err := ooc.Open(path, ooc.Options{
		Budget:      cfg.MemoryBudget,
		Parallelism: cfg.ResolvedParallelism(),
	})
	if err != nil {
		return nil, err
	}
	defer src.Close()
	tr, err := NewTrainerFromSource(src, cfg)
	if err != nil {
		return nil, err
	}
	return tr.Train()
}

// spilledRows are rows in a chunked file: ooc.Source is every rowSource
// method but bin.
type spilledRows struct{ *ooc.Source }

// bin spills the mirror to a memory-mapped scratch file instead of
// materializing it. Under a memory budget the pool's free list is capped at
// the partials one build holds at most (parallel.ReduceOrdered's window of
// Workers+1), so idle histograms from wide layers cannot pile up; recycling
// is allocation-only, so the cap cannot affect results.
func (s spilledRows) bin(layout *histogram.Layout, pool *parallel.Pool, _ bool) (binnedRows, *histogram.Pool, error) {
	sb, err := s.BuildBinned(layout, pool)
	if err != nil {
		return nil, nil, err
	}
	return spilledBinned{sb}, histogram.NewPoolCap(layout, pool.Workers()+1), nil
}

// spilledBinned is the binned mirror on disk: ooc.SpilledBinned classifies
// a layer in one walk over the spill per pool worker, and builds a layer's
// nodes in one more (BuildLayer).
type spilledBinned struct{ *ooc.SpilledBinned }

func (s spilledBinned) build(pool *parallel.Pool, nodes []ooc.NodeBuild, grad, hess []float64, opts histogram.BuildOptions, _ NodeBuilder) {
	for i := range nodes {
		nodes[i].H = opts.Pool.Get()
		nodes[i].H.Defer()
	}
	s.BuildLayer(pool, nodes, grad, hess, opts)
}

func (s spilledBinned) oneWalk() bool { return true }
