package core

import (
	"fmt"
	"math/rand"

	"dimboost/internal/dataset"
	"dimboost/internal/ooc"
	"dimboost/internal/parallel"
	"dimboost/internal/predict"
	"dimboost/internal/sketch"
)

// NewTrainerFromSource prepares a trainer over a disk-resident dataset: the
// out-of-core mode. Every training pass streams row chunks through the
// source's bounded cache instead of touching a resident Dataset, and the
// binned mirror spills to disk (ooc.SpilledBinned). The chunk grids
// and ordered reductions are identical to the in-memory path, so the trained
// model is Float64bits-identical to NewTrainer on the same data — at any
// parallelism and any budget admitted by ooc.Open.
//
// Instance sampling is rejected: its per-tree engine scoring of the full
// dataset is a resident-data feature.
func NewTrainerFromSource(src *ooc.Source, cfg Config) (*Trainer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.InstanceSampleRatio < 1 {
		return nil, fmt.Errorf("core: out-of-core training does not support InstanceSampleRatio < 1")
	}
	return &Trainer{
		cfg:    cfg,
		src:    src,
		labels: src.Labels(),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		pool:   parallel.New(cfg.ResolvedParallelism()),
	}, nil
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

// numRows returns the training row count of either data path.
func (tr *Trainer) numRows() int {
	if tr.src != nil {
		return tr.src.NumRows()
	}
	return tr.data.NumRows()
}

// numFeatures returns the feature dimensionality of either data path.
func (tr *Trainer) numFeatures() int {
	if tr.src != nil {
		return tr.src.NumFeatures()
	}
	return tr.data.NumFeatures
}

// rows walks the training rows of either data path in ascending order.
func (tr *Trainer) rows() sketch.Rows {
	if tr.src != nil {
		return tr.src.ForRowRange
	}
	return sketch.Resident(tr.data)
}

// srcErr surfaces the out-of-core source's sticky I/O error, if any. The
// training loop checks it at phase boundaries: streaming passes that hit an
// I/O failure skip work and record here rather than panicking inside pool
// workers, and the loop aborts instead of training on partial data.
func (tr *Trainer) srcErr() error {
	if tr.src == nil {
		return nil
	}
	return tr.src.Err()
}

// scoreTrainInto scores every training row into out. In-memory this is one
// batch call; out-of-core it streams chunks through the pool with the engine
// in single-worker mode — prediction is per-row pure, so the chunked scores
// are identical to the batch ones.
func (tr *Trainer) scoreTrainInto(eng *predict.Engine, out []float64) error {
	if tr.src == nil {
		eng.PredictBatchInto(tr.data, out)
		return nil
	}
	eng.Workers = 1
	return tr.src.ForEachChunk(tr.pool, func(_, lo, hi int, d *dataset.Dataset) {
		eng.PredictBatchInto(d, out[lo:hi])
	})
}
