package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"dimboost/internal/cluster"
	"dimboost/internal/core"
	"dimboost/internal/dataset"
	"dimboost/internal/ooc"
)

// trainOpts selects one repetition's shape; the zero value of each field
// means the workload's own.
type trainOpts struct {
	mode        string
	trees       int
	parallelism int
	run         int // span identifier
	// onTree, when set, is installed as Trainer.OnTree (local modes only).
	onTree func(core.TreeEvent)
}

// trainRun is what one disk → model repetition measured.
type trainRun struct {
	wall        time.Duration // load + train + Model.SaveFile: train_s
	load        time.Duration // dataset.ReadBinaryFile or ooc.Open
	train       time.Duration // the Train call alone
	model       *core.Model
	times       core.PhaseTimes
	stats       cluster.Stats // cluster mode
	trackerPeak int64         // out-of-core mode: ooc.Source.Tracker().Peak()
}

// trainer runs repetitions of one workload's training path. It holds only
// paths and the configuration: every repetition starts from the files gen
// wrote.
type trainer struct {
	w      workload
	dir    string
	tr     *tracer
	budget ooc.Budget // out-of-core mode: 1.5 × the probed minimum
}

func newTrainer(w workload, dir string, tr *tracer) (*trainer, error) {
	t := &trainer{w: w, dir: dir, tr: tr}
	if w.Mode == modeOOC {
		probe, err := ooc.Open(filepath.Join(dir, trainFile), ooc.Options{
			Parallelism: parallelism, ChunkRows: oocChunkRows, SpillDir: dir,
		})
		if err != nil {
			return nil, err
		}
		t.budget = probe.MinBudget() + probe.MinBudget()/2
		if err := probe.Close(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func (t *trainer) config(o trainOpts) core.Config {
	cfg := core.DefaultConfig()
	cfg.NumTrees = t.w.Trees
	if o.trees > 0 {
		cfg.NumTrees = o.trees
	}
	cfg.MaxDepth = t.w.Depth
	cfg.NumCandidates = numCandidates
	cfg.Parallelism = parallelism
	if o.parallelism > 0 {
		cfg.Parallelism = o.parallelism
	}
	return cfg
}

// rep runs one repetition: read the training file, train, save the model.
func (t *trainer) rep(o trainOpts) (trainRun, error) {
	if o.mode == "" {
		o.mode = t.w.Mode
	}
	cfg := t.config(o)
	path := filepath.Join(t.dir, trainFile)
	var out trainRun
	defer t.tr.begin("train_rep", o.run)()
	start := time.Now()

	switch o.mode {
	case modeResident, modeCluster:
		end := t.tr.begin("dataset.load", o.run)
		d, err := dataset.ReadBinaryFile(path)
		end()
		if err != nil {
			return out, err
		}
		out.load = time.Since(start)
		trainStart := time.Now()
		end = t.tr.begin(o.mode+".train", o.run)
		if o.mode == modeCluster {
			cc := cluster.DefaultConfig(clusterNodes, clusterNodes)
			cc.Config = cfg
			cc.Parallelism = 1
			cc.Bits = clusterBits
			res, err := cluster.Train(d, cc)
			if err != nil {
				return out, err
			}
			out.model, out.stats, out.times = res.Model, res.Stats, res.Stats.Compute
			// Workers report per-tree progress only after the fact.
			for _, ev := range res.Events {
				t.tr.add("tree", ev.Tree, trainStart, trainStart.Add(ev.Elapsed))
			}
		} else {
			tr, err := core.NewTrainer(d, cfg)
			if err != nil {
				return out, err
			}
			tr.OnTree = o.onTree
			if out.model, err = tr.Train(); err != nil {
				return out, err
			}
			out.times = tr.Times
		}
		end()
		out.train = time.Since(trainStart)

	case modeOOC:
		end := t.tr.begin("ooc.open", o.run)
		src, err := ooc.Open(path, ooc.Options{
			Budget: t.budget, Parallelism: cfg.Parallelism, ChunkRows: oocChunkRows, SpillDir: t.dir,
		})
		end()
		if err != nil {
			return out, err
		}
		defer src.Close()
		out.load = time.Since(start)
		cfg.MemoryBudget = t.budget
		tr, err := core.NewTrainerFromSource(src, cfg)
		if err != nil {
			return out, err
		}
		tr.OnTree = o.onTree
		trainStart := time.Now()
		end = t.tr.begin("ooc.train", o.run)
		out.model, err = tr.Train()
		end()
		if err != nil {
			return out, err
		}
		out.train = time.Since(trainStart)
		out.times = tr.Times
		out.trackerPeak = src.Tracker().Peak()

	default:
		return out, fmt.Errorf("unknown mode %q", o.mode)
	}

	end := t.tr.begin("model.save", o.run)
	err := out.model.SaveFile(filepath.Join(t.dir, modelFile))
	end()
	out.wall = time.Since(start)
	return out, err
}

// sameBits reports whether two score vectors are Float64bits-equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
