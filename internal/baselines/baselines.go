// Package baselines implements the four competitor GBDT systems of the
// paper's evaluation (§2.3, §7.3) as faithful aggregation-strategy variants
// over the same algorithmic core:
//
//   - MLlibStyle        — all-to-one reduce to a coordinator (MapReduce)
//   - XGBoostStyle      — binomial-tree reduce to root + small broadcast
//   - LightGBMStyle     — recursive-halving ReduceScatter, split finding on
//     each worker's owned histogram block
//   - TencentBoostStyle — parameter-server scatter-gather, but the
//     responsible worker pulls the full merged histogram (no
//     two-phase split, no compression)
//   - DimBoostStyle     — the full system (delegates to internal/cluster)
//
// Following §5.1 ("most existing systems implicitly assume that the dataset
// is dense during histogram construction"), the four baselines default to
// the dense O(N·M) histogram build; SparseBuild overrides that when a
// benchmark wants to isolate communication effects.
package baselines

import (
	"fmt"
	"sync"
	"time"

	"dimboost/internal/cluster"
	"dimboost/internal/comm"
	"dimboost/internal/core"
	"dimboost/internal/dataset"
	"dimboost/internal/simnet"
)

// System selects the aggregation strategy.
type System int

// The five compared systems.
const (
	MLlibStyle System = iota
	XGBoostStyle
	LightGBMStyle
	TencentBoostStyle
	DimBoostStyle
)

// String implements fmt.Stringer.
func (s System) String() string {
	switch s {
	case MLlibStyle:
		return "MLlib"
	case XGBoostStyle:
		return "XGBoost"
	case LightGBMStyle:
		return "LightGBM"
	case TencentBoostStyle:
		return "TencentBoost"
	case DimBoostStyle:
		return "DimBoost"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

// Systems lists all five in the paper's comparison order.
var Systems = []System{MLlibStyle, XGBoostStyle, LightGBMStyle, TencentBoostStyle, DimBoostStyle}

// Options configures a comparison run.
type Options struct {
	Core    core.Config
	System  System
	Workers int
	// Servers only applies to DimBoostStyle (its PS fleet size); 0 means
	// co-located (= Workers), the deployment §3 analyzes.
	Servers int
	// SparseBuild lets a baseline use the sparsity-aware construction, to
	// isolate communication effects from computation effects.
	SparseBuild bool
}

// Stats reports a run's measurements in a form comparable across systems.
type Stats struct {
	// WallTime is the measured in-process duration. On a single-core
	// machine the w workers time-slice one CPU, so WallTime approximates
	// the cluster's total compute rather than its critical path.
	WallTime time.Duration
	// MaxWorkerCompute is the largest per-worker compute time — the
	// per-machine critical path on a real cluster. A mesh rank counts its
	// gradients and histogram builds only: binning and split finding run
	// uncounted. DimBoostStyle reports cluster Stats.Compute.Total(), which
	// also counts sketching, split finding (PS round trips) and tree
	// splitting, so the two kinds of system compare different sets.
	MaxWorkerCompute time.Duration
	// Bytes and Msgs are total traffic.
	Bytes, Msgs int64
	// ModeledCommTime prices per-node traffic maxima with the §3 cost
	// model on gigabit Ethernet: α·msgs + β·bytes.
	ModeledCommTime time.Duration
	// ModeledTotalTime = MaxWorkerCompute + ModeledCommTime: the
	// end-to-end estimate for a real cluster, the quantity Figure 12
	// compares.
	ModeledTotalTime time.Duration
	// Events traces per-tree training loss against wall time.
	Events []core.TreeEvent
}

// Train runs the selected system on the dataset and returns the model and
// run statistics.
func Train(d *dataset.Dataset, opts Options) (*core.Model, Stats, error) {
	if opts.Workers < 1 {
		return nil, Stats{}, fmt.Errorf("baselines: workers %d < 1", opts.Workers)
	}
	if opts.System == DimBoostStyle {
		return trainDimBoost(d, opts)
	}
	return trainMesh(d, opts)
}

// trainDimBoost delegates to the full cluster runtime.
func trainDimBoost(d *dataset.Dataset, opts Options) (*core.Model, Stats, error) {
	servers := opts.Servers
	if servers == 0 {
		servers = opts.Workers
	}
	cfg := cluster.Config{Config: opts.Core, NumWorkers: opts.Workers, NumServers: servers, Bits: 8, SerializeCompute: true}
	res, err := cluster.Train(d, cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	st := Stats{
		WallTime:         res.Stats.WallTime,
		MaxWorkerCompute: res.Stats.Compute.Total(),
		Bytes:            res.Stats.TotalBytes,
		Msgs:             res.Stats.TotalMsgs,
		ModeledCommTime:  res.Stats.ModeledCommTime,
		Events:           res.Events,
	}
	st.ModeledTotalTime = st.MaxWorkerCompute + st.ModeledCommTime
	return res.Model, st, nil
}

// trainMesh runs the four mesh-based baselines.
func trainMesh(d *dataset.Dataset, opts Options) (*core.Model, Stats, error) {
	if err := opts.Core.Validate(); err != nil {
		return nil, Stats{}, err
	}
	w := opts.Workers
	start := time.Now()

	// Candidates are computed centrally for all mesh baselines: every
	// compared system proposes quantile candidates the same way, so this
	// step is factored out of the comparison.
	probe, err := core.NewTrainer(d, opts.Core)
	if err != nil {
		return nil, Stats{}, err
	}
	cands := probe.Candidates()

	// Every compared system builds from the float rows (meshWorker.BuildNode)
	// and honours none of the single-process trainer's row sampling or
	// per-tree candidates.
	rankCfg := opts.Core
	rankCfg.InstanceSampleRatio, rankCfg.WeightedCandidates = 1, false

	shards := dataset.PartitionRows(d, w)
	mesh := comm.NewMesh(w)
	var computeLock sync.Mutex
	workers := make([]*meshWorker, w)
	for r := 0; r < w; r++ {
		tr, err := core.NewTrainer(shards[r], rankCfg)
		if err != nil {
			return nil, Stats{}, err
		}
		tr.SetCandidates(cands)
		workers[r] = &meshWorker{
			rank:        r,
			opts:        opts,
			shard:       shards[r],
			mesh:        mesh,
			tr:          tr,
			start:       start,
			computeLock: &computeLock,
		}
	}
	errs := make([]error, w)
	var wg sync.WaitGroup
	for r := 0; r < w; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = workers[r].run()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return nil, Stats{}, fmt.Errorf("baselines: %s rank %d: %w", opts.System, r, err)
		}
	}

	return workers[0].model, meshStats(workers, start), nil
}

// meshStats reports a finished mesh run from its ranks.
func meshStats(ranks []*meshWorker, start time.Time) Stats {
	mesh := ranks[0].mesh
	st := Stats{
		WallTime: time.Since(start),
		Bytes:    mesh.BytesMoved(),
		Msgs:     mesh.MsgsMoved(),
		Events:   ranks[0].events,
	}
	for _, r := range ranks {
		st.MaxWorkerCompute = max(st.MaxWorkerCompute, r.compute)
	}
	maxBytes, maxMsgs := mesh.MaxPerRank()
	st.ModeledCommTime = time.Duration(simnet.Cost(maxMsgs, maxBytes, simnet.GigabitEthernet()) * float64(time.Second))
	st.ModeledTotalTime = st.MaxWorkerCompute + st.ModeledCommTime
	return st
}
