package experiments

import (
	"fmt"
	"io"
	"time"

	"dimboost/internal/cluster"
	"dimboost/internal/dataset"
)

// Fig13Row is one (dataset, workers) scalability measurement with the run
// time decomposed into loading, computation, and communication — the
// breakdown of Appendix A.2.
type Fig13Row struct {
	Dataset string
	Workers int
	Load    time.Duration
	Compute time.Duration
	Comm    time.Duration
}

// Fig13 reproduces Figure 13 (Appendix A.2): DimBoost's scalability with
// worker count on RCV1-shaped (w ∈ {1,2,5}; w=1 needs no communication in
// the paper, here the co-located server round-trip remains but moves no
// network bytes) and Synthesis-shaped data (w ∈ {10,20,50}).
func Fig13(w io.Writer, scale Scale) ([]Fig13Row, error) {
	var out []Fig13Row
	for _, s := range fig13Sets(scale) {
		d := dataset.Generate(s.gen)
		section(w, fmt.Sprintf("Figure 13 (%s-like, %d×%d) — scalability and time breakdown",
			s.name, d.NumRows(), d.NumFeatures))
		fmt.Fprintf(w, "%8s %12s %12s %12s %12s\n", "workers", "load", "compute", "comm", "total")
		for _, workers := range s.workers {
			row, err := fig13Run(d, s.name, workers)
			if err != nil {
				return nil, err
			}
			out = append(out, row)
			fmt.Fprintf(w, "%8d %12s %12s %12s %12s\n", workers,
				fmtDur(row.Load), fmtDur(row.Compute), fmtDur(row.Comm), fmtDur(row.Load+row.Compute+row.Comm))
		}
	}
	fmt.Fprintln(w, "\npaper shape: per-worker compute shrinks with w (sublinear — split finding does")
	fmt.Fprintln(w, "not scale with rows); communication grows only mildly thanks to the PS sharding.")
	return out, nil
}

// fig13Set is one dataset of Figure 13 and the worker counts it is trained at.
type fig13Set struct {
	name    string
	gen     dataset.SyntheticConfig
	workers []int
}

// fig13Sets returns Figure 13's datasets at scale. Row counts are chosen so
// each worker's data work (N·z/w) dominates the per-node O(M) histogram
// floor — the regime where the paper's near-linear compute scaling is
// visible.
func fig13Sets(scale Scale) []fig13Set {
	return []fig13Set{
		{
			name:    "RCV1",
			gen:     dataset.SyntheticConfig{NumRows: scale.rows(60_000), NumFeatures: 47_000, AvgNNZ: 76, NoiseStd: 0.3, Zipf: 1.4, Seed: 131},
			workers: []int{1, 2, 5},
		},
		{
			// The paper scales Synthesis across 10/20/50 workers with 1M
			// rows per worker; at laptop row counts the per-node O(M)
			// histogram floor dominates beyond ~20 workers, so the sweep
			// stops there.
			name:    "Synthesis",
			gen:     dataset.SyntheticConfig{NumRows: scale.rows(100_000), NumFeatures: 100_000, AvgNNZ: 100, NoiseStd: 0.3, Zipf: 1.4, Seed: 132},
			workers: []int{5, 10, 20},
		},
	}
}

// fig13Run trains Figure 13's model on d with a cluster of workers workers
// and as many servers, and decomposes its run time.
func fig13Run(d *dataset.Dataset, name string, workers int) (Fig13Row, error) {
	cfg := expConfig()
	cfg.NumTrees = 3
	cfg.MaxDepth = 4
	ccfg := cluster.DefaultConfig(workers, workers)
	ccfg.Config = cfg
	ccfg.SerializeCompute = true
	res, err := cluster.Train(d, ccfg)
	if err != nil {
		return Fig13Row{}, fmt.Errorf("%s w=%d: %w", name, workers, err)
	}
	return Fig13Row{
		Dataset: name,
		Workers: workers,
		Load:    res.Stats.LoadTime,
		Compute: res.Stats.Compute.Local(),
		Comm:    res.Stats.ModeledCommTime + res.Stats.Compute.FindSplit,
	}, nil
}
