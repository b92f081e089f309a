// Package experiments regenerates every table and figure of the paper's
// evaluation (§7 and Appendix A) at laptop scale. Each experiment prints a
// human-readable table mirroring the paper's and returns structured rows for
// the benchmark harness.
//
// Scaling: the paper ran 0.7M–122M row datasets on a 50-node cluster; these
// experiments run the same code paths on synthetic datasets matched in
// dimensionality and sparsity (Table 2 shapes) but with row counts that fit
// one machine. Communication is executed over the in-process transports and
// *priced* with the paper's own α/β/γ cost model (§3) for 1 Gb Ethernet, so
// "modeled time" columns are comparable across systems the way the paper's
// wall-clock numbers are. Absolute values differ from the paper; the shape —
// who wins and by roughly what factor — is the reproduction target.
package experiments

import (
	"fmt"
	"io"
	"time"

	"dimboost/internal/core"
	"dimboost/internal/dataset"
)

// Scale multiplies dataset row counts; 1.0 is the default laptop scale,
// smaller values give quick smoke runs for `go test -bench`.
type Scale float64

func (s Scale) rows(base int) int {
	n := int(float64(base) * float64(s))
	if n < 200 {
		n = 200
	}
	return n
}

// Parallelism, when positive, overrides the training pool size every
// experiment config uses (dimboost-bench -parallelism). Timings change;
// trained models do not — the pool is bit-deterministic at any size.
var Parallelism int

// expConfig is the shared hyper-parameter protocol of the experiments
// (§7.1, with K and depth trimmed to laptop scale).
func expConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.NumTrees = 5
	cfg.MaxDepth = 5
	cfg.NumCandidates = 12
	// One pool thread per trainer: the distributed experiments already run
	// every worker in this process, and per-worker compute columns compare
	// algorithms, not pool sizes. -parallelism overrides.
	cfg.Parallelism = 1
	cfg.LearningRate = 0.1
	if Parallelism > 0 {
		cfg.Parallelism = Parallelism
	}
	return cfg
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// genderScaled returns a Gender-shaped dataset with a reduced feature space
// (the full 330K features stay available through featScale=1).
func genderScaled(rows, features int, seed int64) *dataset.Dataset {
	return dataset.Generate(dataset.SyntheticConfig{
		NumRows:     rows,
		NumFeatures: features,
		AvgNNZ:      107,
		NoiseStd:    0.3,
		Zipf:        1.4,
		Seed:        seed,
	})
}

// section prints an underlined heading.
func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n", title)
	for range title {
		fmt.Fprint(w, "-")
	}
	fmt.Fprintln(w)
}
