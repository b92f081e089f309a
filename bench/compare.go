package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// errWorse makes main exit non-zero after the table has been printed.
var errWorse = errors.New("a metric moved past its bound")

// Verdicts of one workload × metric row.
const (
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved" // run-to-run spread wider than the bound
)

// sample is one side's values of one metric on one workload.
type sample []float64

func collect(recs []runRecord, workload, name string) sample {
	var s sample
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace {
			s = append(s, m.Value)
		}
	}
	return s
}

// row compares two samples of one metric under its declared direction and
// bound. symmetric judges the gap in both directions (A/A: neither side is
// the baseline).
type row struct {
	workload string
	spec     metricSpec
	a, b     sample
	gap      float64 // how much worse b's median is than a's, as a share of a's
	verdict  string
}

func compareRow(workload string, spec metricSpec, a, b sample, symmetric bool) row {
	r := row{workload: workload, spec: spec, a: a, b: b, verdict: verdictWithin}
	ma, mb := median(a), median(b)
	if ma != 0 {
		r.gap = (mb - ma) / math.Abs(ma)
		if spec.Better == "higher" {
			r.gap = -r.gap
		}
		if symmetric {
			r.gap = math.Abs(r.gap)
		}
	}
	switch {
	case r.gap > spec.Bound:
		r.verdict = verdictWorse
	case spread(a) > spec.Bound || spread(b) > spec.Bound:
		r.verdict = verdictUnresolved
	}
	return r
}

func printRows(w io.Writer, nameA, nameB string, rows []row) {
	fmt.Fprintf(w, "| workload | metric | %s q1 / median / q3 | %s q1 / median / q3 | spread | gap | bound | gap ÷ bound | verdict |\n", nameA, nameB)
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|")
	for _, r := range rows {
		a1, a2, a3 := quartiles(r.a)
		b1, b2, b3 := quartiles(r.b)
		fmt.Fprintf(w, "| %s | %s (%s) | %.5g / %.5g / %.5g | %.5g / %.5g / %.5g | %.2f%% / %.2f%% | %+.2f%% | %.1f%% | %.2f | %s |\n",
			r.workload, r.spec.Name, r.spec.Unit, a1, a2, a3, b1, b2, b3,
			100*spread(r.a), 100*spread(r.b), 100*r.gap, 100*r.spec.Bound, r.gap/r.spec.Bound, r.verdict)
	}
}

// compareSets builds one row per workload × end-to-end metric and reports
// whether any is worse.
func compareSets(w io.Writer, c *contract, nameA, nameB string, a, b []runRecord, symmetric bool) error {
	var rows []row
	worse := 0
	for _, wl := range c.Workloads {
		for _, spec := range c.EndToEnd {
			sa, sb := collect(a, wl.Name, spec.Name), collect(b, wl.Name, spec.Name)
			if len(sa) == 0 || len(sb) == 0 {
				continue
			}
			r := compareRow(wl.Name, spec, sa, sb, symmetric)
			if r.verdict == verdictWorse {
				worse++
			}
			rows = append(rows, r)
		}
	}
	if len(rows) == 0 {
		return errors.New("the two result files share no workload × metric")
	}
	printRows(w, nameA, nameB, rows)
	for _, recs := range [][]runRecord{a, b} {
		for _, r := range recs {
			if r.Failed > 0 {
				fmt.Fprintf(w, "\n%s seed %d: %d of %d operations failed their check\n", r.Workload, r.Seed, r.Failed, r.Attempted)
				worse++
			}
		}
	}
	if worse > 0 {
		return fmt.Errorf("%w (%d rows)", errWorse, worse)
	}
	return nil
}

// cmdCompare applies BENCHMARK.json's bounds and directions to two result
// files (each a sequence of run records, as `run -record` and `aa` write).
func cmdCompare(args []string, stdout io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: bench compare old.json new.json")
	}
	c, err := loadContract(contractFile)
	if err != nil {
		return err
	}
	old, err := readRecords(args[0])
	if err != nil {
		return err
	}
	cur, err := readRecords(args[1])
	if err != nil {
		return err
	}
	return compareSets(stdout, c, "old", "new", old, cur, false)
}

// cmdAA is the A/A procedure: the same code measured in alternating sets,
// every run on another seed, compared under the benchmark's own bounds. It
// prints markdown (bench/NOISE.md is its output) and fails if the medians of
// two sets differ by more than a bound.
func cmdAA(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("aa", flag.ContinueOnError)
	sets := fs.Int("sets", 2, "alternating sets")
	runs := fs.Int("runs", 5, "runs per set and workload")
	seconds := fs.Float64("seconds", 0, "measured seconds per run (0: BENCHMARK.json's run_seconds)")
	scale := fs.Float64("scale", 1, "problem-size scale")
	outDir := fs.String("out", filepath.Join("bench", "out"), "directory for the per-set result files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sets < 2 || *runs < 1 {
		return errors.New("aa needs at least 2 sets and 1 run")
	}
	c, err := loadContract(contractFile)
	if err != nil {
		return err
	}
	if *seconds == 0 {
		*seconds = float64(c.RunSeconds)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	files := make([]string, *sets)
	for s := range files {
		files[s] = filepath.Join(*outDir, fmt.Sprintf("aa.set%d.json", s))
		os.Remove(files[s])
	}
	start := time.Now()
	for r := 0; r < *runs; r++ {
		for s := 0; s < *sets; s++ {
			for _, wl := range c.Workloads {
				seed := 1 + s**runs + r // every run of every set on its own seed
				cmd := exec.Command(self, "run", "-workload", wl.Name, "-seed", fmt.Sprint(seed),
					"-seconds", fmt.Sprint(*seconds), "-scale", fmt.Sprint(*scale), "-out", *outDir, "-record", files[s])
				cmd.Env = append(os.Environ(), childEnv+"=1")
				cmd.Stderr = os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("run %s seed %d: %w", wl.Name, seed, err)
				}
			}
		}
	}
	h := readHost()
	fmt.Fprintf(stdout, "A/A: %d sets × %d runs × %d workloads, %.0f measured seconds per run, every run on its own seed, %.0f s in all.\n",
		*sets, *runs, len(c.Workloads), *seconds, time.Since(start).Seconds())
	fmt.Fprintf(stdout, "Host: nproc %d, %s, kernel %s.\n", h.NumCPU, h.Go, h.Kernel)
	var firstErr error
	base, err := readRecords(files[0])
	if err != nil {
		return err
	}
	for s := 1; s < *sets; s++ {
		other, err := readRecords(files[s])
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nSet 0 against set %d:\n\n", s)
		if err := compareSets(stdout, c, "set 0", fmt.Sprintf("set %d", s), base, other, true); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
