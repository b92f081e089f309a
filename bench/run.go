package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// childEnv marks a process as a harness child. The smoke test's TestMain
// dispatches on it, so the test binary can stand in for the built harness.
const childEnv = "DIMBOOST_BENCH_CHILD"

// contractFile is read from the working directory: the root of a checkout.
const contractFile = "BENCHMARK.json"

// runRecord is one run as the result files keep it; compare and aa read
// these back.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Scale     float64            `json:"scale"`
	Seconds   float64            `json:"seconds"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]metric  `json:"metrics"`
	Detail    map[string]float64 `json:"detail,omitempty"`
	Spans     []spanTotal        `json:"spans,omitempty"`
	Host      hostFacts          `json:"host"`
}

type hostFacts struct {
	NumCPU int    `json:"nproc"`
	Go     string `json:"go"`
	Kernel string `json:"kernel"`
}

func readHost() hostFacts {
	h := hostFacts{NumCPU: runtime.NumCPU(), Go: runtime.Version()}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(raw))
	}
	return h
}

// driverLine is the last line of standard output, in the shape the
// benchmark driver parses.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errIncorrect makes main exit non-zero after the result has been printed.
var errIncorrect = errors.New("a correctness check failed")

// cmdRun measures one workload: gen writes the inputs (timed: setup_s),
// exec measures the program on them, and the parent prints every metric as
// `workload/metric value unit`, then the driver's JSON line.
func cmdRun(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	name := fs.String("workload", "", "one of "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured seconds (the time-boxed phases scale with it)")
	trace := fs.Int("trace", 0, "1: traced run, reports the per-layer metrics instead")
	scale := fs.Float64("scale", 1, "problem-size scale; below 1 only for the smoke test")
	outDir := fs.String("out", filepath.Join("bench", "out"), "directory for result, layer and trace files")
	record := fs.String("record", "", "also append the run record to this file (input of compare)")
	corrupt := fs.Bool("corrupt-expected", false, "flip one expected score: the run must report a failure")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if runtime.NumCPU() < 2 {
		return fmt.Errorf("the benchmark is sized for 2 CPUs; this host has %d", runtime.NumCPU())
	}
	c, err := loadContract(contractFile)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmpRoot := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmpRoot, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	child := func(args ...string) error {
		cmd := exec.Command(self, args...)
		cmd.Env = append(os.Environ(), childEnv+"=1", "TMPDIR="+dir)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		return cmd.Run()
	}

	traced := *trace != 0
	common := []string{"-workload", w.Name, "-scale", fmt.Sprint(*scale), "-dir", dir}
	reps := setupReps
	if traced {
		reps = 1 // setup_s is an end-to-end metric; a traced run does not report it
	}
	var gens []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := child(append([]string{"gen", "-seed", fmt.Sprint(*seed)}, common...)...); err != nil {
			return fmt.Errorf("gen: %w", err)
		}
		gens = append(gens, time.Since(t0).Seconds())
	}

	resultPath := filepath.Join(dir, "result.json")
	execArgs := append([]string{"exec", "-seconds", fmt.Sprint(*seconds), "-result", resultPath}, common...)
	if traced {
		execArgs = append(execArgs, "-trace", "-trace-out", filepath.Join(*outDir, w.Name+".trace.json"))
	}
	if *corrupt {
		execArgs = append(execArgs, "-corrupt-expected")
	}
	if err := child(execArgs...); err != nil {
		return fmt.Errorf("exec: %w", err)
	}
	raw, err := os.ReadFile(resultPath)
	if err != nil {
		return err
	}
	var res execResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return err
	}

	rec := runRecord{
		Workload: w.Name, Seed: *seed, Trace: traced, Scale: *scale, Seconds: *seconds,
		Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Failures: res.Failures,
		Metrics: res.Metrics, Detail: res.Detail, Spans: res.Spans, Host: readHost(),
	}
	declared, file := c.EndToEnd, w.Name+".result.json"
	if traced {
		rec.Metrics, declared, file = res.Layers, c.PerLayer, w.Name+".layers.json"
	} else {
		// Set-up: the generator's wall time plus what the program does once
		// per process before it can serve (model load, compile, listen).
		rec.Metrics["setup_s"] = metric{Value: median(gens) + res.Detail["startup_s"], Unit: "s"}
		rec.Detail["gen_s"] = median(gens)
	}
	if err := checkMetrics(declared, rec.Metrics); err != nil {
		return err
	}

	for _, d := range declared {
		fmt.Fprintf(stdout, "%s/%s %.6g %s\n", w.Name, d.Name, rec.Metrics[d.Name].Value, d.Unit)
	}
	for _, k := range sortedKeys(rec.Detail) {
		fmt.Fprintf(stdout, "# %s/%s %.6g\n", w.Name, k, rec.Detail[k])
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(stdout, "# FAILED %s\n", f)
	}
	if err := writeRecord(filepath.Join(*outDir, file), rec, false); err != nil {
		return err
	}
	if *record != "" {
		if err := writeRecord(*record, rec, true); err != nil {
			return err
		}
	}
	line, err := json.Marshal(driverLine{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rec.Correct {
		return errIncorrect
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeRecord writes one run record as a line of JSON, replacing the file
// or appending to it.
func writeRecord(path string, rec runRecord, appendTo bool) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	flags := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if appendTo {
		flags = os.O_CREATE | os.O_WRONLY | os.O_APPEND
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords reads every run record of a result file.
func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []runRecord
	dec := json.NewDecoder(f)
	for {
		var r runRecord
		if err := dec.Decode(&r); err == io.EOF {
			return recs, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
}
