package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the built harness: run's
// children (gen, exec) re-enter through main, and everything works from the
// checkout root, where BENCHMARK.json and .bench_build live.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	os.Exit(m.Run())
}

// smokeRun runs one workload at 2% scale and returns the driver line.
func smokeRun(t *testing.T, workload string, extra ...string) (driverLine, string, error) {
	t.Helper()
	var out bytes.Buffer
	args := append([]string{"-workload", workload, "-seed", "1", "-seconds", "0.4", "-scale", "0.02", "-out", t.TempDir()}, extra...)
	err := cmdRun(args, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line driverLine
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &line); jerr != nil {
		t.Fatalf("%s: last line is not the driver's JSON: %v\n%s", workload, jerr, out.String())
	}
	return line, out.String(), err
}

func checkLine(t *testing.T, workload string, line driverLine, declared []metricSpec) {
	t.Helper()
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", workload, line.Correct, line.Attempted, line.Failed)
	}
	if err := checkMetrics(declared, line.Metrics); err != nil {
		t.Errorf("%s: %v", workload, err)
	}
	for name, m := range line.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s/%s is not finite", workload, name)
		}
	}
}

func TestContractMatchesHarness(t *testing.T) {
	c, err := loadContract(contractFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, c.Workloads[i].Name, w.Name)
		}
	}
	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(c.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if c.PerLayer[i].Name != m.name || c.PerLayer[i].Unit != m.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s (%s), harness %s (%s)",
				i, c.PerLayer[i].Name, c.PerLayer[i].Unit, m.name, m.unit)
		}
	}
}

func TestSmokeAllWorkloads(t *testing.T) {
	c, err := loadContract(contractFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		line, out, err := smokeRun(t, w.Name)
		if err != nil {
			t.Fatalf("%s: %v\n%s", w.Name, err, out)
		}
		checkLine(t, w.Name, line, c.EndToEnd)
		for _, d := range c.EndToEnd {
			if !strings.Contains(out, w.Name+"/"+d.Name+" ") {
				t.Errorf("%s: no `%s/%s value unit` line", w.Name, w.Name, d.Name)
			}
			if line.Metrics[d.Name].Value == 0 {
				t.Errorf("%s/%s is 0; end-to-end metrics are never 0", w.Name, d.Name)
			}
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	c, err := loadContract(contractFile)
	if err != nil {
		t.Fatal(err)
	}
	// train_cluster exercises the most layers; train_ooc_dense the rest.
	for _, name := range []string{"train_cluster", "train_ooc_dense"} {
		line, out, err := smokeRun(t, name, "-trace", "1")
		if err != nil {
			t.Fatalf("%s traced: %v\n%s", name, err, out)
		}
		checkLine(t, name, line, c.PerLayer)
	}
}

// A wrong expected score must surface as failed > 0 and a non-zero exit.
func TestSmokeDetectsWrongScore(t *testing.T) {
	line, out, err := smokeRun(t, "serve_predict", "-corrupt-expected")
	if !errors.Is(err, errIncorrect) {
		t.Fatalf("corrupted expectation: err = %v, want errIncorrect\n%s", err, out)
	}
	if line.Correct || line.Failed == 0 {
		t.Errorf("corrupted expectation: correct=%v failed=%d", line.Correct, line.Failed)
	}

	cmd := exec.Command(os.Args[0], "run", "-workload", "serve_predict", "-seed", "1",
		"-seconds", "0.4", "-scale", "0.02", "-out", t.TempDir(), "-corrupt-expected")
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var exit *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Errorf("corrupted expectation: process error %v, want exit code 1", err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
