package dimboost_test

// The command-line binaries, built and driven the way a user drives them:
// nothing else in the test suite executes anything under cmd/.

import (
	"bytes"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"dimboost"
)

// runCLI runs one built binary to completion and returns its combined
// output; a non-zero exit fails the test.
func runCLI(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

// syncBuffer collects a running process's output while the test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestCLIRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	bin := func(name string) string { return filepath.Join(dir, name) }
	for _, name := range []string{"bench", "datagen", "inspect", "loadgen", "node", "predict", "serve", "train"} {
		if _, err := os.Stat(bin("dimboost-" + name)); err != nil {
			t.Fatalf("binary not built: %v", err)
		}
	}
	data, model, preds := filepath.Join(dir, "train.libsvm"), filepath.Join(dir, "model.bin"), filepath.Join(dir, "preds.txt")

	runCLI(t, bin("dimboost-datagen"), "-rows", "400", "-features", "200", "-nnz", "10", "-seed", "3", "-out", data)
	if out := runCLI(t, bin("dimboost-train"), "-data", data, "-model", model, "-trees", "3", "-depth", "4", "-parallelism", "1"); !strings.Contains(out, "trained 3 trees") {
		t.Fatalf("dimboost-train output:\n%s", out)
	}
	if out := runCLI(t, bin("dimboost-inspect"), "-model", model); !strings.Contains(out, "trees:          3") {
		t.Fatalf("dimboost-inspect output:\n%s", out)
	}

	// dimboost-predict writes the scores Model.PredictBatch computes, to
	// the bit (%g prints the shortest decimal that round-trips).
	runCLI(t, bin("dimboost-predict"), "-model", model, "-data", data, "-out", preds)
	m, err := dimboost.LoadModelFile(model)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dimboost.ReadLibSVMFile(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := m.PredictBatch(d)
	raw, err := os.ReadFile(preds)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(string(raw))
	if len(lines) != len(want) {
		t.Fatalf("dimboost-predict wrote %d scores for %d rows", len(lines), len(want))
	}
	for i, line := range lines {
		got, err := strconv.ParseFloat(line, 64)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want[i]) {
			t.Fatalf("row %d: dimboost-predict %v, PredictBatch %v", i, got, want[i])
		}
	}

	// dimboost-serve on a free port, dimboost-loadgen against it, SIGTERM.
	serve := exec.Command(bin("dimboost-serve"), "-model", model, "-listen", "127.0.0.1:0")
	var serveLog syncBuffer
	serve.Stdout, serve.Stderr = &serveLog, &serveLog
	if err := serve.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- serve.Wait() }()
	t.Cleanup(func() { serve.Process.Kill() }) //nolint:errcheck // already gone on the success path
	listening := regexp.MustCompile(`listening on (http://\S+)`)
	var url string
	for deadline := time.Now().Add(20 * time.Second); url == "" && time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if m := listening.FindStringSubmatch(serveLog.String()); m != nil {
			url = m[1]
		}
	}
	if url == "" {
		t.Fatalf("dimboost-serve never announced its address\n%s", serveLog.String())
	}

	loadJSON := filepath.Join(dir, "load.json")
	out := runCLI(t, bin("dimboost-loadgen"), "-url", url+"/predict", "-rate", "200", "-duration", "300ms", "-json", loadJSON)
	for _, wantLine := range []string{"sent 60, accepted 60 ", "errors 0", "response time (from due):", "service time (from send):"} {
		if !strings.Contains(out, wantLine) {
			t.Fatalf("dimboost-loadgen output lacks %q:\n%s", wantLine, out)
		}
	}
	recorded, err := os.ReadFile(loadJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"p99_ns"`, `"service_p99_ns"`} {
		if !bytes.Contains(recorded, []byte(key)) {
			t.Fatalf("dimboost-loadgen -json lacks %s:\n%s", key, recorded)
		}
	}

	if err := serve.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("dimboost-serve after SIGTERM: %v\n%s", err, serveLog.String())
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("dimboost-serve did not exit after SIGTERM\n%s", serveLog.String())
	}
	if !strings.Contains(serveLog.String(), "draining") {
		t.Fatalf("dimboost-serve exited without draining:\n%s", serveLog.String())
	}

	// dimboost-bench regenerates paper tables and nothing else.
	if out := runCLI(t, bin("dimboost-bench"), "table1"); !strings.Contains(out, "[table1 completed in") {
		t.Fatalf("dimboost-bench table1 output:\n%s", out)
	}
	for _, removed := range []string{"predict", "serve", "ooc", "comm", "train-parallel"} {
		out, err := exec.Command(bin("dimboost-bench"), removed).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "usage: dimboost-bench") {
			t.Fatalf("dimboost-bench %s: err %v, want exit 2 with usage\n%s", removed, err, out)
		}
	}
}
