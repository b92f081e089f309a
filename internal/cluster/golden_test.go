package cluster

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"

	"dimboost/internal/core"
	"dimboost/internal/dataset"
	"dimboost/internal/ooc"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_models.txt from this build")

const goldenFile = "testdata/golden_models.txt"

// fmaFree reports whether this test binary was built for a target on which
// the compiler never fuses a multiply and an add: amd64 below GOAMD64=v3.
// Elsewhere a fused multiply-add may round a float once where the recorded
// build rounded it twice, and a model can differ in its last bits.
func fmaFree() bool {
	if runtime.GOARCH != "amd64" {
		return false
	}
	level := "v1"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				level = s.Value
			}
		}
	}
	return level == "v1" || level == "v2"
}

// goldenRun is one pinned model: a cluster setting and the number of
// features its rows are declared at. A local run trains core's
// single-process trainer under cfg.Config instead, resident or, when ooc,
// out of core at the smallest budget the source admits.
type goldenRun struct {
	cfg        Config
	declared   int
	local, ooc bool
}

// goldenRuns are the settings whose models TestGoldenModelHashes pins: on the
// rows as generated (3 000 features), a 2×2 cluster at each push width — 0
// (float32), 16, 8 — and on the exact wire, plus one 3×2 run; and on the
// same rows declared at 30 000 and at 300 000 features, 2×2 and 2×3 clusters
// on the raw wires (float32 and exact). There every feature past the first
// few thousand is in no row, so a server's first owned feature, or every one
// it owns, can be one no row has: its node totals, on the raw wires the ones
// every gain reads, are then the deferred mass alone.
func goldenRuns() map[string]goldenRun {
	runs := map[string]goldenRun{}
	for _, w := range []struct {
		name  string
		bits  uint
		exact bool
	}{{"float32", 0, false}, {"bits16", 16, false}, {"bits8", 8, false}, {"exact", 0, true}} {
		cfg := smallCfg(2, 2)
		cfg.NumTrees, cfg.MaxDepth = 3, 5
		cfg.Bits, cfg.PullBits, cfg.ExactWire = w.bits, w.bits, w.exact
		runs["2x2/"+w.name] = goldenRun{cfg: cfg, declared: 3000}
	}
	cfg := smallCfg(3, 2)
	cfg.NumTrees, cfg.MaxDepth = 3, 5
	cfg.Bits, cfg.PullBits = 8, 8
	runs["3x2/bits8"] = goldenRun{cfg: cfg, declared: 3000}
	for _, declared := range []int{30_000, 300_000} {
		for _, servers := range []int{2, 3} {
			for _, wire := range []string{"float32", "exact"} {
				cfg := smallCfg(2, servers)
				cfg.NumTrees, cfg.MaxDepth = 3, 5
				cfg.ExactWire = wire == "exact"
				runs[fmt.Sprintf("%dk/2x%d/%s", declared/1000, servers, wire)] = goldenRun{cfg: cfg, declared: declared}
			}
		}
	}
	for name, mut := range map[string]func(*goldenRun){
		"resident":   func(*goldenRun) {},
		"minhess0":   func(r *goldenRun) { r.cfg.MinChildHessian = 0 },
		"features50": func(r *goldenRun) { r.cfg.FeatureSampleRatio = 0.5 },
		"rows50":     func(r *goldenRun) { r.cfg.InstanceSampleRatio = 0.5 },
		"ooc":        func(r *goldenRun) { r.ooc = true },
		"30k":        func(r *goldenRun) { r.declared = 30_000 },
	} {
		run := goldenRun{cfg: smallCfg(1, 1), declared: 3000, local: true}
		run.cfg.NumTrees, run.cfg.MaxDepth = 3, 5
		mut(&run)
		runs["local/"+name] = run
	}
	return runs
}

// trainGolden trains run's model on d.
func trainGolden(t *testing.T, d *dataset.Dataset, run goldenRun) (*core.Model, error) {
	if !run.local {
		res, err := Train(d, run.cfg)
		if err != nil {
			return nil, err
		}
		return res.Model, nil
	}
	if !run.ooc {
		return core.Train(d, run.cfg.Config)
	}
	path := filepath.Join(t.TempDir(), "train.bin")
	if err := dataset.WriteBinaryFile(path, d); err != nil {
		return nil, err
	}
	opts := ooc.Options{ChunkRows: 64, Parallelism: run.cfg.Parallelism}
	probe, err := ooc.Open(path, opts)
	if err != nil {
		return nil, err
	}
	opts.Budget = probe.MinBudget()
	probe.Close()
	src, err := ooc.Open(path, opts)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	cfg := run.cfg.Config
	cfg.MemoryBudget = opts.Budget
	tr, err := core.NewTrainerFromSource(src, cfg)
	if err != nil {
		return nil, err
	}
	return tr.Train()
}

// canonicalModel is the byte stream TestGoldenModelHashes hashes: the loss,
// the bits of the base score, then each tree's MaxDepth followed by every
// node's Used, Leaf, Feature and the bits of its Value, Gain and Weight. It
// holds every field of the model and nothing of how a model file lays them
// out, so a new file format leaves the recorded hashes alone, and two models
// with equal streams are equal to the last bit.
func canonicalModel(m *core.Model) []byte {
	le := binary.LittleEndian
	b := le.AppendUint64(nil, uint64(m.Loss))
	b = le.AppendUint64(b, math.Float64bits(m.BaseScore))
	flag := func(v bool) byte {
		if v {
			return 1
		}
		return 0
	}
	for _, t := range m.Trees {
		b = le.AppendUint64(b, uint64(t.MaxDepth))
		for _, n := range t.Nodes {
			b = append(b, flag(n.Used), flag(n.Leaf))
			b = le.AppendUint32(b, uint32(n.Feature))
			b = le.AppendUint64(b, math.Float64bits(n.Value))
			b = le.AppendUint64(b, math.Float64bits(n.Gain))
			b = le.AppendUint64(b, math.Float64bits(n.Weight))
		}
	}
	return b
}

// TestGoldenModelHashes trains a small high-dimensional dataset under every
// goldenRuns setting and compares the SHA-256 of each model's canonical
// stream with the one recorded in testdata: a change to the wire, the
// servers or the trainer that claims to leave models alone has to leave
// these hashes alone.
// Regenerate with -update-golden only from a build whose models are known
// to be right.
func TestGoldenModelHashes(t *testing.T) {
	if !fmaFree() {
		t.Skip("hashes were recorded on amd64 below GOAMD64=v3; fused multiply-adds may change the last bits here")
	}
	d := dataset.Generate(dataset.SyntheticConfig{
		NumRows: 300, NumFeatures: 3000, AvgNNZ: 30, NoiseStd: 0.3, Zipf: 1.3, Seed: 97,
	})
	runs := goldenRuns()
	names := make([]string, 0, len(runs))
	for name := range runs {
		names = append(names, name)
	}
	sort.Strings(names)
	got := map[string]string{}
	for _, name := range names {
		run := runs[name]
		declared := *d
		declared.NumFeatures = run.declared
		model, err := trainGolden(t, &declared, run)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(canonicalModel(model))
		got[name] = hex.EncodeToString(sum[:])
	}
	if *updateGolden {
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenFile, sc.Text())
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s records %d models, the test trains %d", goldenFile, len(want), len(got))
	}
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: model SHA-256 %s, recorded %s", name, got[name], want[name])
		}
	}
}
