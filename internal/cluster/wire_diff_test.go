package cluster

import (
	"fmt"
	"math"
	"testing"

	"dimboost/internal/core"
	"dimboost/internal/dataset"
	"dimboost/internal/ps"
)

// identicalModels is the strict comparator of the wire differential test:
// everything prediction affects — structure, split values, leaf weights —
// must agree to the bit. The looser sameStructure tolerates sub-1e-9 weight
// noise; determinism claims ("Float64bits-identical to single-machine") need
// the real thing. Gain is deliberately excluded: it is diagnostic metadata
// whose summation order differs between the server-side two-phase fold and
// the local trainer's single pass, so its last ulp is not stable across
// pipelines.
func identicalModels(t *testing.T, a, b *core.Model) bool {
	t.Helper()
	if len(a.Trees) != len(b.Trees) {
		t.Logf("tree counts %d vs %d", len(a.Trees), len(b.Trees))
		return false
	}
	for ti := range a.Trees {
		for ni := range a.Trees[ti].Nodes {
			x, y := a.Trees[ti].Nodes[ni], b.Trees[ti].Nodes[ni]
			if x.Used != y.Used || x.Leaf != y.Leaf || x.Feature != y.Feature ||
				math.Float64bits(x.Value) != math.Float64bits(y.Value) ||
				math.Float64bits(x.Weight) != math.Float64bits(y.Weight) {
				t.Logf("tree %d node %d: %+v vs %+v", ti, ni, x, y)
				return false
			}
		}
	}
	return true
}

// TestWireDifferential trains the same tiny workload under every wire
// encoding combination and diffs each against the single-machine trainer.
//
// The determinism boundary it pins down (also recorded in DESIGN.md §14):
// ExactWire keeps every split decision — structure, features, cut values —
// Float64bits-identical to core.Train, because deferred pushes carry float64
// values verbatim and their untouched buckets are exact zeros plus the exact
// mass. Leaf weights agree to ≤1e-9 (invariant 6): node gradient totals are
// folded server-side in shard order, so their last ulps differ from the local
// trainer's single pass even on an exact wire. Any nonzero Bits/PullBits, or
// the default float32 wire, breaks value-level identity too; the test logs
// each lossy combination's validation-loss delta and bounds it. Within the
// distributed pipeline itself exact mode is fully bit-identical — see the
// determinism tests, which compare weights bitwise.
func TestWireDifferential(t *testing.T) {
	d := testData(t, 500, 81)
	train, test := d.Split(0.9)
	base := smallCfg(1, 2)
	base.NumTrees = 4

	ref, err := core.Train(train, base.Config)
	if err != nil {
		t.Fatal(err)
	}
	_, refErr := ref.Evaluate(test)

	type combo struct {
		bits, pullBits uint
		exact          bool
	}
	var combos []combo
	for _, bits := range []uint{0, 8} {
		for _, pullBits := range []uint{0, 8} {
			combos = append(combos, combo{bits, pullBits, false})
		}
	}
	combos = append(combos, combo{0, 0, true})

	maxDelta := 0.0
	for _, c := range combos {
		name := fmt.Sprintf("bits=%d pull=%d exact=%v", c.bits, c.pullBits, c.exact)
		cfg := base
		cfg.Bits, cfg.PullBits, cfg.ExactWire = c.bits, c.pullBits, c.exact
		res, err := Train(train, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.exact {
			// Exact mode must reproduce the single-machine splits to the bit
			// (sameStructure compares Value with ==, weights to 1e-9).
			if !sameStructure(t, ref, res.Model) {
				t.Fatalf("%s: model differs from single-machine trainer", name)
			}
			continue
		}
		_, gotErr := res.Model.Evaluate(test)
		delta := math.Abs(gotErr - refErr)
		maxDelta = math.Max(maxDelta, delta)
		t.Logf("%s: validation error %.4f (single-machine %.4f, |Δ| %.4f)", name, gotErr, refErr, delta)
		if delta > 0.08 {
			t.Fatalf("%s: validation error %.4f strays too far from single-machine %.4f", name, gotErr, refErr)
		}
	}
	t.Logf("max |Δ| validation error over lossy combos: %.4f", maxDelta)
}

// TestCompressedDeterministicMultiWorker: the fully compressed configuration
// (8-bit pushes and compact split records, several workers) must still be
// run-to-run deterministic — stochastic rounding is seeded per worker,
// servers merge in worker order, and a split reply depends on the pushes
// alone.
func TestCompressedDeterministicMultiWorker(t *testing.T) {
	d := testData(t, 400, 85)
	cfg := smallCfg(3, 2)
	cfg.Bits, cfg.PullBits = 8, 8
	a, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !identicalModels(t, a.Model, b.Model) {
		t.Fatal("compressed training is not deterministic")
	}
}

// TestPullCompressionReducesTraffic: asking servers for compact split
// records must shrink total bytes moved relative to push-only compression.
func TestPullCompressionReducesTraffic(t *testing.T) {
	d := testData(t, 500, 89)
	cfg := smallCfg(3, 2)
	cfg.Bits = 8
	pushOnly, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.PullBits = 8
	both, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if both.Stats.TotalBytes >= pushOnly.Stats.TotalBytes {
		t.Fatalf("pull compression moved %d bytes, push-only %d", both.Stats.TotalBytes, pushOnly.Stats.TotalBytes)
	}
}

// wireLadderMinRatio is the byte-reduction floor the compressed wire must
// clear against the raw float32 encoding on the histogram ops. §6.1 promises
// roughly 4× from 8-bit fixed point alone, which is what the buckets get.
// What a deferred push carries besides its buckets does not shrink with the
// width: the touched set (a bitmap of one bit per shard position, or the gap
// list of the touched positions when that is smaller), the presence bitmap
// (one bit per touched bucket) and the split records. So the whole ops
// measure about 3.2×.
const wireLadderMinRatio = 3.15

// wireLadderMaxBytes caps each rung's histogram-op bytes. Deferred pushes
// without the presence bitmap moved 4 488 129 and 1 168 429, the dense wire
// 13 460 505 and 3 387 045.
var wireLadderMaxBytes = map[string]int64{"raw": 1_605_000, "fixed8": 516_000}

// wireLadderQualitySlack bounds how far a compressed rung's held-out error
// may stray from the raw-wire run ("equal model quality"). The effective
// bound adds two binomial standard deviations of the test-set error
// estimate, so a 30-row held-out split does not fail on counting noise.
const wireLadderQualitySlack = 0.05

// TestWireLadderBytesAndQuality is the bytes-on-wire gate of §6: the same
// Gender-shaped high-dimensional workload (4000 features, ~107 nonzeros per
// row, a fine candidate grid — wide dense histograms, few touched buckets)
// trains on 3 workers and 2 servers under raw float32 and 8-bit fixed point
// both directions. The PS byte counters attribute handler payload bytes to
// the histogram-carrying ops; the fixed8 rung must cut them ≥
// wireLadderMinRatio× against raw, every rung must stay under its
// wireLadderMaxBytes, and the fixed8 rung within the quality slack of the raw
// run. Deferred vectors carry the pushes on every rung.
func TestWireLadderBytesAndQuality(t *testing.T) {
	d := dataset.Generate(dataset.SyntheticConfig{
		NumRows: 200, NumFeatures: 4000, AvgNNZ: 107, NoiseStd: 0.3, Zipf: 1.4, Seed: 71,
	})
	train, test := d.Split(0.85)
	base := smallCfg(3, 2)
	base.MaxDepth = 5
	// A finer candidate grid widens the dense histograms without touching
	// more buckets — the regime §6.1 targets.
	base.NumCandidates = 20

	// The "op/direction" keys of ps.WireBytes whose payloads carry histogram
	// or split-statistic vectors — the bytes wire compression targets.
	histOps := []string{"push_hist/in", "pull_split/out", "pull_split_results/out"}
	type rung struct {
		name           string
		bits, pullBits uint
		histBytes      int64
		deferredBytes  int64
		valErr         float64
	}
	rungs := []rung{
		{name: "raw"},
		{name: "fixed8", bits: 8, pullBits: 8},
	}
	for i := range rungs {
		r := &rungs[i]
		cfg := base
		cfg.Bits, cfg.PullBits = r.bits, r.pullBits
		opsBefore, encBefore := ps.WireBytes()
		res, err := Train(train, cfg)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		opsAfter, encAfter := ps.WireBytes()
		for _, k := range histOps {
			r.histBytes += opsAfter[k] - opsBefore[k]
		}
		r.deferredBytes = encAfter["deferred/encode"] - encBefore["deferred/encode"]
		_, r.valErr = res.Model.Evaluate(test)
		if r.histBytes <= 0 {
			t.Fatalf("%s moved no histogram bytes", r.name)
		}
	}

	raw, full := rungs[0], rungs[len(rungs)-1]
	slack := wireLadderQualitySlack + 2*math.Sqrt(raw.valErr*(1-raw.valErr)/float64(test.NumRows()))
	for _, r := range rungs {
		t.Logf("%-7s hist bytes %9d (%.2fx vs raw), deferred-encoded %8d, held-out error %.4f",
			r.name, r.histBytes, float64(raw.histBytes)/float64(r.histBytes), r.deferredBytes, r.valErr)
		if delta := math.Abs(r.valErr - raw.valErr); delta > slack {
			t.Fatalf("%s: held-out error %.4f strays %.4f from raw %.4f (slack %.3f)",
				r.name, r.valErr, delta, raw.valErr, slack)
		}
		if limit := wireLadderMaxBytes[r.name]; r.histBytes > limit {
			t.Fatalf("%s moved %d histogram bytes, more than its %d", r.name, r.histBytes, limit)
		}
		if r.deferredBytes == 0 {
			t.Fatalf("%s pushed no deferred vectors", r.name)
		}
	}
	if ratio := float64(raw.histBytes) / float64(full.histBytes); ratio < wireLadderMinRatio {
		t.Fatalf("%s cut histogram bytes only %.2fx vs raw (%d vs %d), need >= %.2fx",
			full.name, ratio, full.histBytes, raw.histBytes, wireLadderMinRatio)
	}
}
