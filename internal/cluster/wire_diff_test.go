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
// Float64bits-identical to core.Train regardless of Sparse, because the
// sparse encoding carries float64 spans verbatim and elided buckets are
// exact zeros. Leaf weights agree to ≤1e-9 (invariant 6): node gradient
// totals are folded server-side in shard order, so their last ulps differ
// from the local trainer's single pass even on an exact wire. Any nonzero
// Bits/PullBits, or the default float32 wire, breaks value-level identity
// too; the test logs each lossy combination's validation-loss delta and
// bounds it. Within the distributed pipeline itself exact mode is fully
// bit-identical — see TestSparseWireIsInvisible and the determinism tests,
// which compare weights bitwise.
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
		exact, sparse  bool
		// onePhase pulls whole histograms instead of server-side splits, so a
		// derived node's marker rides on the histogram pull.
		onePhase bool
	}
	var combos []combo
	for _, bits := range []uint{0, 8} {
		for _, pullBits := range []uint{0, 8} {
			for _, sparse := range []bool{false, true} {
				combos = append(combos, combo{bits, pullBits, false, sparse, false})
			}
		}
	}
	combos = append(combos, combo{0, 0, true, false, false}, combo{0, 0, true, true, false},
		combo{0, 0, true, false, true}, combo{0, 0, true, true, true}, combo{8, 8, false, true, true})

	maxDelta := 0.0
	for _, c := range combos {
		name := fmt.Sprintf("bits=%d pull=%d exact=%v sparse=%v one-phase=%v", c.bits, c.pullBits, c.exact, c.sparse, c.onePhase)
		cfg := base
		cfg.Bits, cfg.PullBits, cfg.ExactWire, cfg.SparseWire, cfg.DisableTwoPhase = c.bits, c.pullBits, c.exact, c.sparse, c.onePhase
		res, err := Train(train, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.exact {
			// Exact mode must reproduce the single-machine splits to the bit
			// (sameStructure compares Value with ==, weights to 1e-9), with
			// or without sparse payloads.
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

// TestSparseWireIsInvisible: on raw-width wires sparse is a pure size
// optimization — flipping SparseWire must not change the model at all,
// because span values carry the same float32/float64 narrowing as the dense
// form and elided buckets are exact zeros. (Fixed-point widths are excluded
// on purpose: the stochastic rounder draws one random per encoded value, so
// skipping zeros shifts the stream and the quantized models legitimately
// diverge — that regime is covered by the differential bound above.)
func TestSparseWireIsInvisible(t *testing.T) {
	d := testData(t, 500, 83)
	cfg := smallCfg(3, 2)
	dense, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SparseWire = true
	sparse, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !identicalModels(t, dense.Model, sparse.Model) {
		t.Fatal("SparseWire changed the float32-wire model")
	}
}

// TestCompressedSparseDeterministicMultiWorker: the fully compressed
// configuration (8-bit both directions, sparse payloads, several workers)
// must still be run-to-run deterministic — stochastic rounding is seeded per
// worker, servers merge in worker order, and pull responses use the
// deterministic server-side encoder.
func TestCompressedSparseDeterministicMultiWorker(t *testing.T) {
	d := testData(t, 400, 85)
	cfg := smallCfg(3, 2)
	cfg.Bits, cfg.PullBits, cfg.SparseWire = 8, 8, true
	a, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !identicalModels(t, a.Model, b.Model) {
		t.Fatal("compressed sparse training is not deterministic")
	}
}

// TestExactSparseWithoutTwoPhase exercises the pullHistShard encodings: the
// ablation path pulls whole merged shards, so it is where pull-side sparse
// payloads carry the most traffic. Exact + sparse must stay bit-identical to
// exact + dense.
func TestExactSparseWithoutTwoPhase(t *testing.T) {
	d := testData(t, 400, 87)
	cfg := smallCfg(2, 2)
	cfg.ExactWire = true
	cfg.DisableTwoPhase = true
	dense, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SparseWire = true
	sparse, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !identicalModels(t, dense.Model, sparse.Model) {
		t.Fatal("sparse pull shards changed the exact-wire model")
	}
}

// TestPullCompressionReducesTraffic: asking servers to compress their
// responses must shrink total bytes moved relative to push-only compression.
func TestPullCompressionReducesTraffic(t *testing.T) {
	d := testData(t, 500, 89)
	cfg := smallCfg(3, 2)
	cfg.Bits = 8
	cfg.DisableTwoPhase = true // make pull traffic dominant
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

// wireLadderMinRatio is the byte-reduction floor the fully compressed wire
// must clear against the raw float32 encoding on the histogram ops. §6.1
// promises roughly 4× from 8-bit fixed point alone, which is what the
// buckets get. What a deferred push carries besides its buckets does not
// shrink with the width: the touched set (one bit per shard position), the
// presence bitmap (one bit per touched bucket) and the split records. Since
// the bitmap left the empty touched buckets off every rung, those fixed
// costs weigh more and the whole ops measure 3.17× (3.87× before the
// bitmap), with every rung 2.3–2.8× below what it moved without it.
const wireLadderMinRatio = 3.15

// wireLadderMaxBytes caps each rung's histogram-op bytes at what it measures
// with deferred pushes behind presence bitmaps (+1 %). Deferred pushes
// without the bitmap moved 4 488 129, 1 168 429 and 1 158 963; the dense
// wire 13 460 505, 3 387 045 and 2 854 124.
var wireLadderMaxBytes = map[string]int64{"raw": 1_605_000, "fixed8": 516_000, "fixed8+sparse": 506_000}

// wireLadderQualitySlack bounds how far a compressed rung's held-out error
// may stray from the raw-wire run ("equal model quality"). The effective
// bound adds two binomial standard deviations of the test-set error
// estimate, so a 30-row held-out split does not fail on counting noise.
const wireLadderQualitySlack = 0.05

// TestWireLadderBytesAndQuality is the bytes-on-wire gate of §6: the same
// Gender-shaped high-dimensional workload (4000 features, ~107 nonzeros per
// row, a fine candidate grid — wide dense histograms, few touched buckets)
// trains on 3 workers and 2 servers under raw float32, 8-bit fixed point
// both directions, and 8-bit fixed point with sparse payloads. The PS byte
// counters attribute handler payload bytes to the histogram-carrying ops;
// the full rung must cut them ≥ wireLadderMinRatio× against raw, every rung
// must stay under its wireLadderMaxBytes, and every compressed rung within the
// quality slack of the raw run. Deferred vectors carry the pushes on every
// rung, and sparse vectors appear on the wire exactly when SparseWire asks for
// them.
func TestWireLadderBytesAndQuality(t *testing.T) {
	d := dataset.Generate(dataset.SyntheticConfig{
		NumRows: 200, NumFeatures: 4000, AvgNNZ: 107, NoiseStd: 0.3, Zipf: 1.4, Seed: 71,
	})
	train, test := d.Split(0.85)
	base := smallCfg(3, 2)
	base.MaxDepth = 5
	// A finer candidate grid widens the dense histograms without touching
	// the nonzero buckets sparse spans carry — the regime §6.1 targets.
	base.NumCandidates = 20

	// The "op/direction" keys of ps.WireBytes whose payloads carry histogram
	// or split-statistic vectors — the bytes wire compression targets.
	histOps := []string{"push_hist/in", "pull_split/out", "pull_hist_shard/out", "pull_split_results/out"}
	type rung struct {
		name           string
		bits, pullBits uint
		sparse         bool
		histBytes      int64
		sparseBytes    int64
		deferredBytes  int64
		valErr         float64
	}
	rungs := []rung{
		{name: "raw"},
		{name: "fixed8", bits: 8, pullBits: 8},
		{name: "fixed8+sparse", bits: 8, pullBits: 8, sparse: true},
	}
	for i := range rungs {
		r := &rungs[i]
		cfg := base
		cfg.Bits, cfg.PullBits, cfg.SparseWire = r.bits, r.pullBits, r.sparse
		opsBefore, encBefore := ps.WireBytes()
		res, err := Train(train, cfg)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		opsAfter, encAfter := ps.WireBytes()
		for _, k := range histOps {
			r.histBytes += opsAfter[k] - opsBefore[k]
		}
		r.sparseBytes = encAfter["sparse/encode"] - encBefore["sparse/encode"]
		r.deferredBytes = encAfter["deferred/encode"] - encBefore["deferred/encode"]
		_, r.valErr = res.Model.Evaluate(test)
		if r.histBytes <= 0 {
			t.Fatalf("%s moved no histogram bytes", r.name)
		}
	}

	raw, full := rungs[0], rungs[len(rungs)-1]
	slack := wireLadderQualitySlack + 2*math.Sqrt(raw.valErr*(1-raw.valErr)/float64(test.NumRows()))
	for _, r := range rungs {
		t.Logf("%-14s hist bytes %9d (%.2fx vs raw), sparse-encoded %8d, deferred-encoded %8d, held-out error %.4f",
			r.name, r.histBytes, float64(raw.histBytes)/float64(r.histBytes), r.sparseBytes, r.deferredBytes, r.valErr)
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
	if raw.sparseBytes != 0 {
		t.Fatalf("raw rung encoded %d bytes of sparse vectors", raw.sparseBytes)
	}
	if full.sparseBytes == 0 {
		t.Fatal("fully compressed rung encoded no sparse vectors")
	}
}
