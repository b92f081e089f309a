package core

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"dimboost/internal/dataset"
	"dimboost/internal/loss"
)

// sameStructure compares two models node by node ignoring the float Gain
// field, which differs at the 1e-12 level across float association orders.
func sameStructure(t *testing.T, a, b *Model) bool {
	t.Helper()
	if len(a.Trees) != len(b.Trees) {
		return false
	}
	for ti := range a.Trees {
		if len(a.Trees[ti].Nodes) != len(b.Trees[ti].Nodes) {
			return false
		}
		for ni := range a.Trees[ti].Nodes {
			x, y := a.Trees[ti].Nodes[ni], b.Trees[ti].Nodes[ni]
			if x.Used != y.Used || x.Leaf != y.Leaf || x.Feature != y.Feature || x.Value != y.Value {
				t.Logf("tree %d node %d: %+v vs %+v", ti, ni, x, y)
				return false
			}
			if math.Abs(x.Weight-y.Weight) > 1e-9 {
				t.Logf("tree %d node %d weight: %v vs %v", ti, ni, x.Weight, y.Weight)
				return false
			}
		}
	}
	return true
}

// sameBits reports whether two models agree in every field, floats compared
// by their bits.
func sameBits(t *testing.T, a, b *Model) bool {
	t.Helper()
	if a.Loss != b.Loss || math.Float64bits(a.BaseScore) != math.Float64bits(b.BaseScore) || len(a.Trees) != len(b.Trees) {
		t.Logf("header (%v, %v, %d trees) vs (%v, %v, %d trees)", a.Loss, a.BaseScore, len(a.Trees), b.Loss, b.BaseScore, len(b.Trees))
		return false
	}
	for ti, ta := range a.Trees {
		tb := b.Trees[ti]
		if ta.MaxDepth != tb.MaxDepth || len(ta.Nodes) != len(tb.Nodes) {
			t.Logf("tree %d: depth %d vs %d", ti, ta.MaxDepth, tb.MaxDepth)
			return false
		}
		for ni, x := range ta.Nodes {
			y := tb.Nodes[ni]
			if x.Used != y.Used || x.Leaf != y.Leaf || x.Feature != y.Feature ||
				math.Float64bits(x.Value) != math.Float64bits(y.Value) ||
				math.Float64bits(x.Gain) != math.Float64bits(y.Gain) ||
				math.Float64bits(x.Weight) != math.Float64bits(y.Weight) {
				t.Logf("tree %d node %d: %+v vs %+v", ti, ni, x, y)
				return false
			}
		}
	}
	return true
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.NumTrees = 8
	cfg.MaxDepth = 4
	cfg.NumCandidates = 12
	cfg.Parallelism = 1
	cfg.BatchSize = 0
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.NumTrees = 0 },
		func(c *Config) { c.MaxDepth = 0 },
		func(c *Config) { c.MaxDepth = 30 },
		func(c *Config) { c.NumCandidates = 0 },
		func(c *Config) { c.LearningRate = 0 },
		func(c *Config) { c.LearningRate = 1.5 },
		func(c *Config) { c.Lambda = -1 },
		func(c *Config) { c.Gamma = -0.1 },
		func(c *Config) { c.FeatureSampleRatio = 0 },
		func(c *Config) { c.FeatureSampleRatio = 2 },
		func(c *Config) { c.SketchEps = 1 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d should be invalid", i)
		}
	}
}

// TestConfigValidateRejectsNonFinite: a NaN passes every range comparison
// and an infinity some, so each float field must be refused as not finite —
// a NaN learning rate used to train NaN trees.
func TestConfigValidateRejectsNonFinite(t *testing.T) {
	fields := map[string]func(*Config) *float64{
		"LearningRate":        func(c *Config) *float64 { return &c.LearningRate },
		"Lambda":              func(c *Config) *float64 { return &c.Lambda },
		"Gamma":               func(c *Config) *float64 { return &c.Gamma },
		"MinChildHessian":     func(c *Config) *float64 { return &c.MinChildHessian },
		"FeatureSampleRatio":  func(c *Config) *float64 { return &c.FeatureSampleRatio },
		"InstanceSampleRatio": func(c *Config) *float64 { return &c.InstanceSampleRatio },
		"SketchEps":           func(c *Config) *float64 { return &c.SketchEps },
	}
	for name, field := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			c := DefaultConfig()
			*field(&c) = v
			if err := c.Validate(); err == nil {
				t.Errorf("%s = %v accepted", name, v)
			}
		}
	}
}

// TestConfigValidateRejectsUnknownLoss: a Loss that names no loss function
// is refused by Validate, naming the field, and Train returns that error —
// it used to panic in loss.New inside the first tree.
func TestConfigValidateRejectsUnknownLoss(t *testing.T) {
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 50, NumFeatures: 10, AvgNNZ: 4, Seed: 3})
	for _, k := range []loss.Kind{-1, 2, 7} {
		c := smallConfig()
		c.Loss = k
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "Loss") {
			t.Errorf("Loss %d: Validate returned %v, want an error naming Loss", int(k), err)
		}
		if _, err := Train(d, c); err == nil {
			t.Errorf("Loss %d: Train accepted the config", int(k))
		}
	}
}

func TestTrainReducesLossMonotonically(t *testing.T) {
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 600, NumFeatures: 200, AvgNNZ: 15, Seed: 21, Zipf: 1.2, NoiseStd: 0.2})
	cfg := smallConfig()
	tr, err := NewTrainer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var losses []float64
	tr.OnTree = func(e TreeEvent) { losses = append(losses, e.TrainLoss) }
	model, err := tr.Train()
	if err != nil {
		t.Fatal(err)
	}
	if len(model.Trees) != cfg.NumTrees {
		t.Fatalf("trees = %d, want %d", len(model.Trees), cfg.NumTrees)
	}
	if len(losses) != cfg.NumTrees {
		t.Fatalf("events = %d", len(losses))
	}
	for i := 1; i < len(losses); i++ {
		if losses[i] > losses[i-1]+1e-9 {
			t.Fatalf("train loss increased at tree %d: %v -> %v", i, losses[i-1], losses[i])
		}
	}
	if losses[len(losses)-1] >= math.Ln2 {
		t.Fatalf("final loss %v no better than trivial ln2", losses[len(losses)-1])
	}
	for _, tn := range model.Trees {
		if err := tn.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTrainOverfitsTinyData(t *testing.T) {
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 60, NumFeatures: 30, AvgNNZ: 8, Seed: 5, NoiseStd: 0})
	cfg := smallConfig()
	cfg.NumTrees = 40
	cfg.LearningRate = 0.5
	cfg.MaxDepth = 5
	model, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, errRate := model.Evaluate(d)
	if errRate > 0.05 {
		t.Fatalf("train error %v, expected near-perfect fit", errRate)
	}
}

func TestTrainBeatsChanceOnHeldOut(t *testing.T) {
	train, test := dataset.GenerateTrainTest(dataset.SyntheticConfig{NumRows: 2000, NumFeatures: 300, AvgNNZ: 20, Seed: 33, Zipf: 1.2, NoiseStd: 0.3})
	cfg := smallConfig()
	cfg.NumTrees = 15
	model, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	preds := model.PredictBatch(test)
	errRate := loss.ErrorRate(test.Labels, preds)
	if errRate > 0.45 {
		t.Fatalf("held-out error %v too close to chance", errRate)
	}
	auc, err := loss.AUC(test.Labels, preds)
	if err != nil {
		t.Fatal(err)
	}
	if auc < 0.63 {
		t.Fatalf("held-out AUC %v too low", auc)
	}
}

func TestParallelBuildGivesSameSplits(t *testing.T) {
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 500, NumFeatures: 80, AvgNNZ: 12, Seed: 13, Zipf: 1.3})
	base := smallConfig()
	base.NumTrees = 3
	ref, err := Train(d, base)
	if err != nil {
		t.Fatal(err)
	}
	par := base
	par.Parallelism = 8
	par.BatchSize = 64
	m, err := Train(d, par)
	if err != nil {
		t.Fatal(err)
	}
	// float merge order differs, so compare structure, not bit-exact gains
	if !sameStructure(t, ref, m) {
		t.Fatal("parallel build changed the model structure")
	}
}

func TestFeatureSampling(t *testing.T) {
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 300, NumFeatures: 100, AvgNNZ: 10, Seed: 17, Zipf: 1.2})
	cfg := smallConfig()
	cfg.FeatureSampleRatio = 0.3
	cfg.NumTrees = 5
	tr, err := NewTrainer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	feats := tr.SampleFeatures()
	if len(feats) != 30 {
		t.Fatalf("sampled %d features, want 30", len(feats))
	}
	for i := 1; i < len(feats); i++ {
		if feats[i] <= feats[i-1] {
			t.Fatal("sampled features not sorted/unique")
		}
	}
	// a second draw differs (new rng state)
	feats2 := tr.SampleFeatures()
	if reflect.DeepEqual(feats, feats2) {
		t.Fatal("consecutive samples identical; rng not advancing")
	}
	model, err := tr.Train()
	if err != nil {
		t.Fatal(err)
	}
	if len(model.Trees) != 5 {
		t.Fatal("training with sampling failed")
	}
}

func TestRegressionTraining(t *testing.T) {
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 800, NumFeatures: 100, AvgNNZ: 12, Seed: 19, Regression: true, NoiseStd: 0.1, Zipf: 1.2})
	train, test := d.Split(0.9)
	cfg := smallConfig()
	cfg.Loss = loss.Squared
	cfg.NumTrees = 20
	model, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseRMSE := loss.RMSE(test.Labels, make([]float64, test.NumRows()))
	gotRMSE := loss.RMSE(test.Labels, model.PredictBatch(test))
	if gotRMSE >= baseRMSE {
		t.Fatalf("RMSE %v not better than predict-zero %v", gotRMSE, baseRMSE)
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 200, NumFeatures: 50, AvgNNZ: 8, Seed: 23})
	cfg := smallConfig()
	cfg.NumTrees = 3
	model, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(t, model, back) {
		t.Fatal("round trip changed the model")
	}
	for i := 0; i < d.NumRows(); i++ {
		in := d.Row(i)
		if model.Predict(in) != back.Predict(in) {
			t.Fatalf("prediction differs for row %d", i)
		}
	}
}

func TestModelLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestModelFileRoundTrip(t *testing.T) {
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 100, NumFeatures: 20, AvgNNZ: 5, Seed: 29})
	cfg := smallConfig()
	cfg.NumTrees = 2
	model, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/model.bin"
	if err := model.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(t, model, back) {
		t.Fatal("file round trip changed the model")
	}
	if _, err := LoadFile(path + ".missing"); err == nil {
		t.Fatal("expected missing-file error")
	}
}

func TestPredictProbRange(t *testing.T) {
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 150, NumFeatures: 40, AvgNNZ: 6, Seed: 31})
	model, err := Train(d, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.NumRows(); i++ {
		p := model.PredictProb(d.Row(i))
		if p < 0 || p > 1 {
			t.Fatalf("probability %v outside [0,1]", p)
		}
	}
}

func TestPhaseTimesAccumulate(t *testing.T) {
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 300, NumFeatures: 50, AvgNNZ: 8, Seed: 37})
	tr, err := NewTrainer(d, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Train(); err != nil {
		t.Fatal(err)
	}
	pt := tr.Times
	if pt.Sketch <= 0 || pt.Gradients <= 0 || pt.BuildHist <= 0 || pt.FindSplit <= 0 {
		t.Fatalf("phase times not accumulated: %+v", pt)
	}
	if pt.Total() < pt.BuildHist {
		t.Fatal("Total less than a component")
	}
}

func TestDeterministicTraining(t *testing.T) {
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 250, NumFeatures: 60, AvgNNZ: 9, Seed: 41, Zipf: 1.2})
	cfg := smallConfig()
	cfg.NumTrees = 3
	a, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Trees, b.Trees) {
		t.Fatal("training is not deterministic for a fixed seed")
	}
}

func TestTrainDepthOneIsStump(t *testing.T) {
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 100, NumFeatures: 20, AvgNNZ: 5, Seed: 43})
	cfg := smallConfig()
	cfg.MaxDepth = 1
	cfg.NumTrees = 2
	model, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range model.Trees {
		if len(tn.Nodes) != 1 || !tn.Nodes[0].Leaf {
			t.Fatal("depth-1 tree must be a single leaf")
		}
	}
}

// TestLocalTrainingIndependentOfDeclaredDimension: at σ = 1 a local model is
// a function of the rows, not of the declared dimension. The same rows
// declared at M and at 20·M features train bit-identical models over layouts
// of the same buckets: a feature no row has gets none.
func TestLocalTrainingIndependentOfDeclaredDimension(t *testing.T) {
	const m = 2000
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 400, NumFeatures: m, AvgNNZ: 20, NoiseStd: 0.3, Zipf: 1.3, Seed: 41})
	cfg := smallConfig()
	cfg.NumTrees = 4
	train := func(declared int) (*Model, int) {
		wide := *d
		wide.NumFeatures = declared
		tr, err := NewTrainer(&wide, cfg)
		if err != nil {
			t.Fatal(err)
		}
		buckets := -1
		tr.OnTree = func(TreeEvent) {
			if b := tr.Layout().TotalBuckets; buckets >= 0 && b != buckets {
				t.Fatalf("M=%d: %d buckets in one tree's layout, %d in another's", declared, buckets, b)
			}
			buckets = tr.Layout().TotalBuckets
		}
		model, err := tr.Train()
		if err != nil {
			t.Fatal(err)
		}
		return model, buckets
	}
	narrow, narrowBuckets := train(m)
	wide, wideBuckets := train(20 * m)
	if !sameBits(t, narrow, wide) {
		t.Fatalf("the rows declared at %d and at %d features train different models", m, 20*m)
	}
	if narrowBuckets != wideBuckets {
		t.Fatalf("layouts of %d buckets at %d features, %d at %d: absent features hold buckets", narrowBuckets, m, wideBuckets, 20*m)
	}
}
