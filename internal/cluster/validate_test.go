package cluster

import (
	"errors"
	"math"
	"strings"
	"testing"

	"dimboost/internal/ooc"
)

// TestValidateRejectsFieldsTheClusterIgnores: every embedded core.Config
// field that only the single-process trainer implements is a typed error
// naming the field, from Validate and from Train alike, never a silently
// different model.
func TestValidateRejectsFieldsTheClusterIgnores(t *testing.T) {
	for _, c := range []struct {
		field string
		set   func(*Config)
	}{
		{"InstanceSampleRatio", func(c *Config) { c.InstanceSampleRatio = 0.5 }},
		{"WeightedCandidates", func(c *Config) { c.WeightedCandidates = true }},
		{"EarlyStoppingRounds", func(c *Config) { c.EarlyStoppingRounds = 3 }},
		{"MemoryBudget", func(c *Config) { c.MemoryBudget = 64 * ooc.MiB }},
	} {
		cfg := smallCfg(2, 2)
		c.set(&cfg)
		var unsupported *UnsupportedFieldError
		if err := cfg.Validate(); !errors.As(err, &unsupported) || unsupported.Field != c.field {
			t.Errorf("%s: Validate returned %v, want an UnsupportedFieldError naming it", c.field, err)
		}
		if _, err := Train(testData(t, 60, 5), cfg); !errors.As(err, &unsupported) {
			t.Errorf("%s: Train returned %v, want the validation error", c.field, err)
		}
	}
	// The fields the workers do read stay accepted.
	cfg := smallCfg(2, 2)
	cfg.FeatureSampleRatio = 0.5
	if err := cfg.Validate(); err != nil {
		t.Errorf("supported fields rejected: %v", err)
	}
}

// TestTrainRejectsNonFiniteHyperParameters: the distributed entry point
// refuses a non-finite float hyper-parameter before any worker starts, as
// core.Config.Validate does for the single-process trainer.
func TestTrainRejectsNonFiniteHyperParameters(t *testing.T) {
	d := testData(t, 60, 5)
	for name, set := range map[string]func(*Config){
		"LearningRate":       func(c *Config) { c.LearningRate = math.NaN() },
		"Lambda":             func(c *Config) { c.Lambda = math.Inf(1) },
		"Gamma":              func(c *Config) { c.Gamma = math.NaN() },
		"MinChildHessian":    func(c *Config) { c.MinChildHessian = math.Inf(-1) },
		"FeatureSampleRatio": func(c *Config) { c.FeatureSampleRatio = math.NaN() },
		"SketchEps":          func(c *Config) { c.SketchEps = math.Inf(1) },
	} {
		cfg := smallCfg(2, 2)
		set(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: Validate returned %v, want an error naming it", name, err)
		}
		if _, err := Train(d, cfg); err == nil {
			t.Errorf("%s: Train accepted a non-finite value", name)
		}
	}
}
