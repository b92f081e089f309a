package cluster

import (
	"errors"
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
		{"NoNodeIndex", func(c *Config) { c.NoNodeIndex = true }},
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
	cfg.FeatureSampleRatio, cfg.NoBinning, cfg.DenseBuild = 0.5, true, true
	if err := cfg.Validate(); err != nil {
		t.Errorf("supported fields rejected: %v", err)
	}
}
