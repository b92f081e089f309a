package core

import (
	"bytes"
	"sync"
	"testing"

	"dimboost/internal/dataset"
)

var (
	benchEnsembleOnce sync.Once
	benchEnsemble     *Model
)

// bigEnsemble is 4 096 trees shaped like the serving benchmark's model:
// 24 depth-6 trees trained on a sparse 33 000-feature dataset (Zipf 1.4,
// 107 nonzeros a row), repeated until the ensemble holds 4 096 trees.
func bigEnsemble(b *testing.B) *Model {
	benchEnsembleOnce.Do(func() {
		d := dataset.Generate(dataset.SyntheticConfig{NumRows: 2000, NumFeatures: 33_000, AvgNNZ: 107, Zipf: 1.4, NoiseStd: 0.3, Seed: 41})
		cfg := DefaultConfig()
		cfg.NumTrees, cfg.MaxDepth, cfg.Parallelism = 24, 6, 2
		m, err := Train(d, cfg)
		if err != nil {
			b.Fatal(err)
		}
		trained := m.Trees
		m.Trees = nil
		for len(m.Trees) < 4096 {
			m.Trees = append(m.Trees, trained[len(m.Trees)%len(trained)])
		}
		benchEnsemble = m
	})
	if benchEnsemble == nil {
		b.Fatal("ensemble not built")
	}
	return benchEnsemble
}

// BenchmarkModelSave writes the 4 096-tree ensemble to memory; file-bytes is
// the size of the model file.
func BenchmarkModelSave(b *testing.B) {
	m := bigEnsemble(b)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := m.Save(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "file-bytes")
}

// BenchmarkModelLoad reads the 4 096-tree ensemble's model file back.
func BenchmarkModelLoad(b *testing.B) {
	var buf bytes.Buffer
	if err := bigEnsemble(b).Save(&buf); err != nil {
		b.Fatal(err)
	}
	file := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(bytes.NewReader(file)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(file)), "file-bytes")
}
