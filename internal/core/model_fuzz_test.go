package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"

	"dimboost/internal/dataset"
	"dimboost/internal/loss"
	"dimboost/internal/tree"
)

// encodeWire gob-encodes a model file body as Save would.
func encodeWire(t testing.TB, mw modelWire) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(mw); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// savedModel is a small trained model in file form.
func savedModel(t testing.TB) []byte {
	t.Helper()
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 120, NumFeatures: 20, AvgNNZ: 6, Seed: 301})
	cfg := smallConfig()
	cfg.NumTrees = 2
	cfg.MaxDepth = 3
	m, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// malformedModels are files that decode but describe no model; each used to
// panic Load (index out of range, negative shift) or slip through it.
func malformedModels(t testing.TB) map[string][]byte {
	leaf := []tree.Node{{Used: true, Leaf: true}}
	return map[string][]byte{
		"more depths than node arrays": encodeWire(t, modelWire{Version: modelVersion, MaxDepths: []int{1, 1}, Nodes: [][]tree.Node{leaf}}),
		"more node arrays than depths": encodeWire(t, modelWire{Version: modelVersion, MaxDepths: []int{1}, Nodes: [][]tree.Node{leaf, leaf}}),
		"depth zero":                   encodeWire(t, modelWire{Version: modelVersion, MaxDepths: []int{0}, Nodes: [][]tree.Node{nil}}),
		"negative depth":               encodeWire(t, modelWire{Version: modelVersion, MaxDepths: []int{-1}, Nodes: [][]tree.Node{leaf}}),
		"depth past the shift width":   encodeWire(t, modelWire{Version: modelVersion, MaxDepths: []int{64}, Nodes: [][]tree.Node{nil}}),
		"node count short of depth":    encodeWire(t, modelWire{Version: modelVersion, MaxDepths: []int{3}, Nodes: [][]tree.Node{leaf}}),
	}
}

// TestLoadRefusesMalformedModels: a decoded file whose lengths do not fit
// together is ErrInvalidModel, and a file cut short anywhere is an error —
// never a panic, which in dimboost-serve would take /model/reload down.
func TestLoadRefusesMalformedModels(t *testing.T) {
	for name, data := range malformedModels(t) {
		if _, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrInvalidModel) {
			t.Errorf("%s: Load returned %v, want ErrInvalidModel", name, err)
		}
	}
	valid := savedModel(t)
	for cut := 0; cut < len(valid); cut++ {
		if _, err := Load(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("model file cut to %d of %d bytes loaded", cut, len(valid))
		}
	}
	if _, err := Load(bytes.NewReader(valid)); err != nil {
		t.Fatalf("the intact file: %v", err)
	}
}

// TestLoadRefusesUnknownLoss: a model file whose loss names no loss function
// is ErrInvalidModel. Load used to accept it, and Evaluate, or the serving
// tier's hot-swap probe, then panicked in loss.New.
func TestLoadRefusesUnknownLoss(t *testing.T) {
	var mw modelWire
	if err := gob.NewDecoder(bytes.NewReader(savedModel(t))).Decode(&mw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []loss.Kind{-1, 2, 7} {
		mw.Loss = k
		if _, err := Load(bytes.NewReader(encodeWire(t, mw))); !errors.Is(err, ErrInvalidModel) {
			t.Errorf("loss %d: Load returned %v, want ErrInvalidModel", int(k), err)
		}
	}
	mw.Loss = loss.Squared
	if _, err := Load(bytes.NewReader(encodeWire(t, mw))); err != nil {
		t.Fatalf("squared loss: %v", err)
	}
}

// FuzzModelLoad: whatever the bytes, Load returns a model or an error. A
// model it returns is one the rest of the program can use: every tree
// validates, scoring a row stays in bounds, and saving it again loads to the
// same trees.
func FuzzModelLoad(f *testing.F) {
	valid := savedModel(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	for _, data := range malformedModels(f) {
		f.Add(data)
	}
	row := dataset.Instance{Indices: []int32{0, 3, 7}, Values: []float32{1, -2, 0.5}}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, tn := range m.Trees {
			if err := tn.Validate(); err != nil {
				t.Fatalf("Load returned an invalid tree %d: %v", i, err)
			}
		}
		m.Predict(row)
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Load(&buf)
		if err != nil {
			t.Fatalf("a loaded model does not load again after Save: %v", err)
		}
		if len(back.Trees) != len(m.Trees) {
			t.Fatalf("%d trees after a round trip, had %d", len(back.Trees), len(m.Trees))
		}
	})
}
