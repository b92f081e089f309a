package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"dimboost/internal/dataset"
	"dimboost/internal/loss"
)

// gobModelFile is a model file in the gob format Save wrote before the
// model file had its own layout.
const gobModelFile = "testdata/model_gob_v1.bin"

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

// modelFile lays out a logistic model file by hand: the header with the
// given version and tree count, then the trees' raw bytes.
func modelFile(version, numTrees uint32, trees ...[]byte) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32([]byte(modelMagic), version)
	b = le.AppendUint32(b, uint32(loss.Logistic))
	b = le.AppendUint64(b, math.Float64bits(0.5))
	b = le.AppendUint32(b, numTrees)
	for _, t := range trees {
		b = append(b, t...)
	}
	return b
}

// treeBytes is a tree's depth followed by raw node bytes.
func treeBytes(depth uint32, nodes ...byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, depth), nodes...)
}

// leafNode is a leaf's kind byte and weight.
func leafNode(w float64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{nodeLeaf}, math.Float64bits(w))
}

// withLoss is a copy of a model file with its loss field replaced.
func withLoss(file []byte, k int32) []byte {
	out := append([]byte(nil), file...)
	binary.LittleEndian.PutUint32(out[8:12], uint32(k))
	return out
}

// malformedModels are byte strings that are not model files Save writes.
// Load refuses each with ErrInvalidModel; several used to panic it (index
// out of range, negative shift) or slip through it.
func malformedModels(t testing.TB) map[string][]byte {
	valid := savedModel(t)
	leafTree := treeBytes(1, leafNode(0.25)...)
	// A depth-2 tree whose root is unused but whose children are leaves.
	rootless := treeBytes(2, append(append([]byte{nodeUnused}, leafNode(1)...), leafNode(2)...)...)
	cases := map[string][]byte{
		"bad magic":                   append([]byte("XXXX"), valid[4:]...),
		"bad version":                 modelFile(1, 1, leafTree),
		"next version":                modelFile(modelVersion+1, 1, leafTree),
		"depth 0":                     modelFile(modelVersion, 1, treeBytes(0, leafNode(1)...)),
		"depth 25":                    modelFile(modelVersion, 1, treeBytes(25, leafNode(1)...)),
		"kind byte 3":                 modelFile(modelVersion, 1, treeBytes(1, 3)),
		"short node":                  modelFile(modelVersion, 1, leafTree[:len(leafTree)-1]),
		"trailing byte":               append(append([]byte(nil), valid...), 0),
		"more trees than the file":    modelFile(modelVersion, 2, leafTree),
		"nodes short of the depth":    modelFile(modelVersion, 1, treeBytes(3, leafNode(1)...)),
		"a node array not a tree":     modelFile(modelVersion, 1, rootless),
		"2^32-1 trees":                modelFile(modelVersion, 1<<32-1, leafTree),
		"a depth-24 tree of one node": modelFile(modelVersion, 1, treeBytes(24, leafNode(1)...)),
	}
	for _, k := range []int32{-1, 2, 7} {
		cases[fmt.Sprintf("loss %d", k)] = withLoss(valid, k)
	}
	return cases
}

// TestLoadRefusesMalformedModels: bytes that are not a model file are
// ErrInvalidModel, and so is a model file cut short anywhere — never a
// panic, which in dimboost-serve would take /model/reload down.
func TestLoadRefusesMalformedModels(t *testing.T) {
	for name, data := range malformedModels(t) {
		if _, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrInvalidModel) {
			t.Errorf("%s: Load returned %v, want ErrInvalidModel", name, err)
		}
	}
	valid := savedModel(t)
	for cut := 0; cut < len(valid); cut++ {
		if _, err := Load(bytes.NewReader(valid[:cut])); !errors.Is(err, ErrInvalidModel) {
			t.Fatalf("model file cut to %d of %d bytes: Load returned %v, want ErrInvalidModel", cut, len(valid), err)
		}
	}
	if _, err := Load(bytes.NewReader(valid)); err != nil {
		t.Fatalf("the intact file: %v", err)
	}
	// The cases above are refused for what they break, not for a wrong
	// hand-built layout: one well-formed leaf tree laid out the same way loads.
	if _, err := Load(bytes.NewReader(modelFile(modelVersion, 1, treeBytes(1, leafNode(0.25)...)))); err != nil {
		t.Fatalf("a hand-built one-leaf model file: %v", err)
	}
}

// TestLoadRefusesUnknownLoss: a model file whose loss names no loss function
// is ErrInvalidModel. Load used to accept it, and Evaluate, or the serving
// tier's hot-swap probe, then panicked in loss.New.
func TestLoadRefusesUnknownLoss(t *testing.T) {
	valid := savedModel(t)
	for _, k := range []int32{-1, 2, 7} {
		if _, err := Load(bytes.NewReader(withLoss(valid, k))); !errors.Is(err, ErrInvalidModel) {
			t.Errorf("loss %d: Load returned %v, want ErrInvalidModel", k, err)
		}
	}
	m, err := Load(bytes.NewReader(withLoss(valid, int32(loss.Squared))))
	if err != nil {
		t.Fatalf("squared loss: %v", err)
	}
	if m.Loss != loss.Squared {
		t.Fatalf("loaded loss %v, want squared", m.Loss)
	}
}

// TestLoadRefusesOldFormat: a model file in the gob format of earlier
// builds is refused as not a model file, not misread.
func TestLoadRefusesOldFormat(t *testing.T) {
	_, err := LoadFile(gobModelFile)
	if !errors.Is(err, ErrInvalidModel) || !strings.Contains(err.Error(), "not a model file") {
		t.Fatalf("LoadFile(%s) returned %v, want ErrInvalidModel: not a model file", gobModelFile, err)
	}
}

// TestLoadRefusesCountsItCannotHold: a short file declaring a huge tree
// count or a deep tree is refused from its counts, before anything is
// allocated for them.
func TestLoadRefusesCountsItCannotHold(t *testing.T) {
	leafTree := treeBytes(1, leafNode(0)...)
	for name, data := range map[string][]byte{
		"2^32-1 trees":        modelFile(modelVersion, 1<<32-1, leafTree),
		"2^20 one-node trees": modelFile(modelVersion, 1<<20, leafTree),
		"one depth-24 tree":   modelFile(modelVersion, 1, treeBytes(24, leafNode(0)...)),
		"one depth-20 tree":   modelFile(modelVersion, 1, treeBytes(20, make([]byte, 1<<10)...)),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Load(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrInvalidModel) {
			t.Errorf("%s (%d bytes): Load returned %v, want ErrInvalidModel", name, len(data), err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s (%d bytes): Load allocated %d bytes", name, len(data), grew)
		}
	}
}

// FuzzModelLoad: whatever the bytes, Load returns a model or an error. A
// model it returns is one the rest of the program can use — every tree
// validates and scoring a row stays in bounds — and Save writes it back as
// exactly the bytes it was read from.
func FuzzModelLoad(f *testing.F) {
	valid := savedModel(f)
	for cut := 0; cut <= len(valid); cut += 7 {
		f.Add(valid[:cut])
	}
	f.Add(valid)
	for _, data := range malformedModels(f) {
		f.Add(data)
	}
	old, err := os.ReadFile(gobModelFile)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old)
	row := dataset.Instance{Indices: []int32{0, 3, 7}, Values: []float32{1, -2, 0.5}}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrInvalidModel) {
				t.Fatalf("Load refused %d bytes without ErrInvalidModel: %v", len(data), err)
			}
			return
		}
		for i, tn := range m.Trees {
			if err := tn.Validate(); err != nil {
				t.Fatalf("Load returned an invalid tree %d: %v", i, err)
			}
		}
		m.Predict(row)
		loss.New(m.Loss)
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(data), buf.Len())
		}
	})
}
