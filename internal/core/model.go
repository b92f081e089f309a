package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"dimboost/internal/dataset"
	"dimboost/internal/loss"
	"dimboost/internal/predict"
	"dimboost/internal/tree"
	"dimboost/internal/wire"
)

// Model is a trained GBDT ensemble: ŷ_i = base + Σ_t f_t(x_i), with
// shrinkage already folded into each tree's leaf weights (Eq. 1).
type Model struct {
	Loss      loss.Kind
	BaseScore float64
	Trees     []*tree.Tree

	// compiled caches the inference engines built from Trees — one slot per
	// backend selector (auto, soa, bitvector) — each keyed on the ensemble
	// snapshot it was compiled from.
	compiled [predict.BackendBitvector + 1]atomic.Pointer[compiledEngine]
}

// compiledEngine pairs an engine with the Trees slice it was built from, so
// the cache invalidates when training code appends or truncates trees.
type compiledEngine struct {
	engine *predict.Engine
	trees  []*tree.Tree
}

// matches reports whether the cached engine still describes the ensemble.
// Trees are never mutated once appended (the trainer grows a tree fully
// before adding it), so slice length plus boundary identity suffices.
func (c *compiledEngine) matches(trees []*tree.Tree) bool {
	if len(c.trees) != len(trees) {
		return false
	}
	return len(trees) == 0 ||
		(c.trees[0] == trees[0] && c.trees[len(trees)-1] == trees[len(trees)-1])
}

// Compiled returns the model's compiled inference engine with automatic
// backend selection, building it on first use and rebuilding if the
// ensemble changed since.
func (m *Model) Compiled() (*predict.Engine, error) {
	return m.CompiledBackend(predict.BackendAuto)
}

// CompiledBackend returns the model's compiled inference engine for a
// specific backend selector. Each selector gets its own cache slot, so a
// serving process can hold, say, the auto-picked engine and a forced-SoA
// reference engine side by side without recompiling on every call.
func (m *Model) CompiledBackend(backend predict.Backend) (*predict.Engine, error) {
	if int(backend) >= len(m.compiled) {
		return nil, fmt.Errorf("core: unknown predict backend %d", backend)
	}
	slot := &m.compiled[backend]
	if c := slot.Load(); c != nil && c.matches(m.Trees) {
		return c.engine, nil
	}
	eng, err := predict.CompileBackend(m.Trees, m.BaseScore, backend)
	if err != nil {
		return nil, err
	}
	// Snapshot by copy: aliasing m.Trees' backing array would let in-place
	// tree replacement mutate the snapshot and defeat the staleness check.
	slot.Store(&compiledEngine{engine: eng, trees: append([]*tree.Tree(nil), m.Trees...)})
	return eng, nil
}

// Predict returns the raw model output for one instance (a logit for
// logistic models, the regression value for squared loss).
func (m *Model) Predict(in dataset.Instance) float64 {
	s := m.BaseScore
	for _, t := range m.Trees {
		s += t.Predict(in)
	}
	return s
}

// PredictProb returns the positive-class probability for logistic models.
func (m *Model) PredictProb(in dataset.Instance) float64 {
	return loss.Sigmoid(m.Predict(in))
}

// PredictBatch scores every row of a dataset through the compiled inference
// engine (bit-identical to the interpreted walk, but without per-node binary
// searches and parallel over rows). The engine is compiled on first use and
// cached on the model.
func (m *Model) PredictBatch(d *dataset.Dataset) []float64 {
	eng, err := m.Compiled()
	if err != nil {
		// A model that fails tree validation cannot come from Train or Load;
		// fall back to the interpreted walk rather than fail scoring.
		return m.PredictBatchInterpreted(d)
	}
	return eng.PredictBatch(d)
}

// PredictBatchInterpreted scores every row with the interpreted per-node
// tree walk — the reference semantics the compiled engine is differentially
// tested against, and the baseline of the serving benchmarks.
func (m *Model) PredictBatchInterpreted(d *dataset.Dataset) []float64 {
	out := make([]float64, d.NumRows())
	for i := range out {
		out[i] = m.Predict(d.Row(i))
	}
	return out
}

// Evaluate computes the mean training loss and, for logistic models, the
// classification error on a dataset.
func (m *Model) Evaluate(d *dataset.Dataset) (meanLoss, errRate float64) {
	preds := m.PredictBatch(d)
	f := loss.New(m.Loss)
	meanLoss = loss.MeanLoss(f, d.Labels, preds)
	if m.Loss == loss.Logistic {
		errRate = loss.ErrorRate(d.Labels, preds)
	} else {
		errRate = loss.RMSE(d.Labels, preds)
	}
	return
}

// The model file, little-endian (internal/wire): the magic, the format
// version, the loss, the base score and the tree count, then for each tree
// its depth and its tree.MaxNodes(depth) nodes. A node is a kind byte
// followed by the fields that kind carries.
const (
	modelMagic   = "DBMD"
	modelVersion = 2

	nodeUnused = 0 // nothing follows
	nodeLeaf   = 1 // Weight follows
	nodeSplit  = 2 // Feature, Value and Gain follow
)

// Save writes the model file. A node keeps only the fields of its kind,
// which are all the fields tree.SetSplit and tree.SetLeaf set, so every
// trained model round-trips to the bit and has exactly one byte form.
func (m *Model) Save(w io.Writer) error {
	size := 24 // the header; a tree adds its depth and at most 21 bytes a node
	for _, t := range m.Trees {
		size += 4 + 21*len(t.Nodes)
	}
	enc := wire.NewWriter(size)
	enc.Raw([]byte(modelMagic))
	enc.Uint32(modelVersion)
	enc.Int32(int32(m.Loss))
	enc.Float64(m.BaseScore)
	enc.Uint32(uint32(len(m.Trees)))
	for _, t := range m.Trees {
		enc.Uint32(uint32(t.MaxDepth))
		for _, n := range t.Nodes {
			switch {
			case !n.Used:
				enc.Uint8(nodeUnused)
			case n.Leaf:
				enc.Uint8(nodeLeaf)
				enc.Float64(n.Weight)
			default:
				enc.Uint8(nodeSplit)
				enc.Int32(n.Feature)
				enc.Float64(n.Value)
				enc.Float64(n.Gain)
			}
		}
	}
	_, err := w.Write(enc.Bytes())
	return err
}

// ErrInvalidModel marks bytes that are not a model file Save writes: another
// magic or version, a count the bytes left cannot hold, a loss no trainer
// knows, a depth no trainer produces, an unknown node kind, a node array
// that is not a tree, or trailing bytes. Load refuses such a file before it
// allocates for its counts or indexes into it.
var ErrInvalidModel = errors.New("core: invalid model file")

// Load reads a model written by Save.
func Load(r io.Reader) (*Model, error) {
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("core: reading model: %w", err)
	}
	data := buf.Bytes()
	if len(data) < 8 || string(data[:4]) != modelMagic {
		return nil, fmt.Errorf("%w: not a model file", ErrInvalidModel)
	}
	dec := wire.NewReader(data[4:])
	if v := dec.Uint32(); v != modelVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrInvalidModel, v)
	}
	m := &Model{Loss: loss.Kind(dec.Int32()), BaseScore: dec.Float64()}
	numTrees := int(dec.Uint32())
	switch {
	case dec.Err() != nil:
		return nil, fmt.Errorf("%w: %v", ErrInvalidModel, dec.Err())
	case !m.Loss.Valid():
		return nil, fmt.Errorf("%w: loss %v", ErrInvalidModel, m.Loss)
	case numTrees > dec.Remaining()/5: // a depth and one node at least
		return nil, fmt.Errorf("%w: %d trees in %d bytes", ErrInvalidModel, numTrees, dec.Remaining())
	}
	m.Trees = make([]*tree.Tree, numTrees)
	for i := range m.Trees {
		depth := int(dec.Uint32())
		switch {
		case dec.Err() != nil:
			return nil, fmt.Errorf("%w: tree %d: %v", ErrInvalidModel, i, dec.Err())
		case depth < 1 || depth > maxTreeDepth: // Config.Validate's range; keeps MaxNodes' shift valid
			return nil, fmt.Errorf("%w: tree %d has depth %d outside [1,%d]", ErrInvalidModel, i, depth, maxTreeDepth)
		case tree.MaxNodes(depth) > dec.Remaining():
			return nil, fmt.Errorf("%w: tree %d of depth %d in %d bytes", ErrInvalidModel, i, depth, dec.Remaining())
		}
		t := &tree.Tree{MaxDepth: depth, Nodes: make([]tree.Node, tree.MaxNodes(depth))}
		for j := range t.Nodes {
			switch kind := dec.Uint8(); kind {
			case nodeUnused:
			case nodeLeaf:
				t.Nodes[j] = tree.Node{Used: true, Leaf: true, Weight: dec.Float64()}
			case nodeSplit:
				t.Nodes[j] = tree.Node{Used: true, Feature: dec.Int32(), Value: dec.Float64(), Gain: dec.Float64()}
			default:
				return nil, fmt.Errorf("%w: tree %d node %d has kind %d", ErrInvalidModel, i, j, kind)
			}
		}
		if dec.Err() != nil {
			return nil, fmt.Errorf("%w: tree %d: %v", ErrInvalidModel, i, dec.Err())
		}
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("%w: tree %d: %v", ErrInvalidModel, i, err)
		}
		m.Trees[i] = t
	}
	if dec.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrInvalidModel, dec.Remaining())
	}
	return m, nil
}

// SaveFile writes the model to a file.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a model from a file.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
