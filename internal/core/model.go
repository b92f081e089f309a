package core

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"dimboost/internal/dataset"
	"dimboost/internal/loss"
	"dimboost/internal/predict"
	"dimboost/internal/tree"
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

// modelWire is the serialized form of a Model.
type modelWire struct {
	Version   int
	Loss      loss.Kind
	BaseScore float64
	MaxDepths []int
	Nodes     [][]tree.Node
}

const modelVersion = 1

// Save writes the model in a self-describing binary format.
func (m *Model) Save(w io.Writer) error {
	mw := modelWire{Version: modelVersion, Loss: m.Loss, BaseScore: m.BaseScore}
	for _, t := range m.Trees {
		mw.MaxDepths = append(mw.MaxDepths, t.MaxDepth)
		mw.Nodes = append(mw.Nodes, t.Nodes)
	}
	return gob.NewEncoder(w).Encode(mw)
}

// ErrInvalidModel marks a model file that decodes but does not describe a
// model: a loss no trainer knows, tree and depth lists of different lengths,
// a depth no trainer produces, a tree whose node array does not fit its depth
// or is not a tree.
// A truncated or crafted file is refused with it, never indexed into.
var ErrInvalidModel = errors.New("core: invalid model file")

// Load reads a model written by Save.
func Load(r io.Reader) (*Model, error) {
	var mw modelWire
	if err := gob.NewDecoder(r).Decode(&mw); err != nil {
		return nil, fmt.Errorf("core: decoding model: %w", err)
	}
	if mw.Version != modelVersion {
		return nil, fmt.Errorf("core: unsupported model version %d", mw.Version)
	}
	if !mw.Loss.Valid() {
		return nil, fmt.Errorf("%w: loss %v", ErrInvalidModel, mw.Loss)
	}
	if len(mw.Nodes) != len(mw.MaxDepths) {
		return nil, fmt.Errorf("%w: %d node arrays for %d trees", ErrInvalidModel, len(mw.Nodes), len(mw.MaxDepths))
	}
	m := &Model{Loss: mw.Loss, BaseScore: mw.BaseScore}
	for i, d := range mw.MaxDepths {
		// Config.Validate's range; it also keeps tree.MaxNodes from shifting
		// by a negative or overflowing amount.
		if d < 1 || d > maxTreeDepth {
			return nil, fmt.Errorf("%w: tree %d has MaxDepth %d outside [1,%d]", ErrInvalidModel, i, d, maxTreeDepth)
		}
		t := &tree.Tree{MaxDepth: d, Nodes: mw.Nodes[i]}
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("%w: tree %d: %v", ErrInvalidModel, i, err)
		}
		m.Trees = append(m.Trees, t)
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
