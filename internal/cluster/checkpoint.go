package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"dimboost/internal/core"
	"dimboost/internal/loss"
	"dimboost/internal/wire"
)

// Checkpoint is the state needed to resume a killed distributed run at tree
// k instead of tree 0: the trees boosted so far plus a fingerprint of the
// hyper-parameters that shaped them. Worker-local state (shard predictions,
// the feature-sampling RNG) is deliberately not stored — it is recomputed
// deterministically from the model on resume, which keeps checkpoints small
// and lets the worker count change between the original run and the resume.
type Checkpoint struct {
	// TreesDone is how many trees the model contains; boosting resumes at
	// tree TreesDone.
	TreesDone int
	// Model holds the finished trees.
	Model *core.Model
	// Events are the per-tree convergence events recorded so far.
	Events []core.TreeEvent
	// Fingerprint pins the hyper-parameters a resume must match.
	Fingerprint Fingerprint
}

// Fingerprint is the subset of Config that determines the boosting
// trajectory. NumWorkers and NumServers are excluded on purpose: resuming on
// a different topology is valid (predictions are recomputed per shard and
// feature sampling is seeded globally).
type Fingerprint struct {
	Seed               int64
	Loss               loss.Kind
	NumTrees           int
	MaxDepth           int
	NumCandidates      int
	FeatureSampleRatio float64
	LearningRate       float64
	Lambda             float64
	Gamma              float64
	MinChildHessian    float64
	SketchEps          float64
	Bits               uint
	PullBits           uint
	ExactWire          bool
}

// fingerprintOf derives the fingerprint of a config.
func fingerprintOf(cfg Config) Fingerprint {
	return Fingerprint{
		Seed:               cfg.Seed,
		Loss:               cfg.Loss,
		NumTrees:           cfg.NumTrees,
		MaxDepth:           cfg.MaxDepth,
		NumCandidates:      cfg.NumCandidates,
		FeatureSampleRatio: cfg.FeatureSampleRatio,
		LearningRate:       cfg.LearningRate,
		Lambda:             cfg.Lambda,
		Gamma:              cfg.Gamma,
		MinChildHessian:    cfg.MinChildHessian,
		SketchEps:          cfg.SketchEps,
		Bits:               cfg.Bits,
		PullBits:           cfg.PullBits,
		ExactWire:          cfg.ExactWire,
	}
}

// CheckpointSink receives the encoded checkpoint after every finished tree.
// Save must be durable when it returns: the driver treats a sink error as
// fatal rather than silently training on without checkpoint coverage.
type CheckpointSink interface {
	Save(treesDone int, data []byte) error
}

// checkpoint wire format
const (
	checkpointMagic = "DBCK"
	// Version 2 added the PullBits and sparse-wire fingerprint fields, version
	// 3 the LearningRate, Lambda, Gamma, MinChildHessian and SketchEps ones;
	// version 4 dropped the sparse-wire flag with the sparse vector form;
	// version 5 holds the model as one block in core's model file format.
	checkpointVersion = 5

	// eventWireBytes is the size of an event: DecodeCheckpoint refuses an
	// event count the rest of the file cannot hold before allocating for it.
	eventWireBytes = 20
)

// Encode serializes the checkpoint with the internal/wire codec.
func (c *Checkpoint) Encode() []byte {
	w := wire.NewWriter(4096)
	w.Raw([]byte(checkpointMagic))
	w.Uint32(checkpointVersion)
	fp := c.Fingerprint
	w.Int64(fp.Seed)
	w.Int32(int32(fp.Loss))
	w.Uint32(uint32(fp.NumTrees))
	w.Uint32(uint32(fp.MaxDepth))
	w.Uint32(uint32(fp.NumCandidates))
	w.Float64(fp.FeatureSampleRatio)
	w.Float64(fp.LearningRate)
	w.Float64(fp.Lambda)
	w.Float64(fp.Gamma)
	w.Float64(fp.MinChildHessian)
	w.Float64(fp.SketchEps)
	w.Uint32(uint32(fp.Bits))
	w.Uint32(uint32(fp.PullBits))
	w.Bool(fp.ExactWire)
	w.Uint32(uint32(c.TreesDone))
	var model bytes.Buffer
	c.Model.Save(&model) // a bytes.Buffer takes every write
	w.Bytes32(model.Bytes())
	w.Uint32(uint32(len(c.Events)))
	for _, e := range c.Events {
		w.Uint32(uint32(e.Tree))
		w.Float64(e.TrainLoss)
		w.Int64(int64(e.Elapsed))
	}
	return w.Bytes()
}

// DecodeCheckpoint parses a checkpoint written by Encode; core.Load decodes
// and validates its model. It accepts only Encode's own bytes: a flag other
// than 0 or 1, a count the file cannot hold or trailing bytes are refused.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	r := wire.NewReader(data)
	if len(data) < 8 || string(data[:4]) != checkpointMagic {
		return nil, fmt.Errorf("cluster: not a checkpoint (bad magic)")
	}
	r.Skip(4)
	if v := r.Uint32(); v != checkpointVersion {
		return nil, fmt.Errorf("cluster: unsupported checkpoint version %d", v)
	}
	var c Checkpoint
	c.Fingerprint.Seed = r.Int64()
	c.Fingerprint.Loss = loss.Kind(r.Int32())
	c.Fingerprint.NumTrees = int(r.Uint32())
	c.Fingerprint.MaxDepth = int(r.Uint32())
	c.Fingerprint.NumCandidates = int(r.Uint32())
	c.Fingerprint.FeatureSampleRatio = r.Float64()
	c.Fingerprint.LearningRate = r.Float64()
	c.Fingerprint.Lambda = r.Float64()
	c.Fingerprint.Gamma = r.Float64()
	c.Fingerprint.MinChildHessian = r.Float64()
	c.Fingerprint.SketchEps = r.Float64()
	c.Fingerprint.Bits = uint(r.Uint32())
	c.Fingerprint.PullBits = uint(r.Uint32())
	exactWire := r.Uint8()
	c.Fingerprint.ExactWire = exactWire == 1
	c.TreesDone = int(r.Uint32())
	model := r.Bytes32()
	if r.Err() != nil {
		return nil, fmt.Errorf("cluster: decoding checkpoint: %w", r.Err())
	}
	// A model with an unknown loss panics when it is evaluated; core.Load
	// refuses one in the model the same way.
	if !c.Fingerprint.Loss.Valid() {
		return nil, fmt.Errorf("cluster: checkpoint Fingerprint.Loss is unknown loss %v", c.Fingerprint.Loss)
	}
	var err error
	if c.Model, err = core.Load(bytes.NewReader(model)); err != nil {
		return nil, fmt.Errorf("cluster: checkpoint model: %w", err)
	}
	if c.Model.Loss != c.Fingerprint.Loss {
		return nil, fmt.Errorf("cluster: checkpoint Model.Loss %v differs from Fingerprint.Loss %v", c.Model.Loss, c.Fingerprint.Loss)
	}
	numEvents := int(r.Uint32())
	if r.Err() != nil {
		return nil, fmt.Errorf("cluster: decoding checkpoint: %w", r.Err())
	}
	if numEvents > r.Remaining()/eventWireBytes {
		return nil, fmt.Errorf("cluster: checkpoint declares %d events in %d bytes", numEvents, r.Remaining())
	}
	for i := 0; i < numEvents && r.Err() == nil; i++ {
		c.Events = append(c.Events, core.TreeEvent{
			Tree:      int(r.Uint32()),
			TrainLoss: r.Float64(),
			Elapsed:   time.Duration(r.Int64()),
		})
	}
	switch {
	case r.Err() != nil:
		return nil, fmt.Errorf("cluster: decoding checkpoint: %w", r.Err())
	case r.Remaining() != 0:
		return nil, fmt.Errorf("cluster: %d trailing bytes after the checkpoint", r.Remaining())
	case exactWire > 1:
		return nil, fmt.Errorf("cluster: checkpoint flag byte is neither 0 nor 1")
	}
	if c.TreesDone != len(c.Model.Trees) {
		return nil, fmt.Errorf("cluster: checkpoint claims %d trees, holds %d", c.TreesDone, len(c.Model.Trees))
	}
	return &c, nil
}

// validateResume checks a resume point against the run's config.
func validateResume(c *Checkpoint, cfg Config) error {
	if c.Model == nil || c.TreesDone != len(c.Model.Trees) {
		return fmt.Errorf("cluster: malformed resume checkpoint")
	}
	if c.TreesDone > cfg.NumTrees {
		return fmt.Errorf("cluster: checkpoint has %d trees, config wants only %d", c.TreesDone, cfg.NumTrees)
	}
	if got, want := c.Fingerprint, fingerprintOf(cfg); got != want {
		return fmt.Errorf("cluster: checkpoint fingerprint %+v does not match config %+v", got, want)
	}
	return nil
}

// checkpointFile is the single rotating checkpoint a DirSink maintains.
const checkpointFile = "checkpoint.dimbck"

// DirSink persists checkpoints into a directory, atomically replacing one
// rotating file (write to a temp name, fsync, rename) so a crash mid-save
// leaves the previous checkpoint intact.
type DirSink struct {
	Dir string
}

// NewDirSink creates the directory (if needed) and returns a sink over it.
func NewDirSink(dir string) (*DirSink, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: checkpoint dir: %w", err)
	}
	return &DirSink{Dir: dir}, nil
}

// Save implements CheckpointSink.
func (s *DirSink) Save(treesDone int, data []byte) error {
	tmp, err := os.CreateTemp(s.Dir, checkpointFile+".tmp-*")
	if err != nil {
		return fmt.Errorf("cluster: checkpoint save: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("cluster: checkpoint save: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("cluster: checkpoint save: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("cluster: checkpoint save: %w", err)
	}
	if err := os.Rename(name, filepath.Join(s.Dir, checkpointFile)); err != nil {
		os.Remove(name)
		return fmt.Errorf("cluster: checkpoint save: %w", err)
	}
	return nil
}

// LoadCheckpoint reads the latest checkpoint from a DirSink directory.
// Returns (nil, nil) if no checkpoint exists yet — a fresh start.
func LoadCheckpoint(dir string) (*Checkpoint, error) {
	data, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: loading checkpoint: %w", err)
	}
	return DecodeCheckpoint(data)
}
