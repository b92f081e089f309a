// Package dimboost is a from-scratch Go implementation of DimBoost
// (SIGMOD'18), a gradient boosting decision tree (GBDT) training system
// designed for high-dimensional sparse data.
//
// The package trains GBDT models on a single machine or across an
// in-process parameter-server cluster, with the paper's optimizations:
// sparsity-aware histogram construction, parallel batch building over a
// node-to-instance index, low-precision (8-bit) gradient histograms, a
// round-robin split-task scheduler, and two-phase split finding.
//
// Quickstart:
//
//	train, test := dimboost.GenerateTrainTest(dimboost.SyntheticConfig{
//		NumRows: 10000, NumFeatures: 10000, AvgNNZ: 50, Seed: 1,
//	})
//	model, err := dimboost.Train(train, dimboost.DefaultConfig())
//	...
//	preds := model.PredictBatch(test)
//	fmt.Println(dimboost.ErrorRate(test.Labels, preds))
package dimboost

import (
	"io"

	"dimboost/internal/cluster"
	"dimboost/internal/core"
	"dimboost/internal/cv"
	"dimboost/internal/dataset"
	"dimboost/internal/loss"
	"dimboost/internal/ooc"
	"dimboost/internal/pca"
	"dimboost/internal/predict"
	"dimboost/internal/serve"
	"dimboost/internal/transport"
	"dimboost/internal/tune"
)

// Config holds the GBDT hyper-parameters (trees, depth, split candidates,
// shrinkage, regularization, sampling, threading). See core.Config for
// field documentation.
type Config = core.Config

// DefaultConfig mirrors the paper's experimental protocol.
func DefaultConfig() Config { return core.DefaultConfig() }

// Model is a trained GBDT ensemble.
type Model = core.Model

// Engine is the compiled inference engine backing Model.PredictBatch. The
// ensemble compiles to one of two backends over a compact feature space —
// the structure-of-arrays root-to-leaf walk, or the QuickScorer-style
// bitvector traversal when every tree fits the 64-leaf mask width — and
// both are bit-identical to the interpreted tree walk. Obtain one with
// Model.Compiled (automatic backend selection) or Model.CompiledBackend
// for allocation-free serving loops.
type Engine = predict.Engine

// EngineBackend selects the Engine's scoring representation; see
// Model.CompiledBackend.
type EngineBackend = predict.Backend

const (
	// BackendAuto picks the bitvector backend when the ensemble is
	// eligible and the SoA walk otherwise.
	BackendAuto = predict.BackendAuto
	// BackendSoA forces the structure-of-arrays root-to-leaf walk.
	BackendSoA = predict.BackendSoA
	// BackendBitvector forces the QuickScorer-style bitvector traversal;
	// compiling fails if any tree exceeds the leaf-mask width.
	BackendBitvector = predict.BackendBitvector
)

// ParseEngineBackend maps a selector string ("auto", "soa", "bitvector") to
// an EngineBackend.
func ParseEngineBackend(s string) (EngineBackend, error) { return predict.ParseBackend(s) }

// Trainer runs single-process training with progress callbacks and phase
// timing.
type Trainer = core.Trainer

// TreeEvent reports per-tree training progress.
type TreeEvent = core.TreeEvent

// NewTrainer validates the configuration and prepares a trainer.
func NewTrainer(d *Dataset, cfg Config) (*Trainer, error) { return core.NewTrainer(d, cfg) }

// Train fits a GBDT model on a single machine using all configured
// parallelism.
func Train(d *Dataset, cfg Config) (*Model, error) { return core.Train(d, cfg) }

// MemoryBudget bounds the resident bytes of out-of-core training; see
// Config.MemoryBudget and TrainOutOfCore.
type MemoryBudget = ooc.Budget

// ParseMemoryBudget parses a human-readable byte size ("512MiB", "2g",
// "65536") into a MemoryBudget; empty and "0" mean unlimited.
func ParseMemoryBudget(s string) (MemoryBudget, error) { return ooc.ParseBudget(s) }

// BudgetError reports a memory budget below the minimum working set of
// out-of-core training; its Min field carries the smallest admissible
// budget for the same dataset and parallelism.
type BudgetError = ooc.BudgetError

// TrainOutOfCore fits a GBDT model from a binary dataset file (see
// WriteBinaryFile) while keeping resident data under cfg.MemoryBudget: the
// dataset streams from disk through a bounded chunk cache and the
// quantized mirror spills to scratch files. The trained model is
// Float64bits-identical to Train on the same data. Budgets below the
// minimum working set fail fast with a *BudgetError.
func TrainOutOfCore(path string, cfg Config) (*Model, error) {
	return core.TrainOutOfCore(path, cfg)
}

// LoadModel reads a model written by Model.Save.
func LoadModel(r io.Reader) (*Model, error) { return core.Load(r) }

// LoadModelFile reads a model from a file.
func LoadModelFile(path string) (*Model, error) { return core.LoadFile(path) }

// ClusterConfig extends Config with cluster topology (workers, parameter
// servers) and the paper's communication options (compression bits,
// two-phase split finding, scheduler).
type ClusterConfig = cluster.Config

// ClusterResult is a distributed run's model plus traffic and timing
// statistics.
type ClusterResult = cluster.Result

// ClusterStats aggregates a distributed run's measurements.
type ClusterStats = cluster.Stats

// DefaultClusterConfig returns the paper's protocol for w workers and p
// parameter servers (8-bit compressed histograms, two-phase split finding,
// round-robin scheduler).
func DefaultClusterConfig(workers, servers int) ClusterConfig {
	return cluster.DefaultConfig(workers, servers)
}

// TrainDistributed trains over an in-process parameter-server cluster:
// p servers, one master, and w workers exchanging messages over a metered
// in-memory transport.
func TrainDistributed(d *Dataset, cfg ClusterConfig) (*ClusterResult, error) {
	return cluster.Train(d, cfg)
}

// Checkpoint is the per-tree training state a distributed run persists,
// enough to resume a killed run at tree k with a bit-identical trajectory.
type Checkpoint = cluster.Checkpoint

// CheckpointSink receives encoded checkpoints after every finished tree.
type CheckpointSink = cluster.CheckpointSink

// DirCheckpointSink persists checkpoints into a directory, atomically
// replacing a single rotating file.
type DirCheckpointSink = cluster.DirSink

// NewDirCheckpointSink creates (if needed) a checkpoint directory and
// returns a sink over it; assign it to ClusterConfig.Checkpoint.
func NewDirCheckpointSink(dir string) (*DirCheckpointSink, error) { return cluster.NewDirSink(dir) }

// LoadCheckpoint reads the latest checkpoint from a sink directory; it
// returns (nil, nil) when no checkpoint exists yet.
func LoadCheckpoint(dir string) (*Checkpoint, error) { return cluster.LoadCheckpoint(dir) }

// RetryPolicy shapes the capped exponential backoff applied to
// worker→server RPCs when assigned to ClusterConfig.Retry.
type RetryPolicy = transport.RetryPolicy

// DefaultRetryPolicy is the cluster runtime's standard worker→server retry
// policy: 5 attempts, 10ms base delay doubling to a 2s cap, 25% jitter.
func DefaultRetryPolicy() RetryPolicy { return transport.DefaultRetryPolicy() }

// Dataset is a sparse (CSR) labeled dataset.
type Dataset = dataset.Dataset

// Instance is one sparse row of a Dataset.
type Instance = dataset.Instance

// Builder incrementally assembles a Dataset.
type Builder = dataset.Builder

// NewBuilder returns a dataset builder for the given dimensionality
// (0 infers it).
func NewBuilder(numFeatures int) *Builder { return dataset.NewBuilder(numFeatures) }

// FromDense converts a dense matrix and labels into a Dataset.
func FromDense(rows [][]float32, labels []float32) (*Dataset, error) {
	return dataset.FromDense(rows, labels)
}

// ReadLibSVM parses LibSVM-format data (1-based feature indices).
func ReadLibSVM(r io.Reader, numFeatures int) (*Dataset, error) {
	return dataset.ReadLibSVM(r, numFeatures)
}

// ReadLibSVMFile reads a LibSVM file.
func ReadLibSVMFile(path string, numFeatures int) (*Dataset, error) {
	return dataset.ReadLibSVMFile(path, numFeatures)
}

// WriteLibSVM writes a dataset in LibSVM format.
func WriteLibSVM(w io.Writer, d *Dataset) error { return dataset.WriteLibSVM(w, d) }

// WriteLibSVMFile writes a LibSVM file.
func WriteLibSVMFile(path string, d *Dataset) error { return dataset.WriteLibSVMFile(path, d) }

// WriteBinary / ReadBinary use the compact binary dataset format, which
// loads far faster than LibSVM text.
func WriteBinaryFile(path string, d *Dataset) error { return dataset.WriteBinaryFile(path, d) }
func ReadBinaryFile(path string) (*Dataset, error)  { return dataset.ReadBinaryFile(path) }
func WriteBinary(w io.Writer, d *Dataset) error     { return dataset.WriteBinary(w, d) }
func ReadBinary(r io.Reader) (*Dataset, error)      { return dataset.ReadBinary(r) }

// ReadBinaryChunks streams a binary dataset file in bounded row chunks for
// out-of-core processing.
func ReadBinaryChunks(path string, chunkRows int, fn func(lo, hi int, chunk *Dataset) error) error {
	return dataset.ReadBinaryChunks(path, chunkRows, fn)
}

// TuneAxis is one hyper-parameter dimension of a tuning grid; TuneCandidate
// one grid point; TuneOutcome its cross-validated score.
type (
	TuneAxis      = tune.Axis
	TuneCandidate = tune.Candidate
	TuneOutcome   = tune.Outcome
)

// TuneGrid expands a cartesian hyper-parameter grid over a base config; see
// tune.LearningRate, tune.MaxDepth, tune.Lambda, tune.NumCandidates,
// tune.FeatureSample for ready-made axes (re-exported below).
func TuneGrid(base Config, axes ...TuneAxis) []TuneCandidate { return tune.Grid(base, axes...) }

// TuneSearch cross-validates every candidate and returns them best-first.
func TuneSearch(d *Dataset, candidates []TuneCandidate, k int, seed int64) ([]TuneOutcome, error) {
	return tune.Search(d, candidates, k, seed)
}

// Ready-made tuning axes.
var (
	AxisLearningRate  = tune.LearningRate
	AxisMaxDepth      = tune.MaxDepth
	AxisLambda        = tune.Lambda
	AxisNumCandidates = tune.NumCandidates
	AxisFeatureSample = tune.FeatureSample
)

// SyntheticConfig describes a synthetic sparse dataset generator.
type SyntheticConfig = dataset.SyntheticConfig

// Generate builds a synthetic dataset from a sparse ground-truth linear
// model.
func Generate(cfg SyntheticConfig) *Dataset { return dataset.Generate(cfg) }

// GenerateTrainTest generates and splits a synthetic dataset 90/10, the
// paper's protocol.
func GenerateTrainTest(cfg SyntheticConfig) (train, test *Dataset) {
	return dataset.GenerateTrainTest(cfg)
}

// RCV1Like / SynthesisLike / GenderLike / Synthesis2Like return generator
// configs shaped like the paper's evaluation datasets (Table 2, App. A.3),
// with caller-chosen row counts.
func RCV1Like(rows int, seed int64) SyntheticConfig      { return dataset.RCV1Like(rows, seed) }
func SynthesisLike(rows int, seed int64) SyntheticConfig { return dataset.SynthesisLike(rows, seed) }
func GenderLike(rows int, seed int64) SyntheticConfig    { return dataset.GenderLike(rows, seed) }
func Synthesis2Like(rows int, seed int64) SyntheticConfig {
	return dataset.Synthesis2Like(rows, seed)
}

// LossKind selects the training objective.
type LossKind = loss.Kind

// Available objectives.
const (
	// Logistic is binary cross-entropy (labels in {0,1}).
	Logistic = loss.Logistic
	// Squared is ½(y−ŷ)² regression loss.
	Squared = loss.Squared
)

// ErrorRate is the binary classification error of raw-score predictions.
func ErrorRate(labels []float32, preds []float64) float64 { return loss.ErrorRate(labels, preds) }

// RMSE is the root mean squared error of raw predictions.
func RMSE(labels []float32, preds []float64) float64 { return loss.RMSE(labels, preds) }

// AUC is the area under the ROC curve for binary labels.
func AUC(labels []float32, preds []float64) (float64, error) { return loss.AUC(labels, preds) }

// LogLoss is the mean logistic loss of raw-score (logit) predictions.
func LogLoss(labels []float32, preds []float64) float64 {
	return loss.MeanLoss(loss.New(loss.Logistic), labels, preds)
}

// CVResult aggregates k-fold cross-validation scores.
type CVResult = cv.Result

// CrossValidate runs k-fold cross-validation of the given configuration.
func CrossValidate(d *Dataset, cfg Config, k int, seed int64) (*CVResult, error) {
	return cv.Run(d, cfg, k, seed)
}

// ModelHandler returns an http.Handler that serves the model for online
// scoring (GET /healthz, GET /model, GET /importance, POST /predict) and
// supports atomic hot swaps via its Swap method.
func ModelHandler(m *Model) *serve.Handler { return serve.New(m) }

// PCAResult is a fitted principal-component model (the paper's Table 6
// dimension-reduction comparison).
type PCAResult = pca.Result

// PCAOptions tune the randomized PCA algorithm.
type PCAOptions = pca.Options

// FitPCA computes the top-k principal components of a sparse dataset.
func FitPCA(d *Dataset, k int, opts PCAOptions) (*PCAResult, error) { return pca.Fit(d, k, opts) }
