package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dimboost/internal/core"
	"dimboost/internal/dataset"
	"dimboost/internal/faultinject"
	"dimboost/internal/loss"
	"dimboost/internal/ps"
	"dimboost/internal/tree"
)

// memSink captures checkpoints in memory.
type memSink struct {
	mu    sync.Mutex
	last  []byte
	saves int
}

func (s *memSink) Save(treesDone int, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.last = append(s.last[:0], data...)
	s.saves++
	return nil
}

func (s *memSink) latest(t *testing.T) *Checkpoint {
	t.Helper()
	s.mu.Lock()
	data := append([]byte(nil), s.last...)
	s.mu.Unlock()
	ck, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// TestCheckpointEncodeDecodeRoundTrip: every field survives the wire codec.
func TestCheckpointEncodeDecodeRoundTrip(t *testing.T) {
	d := testData(t, 300, 91)
	cfg := smallCfg(2, 2)
	cfg.ExactWire = true
	sink := &memSink{}
	cfg.Checkpoint = sink
	res, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sink.saves != cfg.NumTrees {
		t.Fatalf("saved %d checkpoints, want one per tree (%d)", sink.saves, cfg.NumTrees)
	}
	ck := sink.latest(t)
	if ck.TreesDone != cfg.NumTrees {
		t.Fatalf("TreesDone %d, want %d", ck.TreesDone, cfg.NumTrees)
	}
	if !sameStructure(t, res.Model, ck.Model) {
		t.Fatal("decoded model differs from trained model")
	}
	if !reflect.DeepEqual(ck.Events, res.Events) {
		t.Fatalf("events round-trip mismatch: %+v vs %+v", ck.Events, res.Events)
	}
	if ck.Fingerprint != fingerprintOf(cfg) {
		t.Fatalf("fingerprint mismatch: %+v vs %+v", ck.Fingerprint, fingerprintOf(cfg))
	}

	// Corruptions must be rejected, not crash.
	enc := ck.Encode()
	for name, data := range map[string][]byte{
		"empty":     {},
		"bad-magic": append([]byte("XXXX"), enc[4:]...),
		"truncated": enc[:len(enc)/2],
	} {
		if _, err := DecodeCheckpoint(data); err == nil {
			t.Errorf("%s checkpoint decoded without error", name)
		}
	}
}

// TestCheckpointRefusesOtherVersions: a checkpoint stamped with another
// format version — version 2 lacks the LearningRate, Lambda, Gamma,
// MinChildHessian and SketchEps fingerprint fields — is refused by its
// version, never decoded with its fields shifted.
func TestCheckpointRefusesOtherVersions(t *testing.T) {
	cfg := smallCfg(2, 2)
	sink := &memSink{}
	cfg.Checkpoint = sink
	if _, err := Train(testData(t, 200, 97), cfg); err != nil {
		t.Fatal(err)
	}
	enc := sink.latest(t).Encode()
	if v := binary.LittleEndian.Uint32(enc[4:8]); v != checkpointVersion {
		t.Fatalf("version field reads %d, want %d", v, checkpointVersion)
	}
	if _, err := DecodeCheckpoint(enc); err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint32{0, 1, 2, 3, checkpointVersion + 1} {
		stamped := append([]byte(nil), enc...)
		binary.LittleEndian.PutUint32(stamped[4:8], v)
		if _, err := DecodeCheckpoint(stamped); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", v)) {
			t.Errorf("version %d: DecodeCheckpoint returned %v, want it refused by version", v, err)
		}
	}
}

// TestCheckpointResumeAfterKill is the PR's second headline scenario: a
// 10-tree run is killed by a fatal injected fault on the 6th NEW_TREE (so
// exactly 5 trees are checkpointed), then resumed from the checkpoint — and
// the resumed model must be identical, node for node, to a never-killed run
// (ExactWire removes float32 wire noise, so "identical" is exact).
func TestCheckpointResumeAfterKill(t *testing.T) {
	d := testData(t, 400, 95)
	cfg := smallCfg(3, 2)
	cfg.NumTrees = 10
	cfg.ExactWire = true
	cfg.Retry = testRetry()

	// Reference: the same run, never killed.
	clean := cfg
	clean.Retry = nil
	ref, err := Train(d, clean)
	if err != nil {
		t.Fatal(err)
	}

	// Run 1: killed while starting tree 5 (0-based). The leader sends one
	// NEW_TREE per server per tree, so the 6th NEW_TREE seen by server-0
	// belongs to the 6th tree.
	sink := &memSink{}
	cfg.Checkpoint = sink
	_, _, err = faultTrain(t, d, cfg, faultinject.Spec{Rules: []faultinject.Rule{
		{Endpoint: ServerName(0), Op: ps.OpNewTree, After: 5, ErrRate: 1, Fatal: true},
	}})
	if err == nil {
		t.Fatal("expected the injected kill to fail the run")
	}
	ck := sink.latest(t)
	if ck.TreesDone != 5 {
		t.Fatalf("checkpoint holds %d trees, want 5", ck.TreesDone)
	}

	// Run 2: resume from the checkpoint on a fresh, healthy cluster.
	cfg2 := cfg
	cfg2.Checkpoint = &memSink{}
	cfg2.Resume = ck
	res, err := Train(d, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Model.Trees) != cfg.NumTrees {
		t.Fatalf("resumed run has %d trees, want %d", len(res.Model.Trees), cfg.NumTrees)
	}
	if !sameStructure(t, ref.Model, res.Model) {
		t.Fatal("resumed model differs from the never-killed run")
	}
	if len(res.Events) != cfg.NumTrees {
		t.Fatalf("resumed run reports %d events, want %d", len(res.Events), cfg.NumTrees)
	}
}

// TestResumeWithFeatureSampling exercises the RNG fast-forward: with
// FeatureSampleRatio < 1 each tree consumes a seeded random draw, so a
// resume that fails to replay the first k draws picks different features
// and diverges from the reference run.
func TestResumeWithFeatureSampling(t *testing.T) {
	d := testData(t, 400, 97)
	cfg := smallCfg(2, 2)
	cfg.NumTrees = 8
	cfg.ExactWire = true
	cfg.FeatureSampleRatio = 0.5

	ref, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}

	sink := &memSink{}
	killed := cfg
	killed.Checkpoint = sink
	killed.Retry = testRetry()
	_, _, err = faultTrain(t, d, killed, faultinject.Spec{Rules: []faultinject.Rule{
		{Endpoint: ServerName(0), Op: ps.OpNewTree, After: 3, ErrRate: 1, Fatal: true},
	}})
	if err == nil {
		t.Fatal("expected the injected kill to fail the run")
	}
	ck := sink.latest(t)
	if ck.TreesDone != 3 {
		t.Fatalf("checkpoint holds %d trees, want 3", ck.TreesDone)
	}

	resumed := cfg
	resumed.Resume = ck
	res, err := Train(d, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !sameStructure(t, ref.Model, res.Model) {
		t.Fatal("resumed model differs — RNG fast-forward is broken")
	}
}

// TestResumeFingerprintMismatch: resuming under changed hyper-parameters
// must be refused up front, not silently produce a chimera model.
func TestResumeFingerprintMismatch(t *testing.T) {
	d := testData(t, 200, 99)
	cfg := smallCfg(2, 2)
	sink := &memSink{}
	cfg.Checkpoint = sink
	if _, err := Train(d, cfg); err != nil {
		t.Fatal(err)
	}
	ck := sink.latest(t)

	for name, mutate := range map[string]func(*Config){
		"seed":  func(c *Config) { c.Seed++ },
		"depth": func(c *Config) { c.MaxDepth++ },
		"wire":  func(c *Config) { c.Bits = 0; c.ExactWire = true },
		"trees": func(c *Config) { c.NumTrees = ck.TreesDone - 1 },
		"lr":    func(c *Config) { c.LearningRate *= 5 },
		"l2":    func(c *Config) { c.Lambda++ },
		"gamma": func(c *Config) { c.Gamma++ },
		"hess":  func(c *Config) { c.MinChildHessian *= 2 },
		"eps":   func(c *Config) { c.SketchEps = c.ResolvedSketchEps() / 2 },
	} {
		bad := cfg
		bad.Resume = ck
		mutate(&bad)
		if _, err := Train(d, bad); err == nil {
			t.Errorf("%s: mismatched resume accepted", name)
		} else if !strings.Contains(err.Error(), "checkpoint") {
			t.Errorf("%s: error does not mention the checkpoint: %v", name, err)
		}
	}

	// NumWorkers is deliberately NOT in the fingerprint: resuming on a
	// different topology is allowed.
	more := cfg
	more.Resume = ck
	more.Checkpoint = nil
	more.NumWorkers = 3
	more.NumTrees = cfg.NumTrees + 2
	if _, err := Train(d, more); err == nil {
		// NumTrees IS fingerprinted, so this must fail; the pure worker
		// change below must pass.
		t.Error("changed NumTrees accepted")
	}
	workersOnly := cfg
	workersOnly.Resume = ck
	workersOnly.Checkpoint = nil
	workersOnly.NumWorkers = 3
	workersOnly.NumTrees = cfg.NumTrees
	if ck.TreesDone == cfg.NumTrees {
		// Resume at the end: training should complete immediately with the
		// checkpointed trees.
		res, err := Train(d, workersOnly)
		if err != nil {
			t.Fatalf("worker-count change rejected: %v", err)
		}
		if len(res.Model.Trees) != cfg.NumTrees {
			t.Fatalf("got %d trees, want %d", len(res.Model.Trees), cfg.NumTrees)
		}
	}
}

// TestResumeRejectsUncompilableTree: a checkpointed tree the compiled engine
// cannot score fails the resume, with the engine's reason, instead of being
// replayed some other way.
func TestResumeRejectsUncompilableTree(t *testing.T) {
	d := testData(t, 200, 98)
	cfg := smallCfg(2, 2)
	rootless := tree.New(cfg.MaxDepth)
	rootless.Nodes[0].Used = false
	cfg.Resume = &Checkpoint{
		TreesDone:   1,
		Model:       &core.Model{Loss: cfg.Loss, Trees: []*tree.Tree{rootless}},
		Fingerprint: fingerprintOf(cfg),
	}
	_, err := Train(d, cfg)
	if err == nil {
		t.Fatal("resume from a tree without a root succeeded")
	}
	if !strings.Contains(err.Error(), "checkpointed tree 0") || !strings.Contains(err.Error(), "root missing") {
		t.Fatalf("error does not name the tree and the engine's reason: %v", err)
	}
}

// TestDirSink: atomic save, load, and the fresh-start (no checkpoint) case.
func TestDirSink(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	if ck, err := LoadCheckpoint(dir); err != nil || ck != nil {
		t.Fatalf("missing dir should load as (nil, nil), got (%v, %v)", ck, err)
	}
	sink, err := NewDirSink(dir)
	if err != nil {
		t.Fatal(err)
	}

	d := testData(t, 200, 93)
	cfg := smallCfg(2, 1)
	cfg.Checkpoint = sink
	res, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil || ck.TreesDone != cfg.NumTrees {
		t.Fatalf("loaded checkpoint %+v, want %d trees", ck, cfg.NumTrees)
	}
	if !sameStructure(t, res.Model, ck.Model) {
		t.Fatal("loaded model differs from trained model")
	}
	// Only the rotating file remains — no leaked temp files.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != checkpointFile {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("checkpoint dir holds %v, want only %q", names, checkpointFile)
	}
}

// TestDecodeCheckpointRefusesCountsItCannotHold: a short file declaring a
// huge tree or event count is refused from its counts, before anything is
// allocated for them: each case allocated from 537 MB (a depth-24 tree) to
// tens of GB (2^26 events, a depth-31 tree) before failing on the missing
// bytes.
func TestDecodeCheckpointRefusesCountsItCannotHold(t *testing.T) {
	empty := (&Checkpoint{Model: &core.Model{}}).Encode()
	if len(empty) != 113 {
		t.Fatalf("empty checkpoint is %d bytes, want 113", len(empty))
	}
	// withCounts replaces the tree and event counts that end an empty
	// checkpoint by the given uint32 fields.
	withCounts := func(fields ...uint32) []byte {
		b := append([]byte(nil), empty[:len(empty)-8]...)
		for _, v := range fields {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	for name, data := range map[string][]byte{
		"one depth-26 tree":   withCounts(1, 26, 1<<26-1),
		"one depth-24 tree":   withCounts(1, 24, 1<<24-1),
		"one depth-25 tree":   withCounts(1, 25, 1<<25-1),
		"one depth-31 tree":   withCounts(1, 31, 1<<31-1),
		"one depth-0 tree":    withCounts(1, 0, 0),
		"2^26 events":         withCounts(0, 1<<26),
		"2^32-1 events":       withCounts(0, 1<<32-1),
		"2^32-1 trees":        withCounts(1<<32 - 1),
		"2^20 one-node trees": withCounts(1<<20, 1, 1),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeCheckpoint(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s (%d bytes) decoded without error", name, len(data))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s (%d bytes): decoding allocated %d bytes", name, len(data), grew)
		}
	}
}

// TestDecodeCheckpointRefusesUnknownLoss: a checkpoint whose model or
// fingerprint names no loss kind, or whose two losses differ, is refused
// with the field named. Such a model used to decode, and then panicked when
// it was evaluated.
func TestDecodeCheckpointRefusesUnknownLoss(t *testing.T) {
	for _, c := range []struct {
		name             string
		model, finger    loss.Kind
		wantErrSubstring string
	}{
		{"model loss 7", 7, loss.Logistic, "Model.Loss"},
		{"fingerprint loss 9", loss.Logistic, 9, "Fingerprint.Loss"},
		{"both unknown", 7, 9, "Fingerprint.Loss"},
		{"negative model loss", -1, loss.Squared, "Model.Loss"},
		{"losses differ", loss.Squared, loss.Logistic, "differs"},
	} {
		ck := &Checkpoint{Model: &core.Model{Loss: c.model}}
		ck.Fingerprint.Loss = c.finger
		got, err := DecodeCheckpoint(ck.Encode())
		if err == nil {
			t.Errorf("%s: decoded with model loss %v", c.name, got.Model.Loss)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErrSubstring) {
			t.Errorf("%s: error %q does not name %s", c.name, err, c.wantErrSubstring)
		}
	}
	for _, k := range []loss.Kind{loss.Logistic, loss.Squared} {
		ck := &Checkpoint{Model: &core.Model{Loss: k}}
		ck.Fingerprint.Loss = k
		if _, err := DecodeCheckpoint(ck.Encode()); err != nil {
			t.Errorf("loss %v: %v", k, err)
		}
	}
}

// TestCheckpointDepthBoundIsCores: the checkpoint decoder's depth bound is
// the one core enforces on a configuration (and on a model file).
func TestCheckpointDepthBoundIsCores(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.MaxDepth = maxCheckpointDepth
	if err := cfg.Validate(); err != nil {
		t.Fatalf("core refuses depth %d: %v", maxCheckpointDepth, err)
	}
	cfg.MaxDepth++
	if cfg.Validate() == nil {
		t.Fatalf("core accepts depth %d, past the checkpoint bound", cfg.MaxDepth)
	}
}

// checkpointSeeds are the checkpoints TestCheckpointEncodeDecodeRoundTrip's
// run saves, one per tree, an empty one and one with unknown losses.
func checkpointSeeds(tb testing.TB) [][]byte {
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 300, NumFeatures: 120, AvgNNZ: 12, Seed: 91, Zipf: 1.2, NoiseStd: 0.2})
	cfg := smallCfg(2, 2)
	cfg.ExactWire = true
	sink := &allSink{}
	cfg.Checkpoint = sink
	if _, err := Train(d, cfg); err != nil {
		tb.Fatal(err)
	}
	// An unknown model loss, refused: it used to decode and then panic.
	unknown := &Checkpoint{Model: &core.Model{Loss: 7}}
	unknown.Fingerprint.Loss = 9
	return append(sink.saves, (&Checkpoint{Model: &core.Model{}}).Encode(), unknown.Encode())
}

// allSink keeps every checkpoint it is handed.
type allSink struct{ saves [][]byte }

func (s *allSink) Save(_ int, data []byte) error {
	s.saves = append(s.saves, append([]byte(nil), data...))
	return nil
}

// FuzzDecodeCheckpoint: hostile bytes never panic the decoder, every
// checkpoint it accepts re-encodes to exactly its bytes, and its model has a
// loss it can be evaluated with.
func FuzzDecodeCheckpoint(f *testing.F) {
	for _, seed := range checkpointSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		if enc := ck.Encode(); !bytes.Equal(enc, data) {
			t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(data), len(enc))
		}
		loss.New(ck.Model.Loss)
	})
}
