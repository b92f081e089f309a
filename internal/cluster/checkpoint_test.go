package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
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
	if !bytes.Equal(canonicalModel(res.Model), canonicalModel(ck.Model)) {
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
// MinChildHessian and SketchEps fingerprint fields, version 4 lays its trees
// out node by node — is refused by its version, never decoded with its
// fields shifted.
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
	for _, v := range []uint32{0, 1, 2, 3, 4, checkpointVersion + 1} {
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
	if !bytes.Equal(canonicalModel(res.Model), canonicalModel(ck.Model)) {
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
// huge model block, event count, tree count or tree depth is refused from its
// counts, before anything is allocated for them: under the node-by-node
// layout of version 4 these cases allocated from 537 MB (a depth-24 tree)
// to tens of GB (2^26 events, a depth-31 tree) before failing on the missing
// bytes.
func TestDecodeCheckpointRefusesCountsItCannotHold(t *testing.T) {
	empty := (&Checkpoint{Model: &core.Model{}}).Encode()
	if len(empty) != 125 {
		t.Fatalf("empty checkpoint is %d bytes, want 125", len(empty))
	}
	le := binary.LittleEndian
	// The empty checkpoint is 93 bytes of fingerprint and tree count, the
	// 24-byte empty model file as a length-prefixed block, and an event count
	// of 0. with keeps the 93 bytes and lays out the rest from its arguments.
	head, emptyModel := empty[:93], empty[97:121]
	with := func(blockLen uint32, block []byte, events uint32) []byte {
		b := le.AppendUint32(append([]byte(nil), head...), blockLen)
		return le.AppendUint32(append(b, block...), events)
	}
	// model is the empty model file with its tree count replaced, then rest.
	model := func(trees uint32, rest ...byte) []byte {
		b := le.AppendUint32(append([]byte(nil), emptyModel[:20]...), trees)
		return append(b, rest...)
	}
	block := func(m []byte) []byte { return with(uint32(len(m)), m, 0) }
	leaf := []byte{1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0} // depth 1, a leaf of weight 0
	if _, err := DecodeCheckpoint(with(24, emptyModel, 0)); err != nil {
		t.Fatalf("the empty checkpoint, laid out again: %v", err)
	}
	for name, data := range map[string][]byte{
		"a 2^32-1 byte model block": with(1<<32-1, emptyModel, 0),
		"2^26 events":               with(24, emptyModel, 1<<26),
		"2^32-1 events":             with(24, emptyModel, 1<<32-1),
		"2^32-1 trees":              block(model(1<<32 - 1)),
		"2^20 one-node trees":       block(model(1<<20, leaf...)),
		"one depth-24 tree":         block(model(1, 24, 0, 0, 0, 0)),
		"one depth-25 tree":         block(model(1, 25, 0, 0, 0, 0)),
		"one depth-31 tree":         block(model(1, 31, 0, 0, 0, 0)),
		"one depth-0 tree":          block(model(1, 0, 0, 0, 0, 0)),
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
	if _, err := DecodeCheckpoint(block(model(1, leaf...))); err == nil {
		t.Error("a checkpoint claiming 0 trees decoded holding 1")
	}
}

// TestDecodeCheckpointRefusesUnknownLoss: a checkpoint whose fingerprint
// names no loss kind, whose model core.Load refuses for its loss, or whose
// two losses differ, is refused with the cause named. Such a model used to
// decode, and then panicked when it was evaluated.
func TestDecodeCheckpointRefusesUnknownLoss(t *testing.T) {
	for _, c := range []struct {
		name             string
		model, finger    loss.Kind
		wantErrSubstring string
	}{
		{"model loss 7", 7, loss.Logistic, "checkpoint model"},
		{"fingerprint loss 9", loss.Logistic, 9, "Fingerprint.Loss"},
		{"both unknown", 7, 9, "Fingerprint.Loss"},
		{"negative model loss", -1, loss.Squared, "checkpoint model"},
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
		if c.finger.Valid() && !c.model.Valid() && !errors.Is(err, core.ErrInvalidModel) {
			t.Errorf("%s: error %q does not wrap core.ErrInvalidModel", c.name, err)
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
