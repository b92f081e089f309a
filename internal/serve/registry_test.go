package serve

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dimboost/internal/core"
	"dimboost/internal/obs"
	"dimboost/internal/predict"
	"dimboost/internal/tree"
)

// corruptModel returns a model whose tree fails validation. core.Load
// refuses such a file, so it stands for a model built in memory.
func corruptModel() *core.Model {
	return &core.Model{Trees: []*tree.Tree{{MaxDepth: 2, Nodes: make([]tree.Node, 7)}}}
}

func rollbacks(reason string) int64 {
	return obs.Default().Counter("dimboost_serve_rollbacks_total",
		"Model swaps refused by validation or compile; the previous version was retained.",
		obs.L("reason", reason)).Value()
}

func TestRegistrySwapAdvancesVersion(t *testing.T) {
	m1, _ := trainedModel(t)
	r := NewRegistry(m1)
	if _, v := r.Current(); v.ID != 1 || v.Trees != len(m1.Trees) {
		t.Fatalf("boot version %+v", v)
	}

	m2 := &core.Model{Loss: m1.Loss, BaseScore: m1.BaseScore, Trees: m1.Trees[:1]}
	v, err := r.Swap(m2, "reload")
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != 2 || v.Trees != 1 || v.Source != "reload" {
		t.Fatalf("swapped version %+v", v)
	}
	cur, cv := r.Current()
	if cur != m2 || cv.ID != 2 {
		t.Fatalf("current (%p, %+v), want m2 version 2", cur, cv)
	}
	hist := r.History()
	if len(hist) != 2 || hist[0].ID != 1 || hist[1].ID != 2 {
		t.Fatalf("history %+v", hist)
	}
}

func TestRegistryRollbackOnCompileFailure(t *testing.T) {
	m1, _ := trainedModel(t)
	r := NewRegistry(m1)
	before := rollbacks("compile")

	if _, err := r.Swap(corruptModel(), "reload"); err == nil {
		t.Fatal("corrupt model swapped in")
	} else if !strings.Contains(err.Error(), "version 1 retained") {
		t.Fatalf("error must name the retained version: %v", err)
	}
	cur, v := r.Current()
	if cur != m1 || v.ID != 1 {
		t.Fatalf("after failed swap current is (%p, v%d), want original v1", cur, v.ID)
	}
	if got := rollbacks("compile"); got != before+1 {
		t.Fatalf("rollback counter %d, want %d", got, before+1)
	}
	if len(r.History()) != 1 {
		t.Fatalf("failed swap entered history: %+v", r.History())
	}
}

func TestRegistryRollbackOnValidationFailure(t *testing.T) {
	m1, _ := trainedModel(t)
	r := NewRegistry(m1)
	r.Validate = func(*core.Model) error { return fmt.Errorf("probe loss through the roof") }
	before := rollbacks("validate")

	m2 := &core.Model{Loss: m1.Loss, BaseScore: m1.BaseScore, Trees: m1.Trees[:1]}
	if _, err := r.Swap(m2, "reload"); err == nil {
		t.Fatal("validation-failing model swapped in")
	}
	if cur, v := r.Current(); cur != m1 || v.ID != 1 {
		t.Fatalf("validation failure must retain v1, got v%d", v.ID)
	}
	if got := rollbacks("validate"); got != before+1 {
		t.Fatalf("rollback counter %d, want %d", got, before+1)
	}

	// Clearing the gate lets the same model through, as version 2.
	r.Validate = nil
	v, err := r.Swap(m2, "reload")
	if err != nil || v.ID != 2 {
		t.Fatalf("swap after clearing validation: v%d, %v", v.ID, err)
	}
}

func TestProbeValidator(t *testing.T) {
	m, d := trainedModel(t)
	probe := d.Subset(0, 50)

	if err := ProbeValidator(probe, 0)(m); err != nil {
		t.Fatalf("trained model must pass its own data: %v", err)
	}
	// A generous loss bound passes; an absurdly tight one rejects.
	if err := ProbeValidator(probe, 100)(m); err != nil {
		t.Fatalf("loose loss bound: %v", err)
	}
	if err := ProbeValidator(probe, 1e-9)(m); err == nil {
		t.Fatal("tight loss bound must reject")
	} else if !strings.Contains(err.Error(), "mean loss") {
		t.Fatalf("unexpected rejection: %v", err)
	}
	// Nil / empty probe disables the check rather than failing.
	if err := ProbeValidator(nil, 0)(m); err != nil {
		t.Fatalf("nil probe: %v", err)
	}
}

func TestProbeValidatorRejectsNonFinite(t *testing.T) {
	m, d := trainedModel(t)
	probe := d.Subset(0, 10)
	// A leaf weight of +Inf makes every score non-finite without breaking
	// tree structure validation.
	bad := &core.Model{Loss: m.Loss, BaseScore: m.BaseScore}
	for _, tr := range m.Trees {
		cp := &tree.Tree{MaxDepth: tr.MaxDepth, Nodes: append([]tree.Node(nil), tr.Nodes...)}
		bad.Trees = append(bad.Trees, cp)
	}
	for i := range bad.Trees[0].Nodes {
		n := &bad.Trees[0].Nodes[i]
		if n.Used && n.Leaf {
			n.Weight = math.Inf(1)
			break
		}
	}
	if err := ProbeValidator(probe, 0)(bad); err == nil {
		t.Fatal("non-finite scores must fail validation")
	} else if !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("unexpected rejection: %v", err)
	}
}

// TestProbeValidatorCatchesEngineDrift: the probe gate cross-checks the
// compiled engine against the interpreted walk bit for bit, so an engine
// that no longer matches the ensemble (here: a leaf weight mutated in place
// after compilation, which the snapshot-identity cache cannot see) is
// refused instead of served. Depth-4 trees auto-select the bitvector
// backend, so this also exercises the new backend through the swap gate.
func TestProbeValidatorCatchesEngineDrift(t *testing.T) {
	m, d := trainedModel(t)
	probe := d.Subset(0, 20)
	eng, err := m.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	if eng.Backend() != predict.BackendBitvector {
		t.Fatalf("depth-4 ensemble auto-selected %v, want bitvector", eng.Backend())
	}
	if err := ProbeValidator(probe, 0)(m); err != nil {
		t.Fatalf("fresh engine must pass: %v", err)
	}
	for i := range m.Trees[0].Nodes {
		n := &m.Trees[0].Nodes[i]
		if n.Used && n.Leaf {
			n.Weight += 1000
			break
		}
	}
	if err := ProbeValidator(probe, 0)(m); err == nil {
		t.Fatal("engine drifted from the ensemble and still passed")
	} else if !strings.Contains(err.Error(), "interpreted walk") {
		t.Fatalf("unexpected rejection: %v", err)
	}
}

func TestRegistryHistoryBounded(t *testing.T) {
	m1, _ := trainedModel(t)
	r := NewRegistry(m1)
	m2 := &core.Model{Loss: m1.Loss, BaseScore: m1.BaseScore, Trees: m1.Trees[:1]}
	for i := 0; i < historyDepth+10; i++ {
		if _, err := r.Swap(m2, "reload"); err != nil {
			t.Fatal(err)
		}
	}
	hist := r.History()
	if len(hist) != historyDepth {
		t.Fatalf("history length %d, want %d", len(hist), historyDepth)
	}
	if hist[len(hist)-1].ID != int64(historyDepth+11) {
		t.Fatalf("latest version %d, want %d", hist[len(hist)-1].ID, historyDepth+11)
	}
}
