package histogram

import "testing"

// TestAddAndSetSubAcrossStates checks the deferred bookkeeping against the
// dense contract directly: whichever of the two states target and operand
// are in, Add and SetSub leave — once materialised — exactly the buckets of
// the element-wise operation on two materialised histograms.
func TestAddAndSetSubAcrossStates(t *testing.T) {
	d, cands, grad, hess := buildFixture(t, 240, 150, 5, 41)
	l, err := NewLayout(AllFeatures(150), cands, 150)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBinned(d, l, 2)
	rows := allRows(240)
	// Disjoint small row sets: most features are touched by one side only.
	rowsA, rowsB := rows[:30], rows[100:125]

	build := func(rows []int32, deferred bool) *Histogram {
		h := New(l)
		if deferred {
			h.Defer()
		}
		BuildSparseBinned(h, b, rows, grad, hess)
		return h
	}
	sum, diff := New(l), New(l)
	a, bb := build(rowsA, false), build(rowsB, false)
	for i := range sum.G {
		sum.G[i], sum.H[i] = a.G[i]+bb.G[i], a.H[i]+bb.H[i]
		diff.G[i], diff.H[i] = a.G[i]-bb.G[i], a.H[i]-bb.H[i]
	}

	for _, targetDeferred := range []bool{false, true} {
		for _, operandDeferred := range []bool{false, true} {
			ctx := map[bool]string{false: "materialised", true: "deferred"}
			name := ctx[targetDeferred] + " target, " + ctx[operandDeferred] + " operand"

			got := build(rowsA, targetDeferred)
			got.Add(build(rowsB, operandDeferred))
			if got.deferred != (targetDeferred && operandDeferred) {
				t.Fatalf("Add, %s: result deferred=%v", name, got.deferred)
			}
			clone := got.Clone()
			got.Materialize()
			requireBitIdentical(t, "Add, "+name, sum, got)
			clone.Materialize()
			requireBitIdentical(t, "Add then Clone, "+name, sum, clone)

			sub := New(l)
			sub.Defer()
			sub.SetSub(build(rowsA, targetDeferred), build(rowsB, operandDeferred))
			if sub.deferred {
				t.Fatalf("SetSub, %s: result still deferred", name)
			}
			requireBitIdentical(t, "SetSub, "+name, diff, sub)
		}
	}
}
