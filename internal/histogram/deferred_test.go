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
			pa, ch := build(rowsA, targetDeferred), build(rowsB, operandDeferred)
			sub.SetSub(pa, ch)
			if sub.deferred {
				t.Fatalf("SetSub, %s: result still deferred", name)
			}
			requireBitIdentical(t, "SetSub, "+name, diff, sub)
			// Only the target changes, in place or not: another reader may
			// be scanning an operand in the state it is in.
			requireUnchanged(t, "SetSub parent, "+name, build(rowsA, targetDeferred), pa)
			requireUnchanged(t, "SetSub child, "+name, build(rowsB, operandDeferred), ch)
			pa.SetSub(pa, ch)
			pa.Materialize()
			requireBitIdentical(t, "SetSub in place, "+name, diff, pa)
			requireUnchanged(t, "SetSub in place, child, "+name, build(rowsB, operandDeferred), ch)
		}
	}

	// The state the trainers subtract in: both deferred and the child's rows
	// among the parent's. The difference stays deferred, over the parent's
	// touched set, owing the difference of the two masses; the operands are
	// left as they were.
	rowsP, rowsC := rows[:60], rows[20:35]
	p, c := build(rowsP, false), build(rowsC, false)
	for i := range diff.G {
		diff.G[i], diff.H[i] = p.G[i]-c.G[i], p.H[i]-c.H[i]
	}
	parent, child := build(rowsP, true), build(rowsC, true)
	sub := New(l)
	sub.SetSub(parent, child)
	if !sub.deferred || !parent.deferred || !child.deferred {
		t.Fatalf("SetSub of a deferred child within a deferred parent: deferred = %v (parent %v, child %v)", sub.deferred, parent.deferred, child.deferred)
	}
	for w := range sub.touched {
		if sub.touched[w] != parent.touched[w] {
			t.Fatalf("touched word %d = %#x, parent's is %#x", w, sub.touched[w], parent.touched[w])
		}
	}
	if sub.defG != parent.defG-child.defG || sub.defH != parent.defH-child.defH {
		t.Fatalf("deferred mass (%v, %v), want (%v, %v)", sub.defG, sub.defH, parent.defG-child.defG, parent.defH-child.defH)
	}
	clone := sub.Clone()
	sub.Materialize()
	requireBitIdentical(t, "SetSub in touched space", diff, sub)
	clone.Materialize()
	requireBitIdentical(t, "SetSub in touched space then Clone", diff, clone)
	// In place — the target is the parent — gives the same histogram.
	wantG, wantH := parent.defG-child.defG, parent.defH-child.defH
	parent.SetSub(parent, child)
	if !parent.deferred || parent.defG != wantG || parent.defH != wantH {
		t.Fatalf("SetSub in place: deferred = %v, mass (%v, %v)", parent.deferred, parent.defG, parent.defH)
	}
	parent.Materialize()
	requireBitIdentical(t, "SetSub in touched space, in place", diff, parent)
	dense := build(rowsP, false)
	dense.SetSub(dense, build(rowsC, true))
	requireBitIdentical(t, "dense SetSub in place", diff, dense)
	// An empty child and the whole parent are the two ends of the subset.
	for name, rowsC := range map[string][]int32{"empty child": nil, "child = parent": rowsP} {
		c := build(rowsC, false)
		for i := range diff.G {
			diff.G[i], diff.H[i] = p.G[i]-c.G[i], p.H[i]-c.H[i]
		}
		sub := New(l)
		sub.SetSub(build(rowsP, true), build(rowsC, true))
		if !sub.deferred {
			t.Fatalf("%s: result not deferred", name)
		}
		sub.Materialize()
		requireBitIdentical(t, "SetSub in touched space, "+name, diff, sub)
	}
}

// requireUnchanged fails unless got is want in both state and raw buckets,
// bit for bit.
func requireUnchanged(t *testing.T, ctx string, want, got *Histogram) {
	t.Helper()
	if got.deferred != want.deferred || got.defG != want.defG || got.defH != want.defH {
		t.Fatalf("%s: state (deferred %v, mass %v, %v), want (%v, %v, %v)", ctx, got.deferred, got.defG, got.defH, want.deferred, want.defG, want.defH)
	}
	for w := range want.touched {
		if got.touched[w] != want.touched[w] {
			t.Fatalf("%s: touched word %d = %x, want %x", ctx, w, got.touched[w], want.touched[w])
		}
	}
	requireBitIdentical(t, ctx, want, got)
}
