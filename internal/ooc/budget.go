// Package ooc is the out-of-core training subsystem: it turns memory from a
// ceiling into a config knob. A Source serves a disk-resident binary dataset
// (internal/dataset's chunked format) through a bounded, pinned chunk cache;
// a SpilledBinned writes the quantized CSR mirror to a memory-mapped
// spill file in parallel.RowChunk-aligned segments and streams histogram
// builds and split classification over it. Every pass preserves the fixed
// chunk grids and ordered reductions of internal/parallel, so training under
// a budget is bit-identical (Float64bits) to the in-memory path — the
// paper's §7.1 "disk" data-reading level, with determinism carried over for
// free.
package ooc

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// Budget is a memory budget in bytes. Zero means unlimited (the in-memory
// path); positive values bound the bytes the out-of-core caches may keep
// resident at once.
type Budget int64

// Byte-size units accepted by ParseBudget.
const (
	KiB Budget = 1 << 10
	MiB Budget = 1 << 20
	GiB Budget = 1 << 30
)

// ParseBudget parses a human byte size: a plain integer is bytes, and the
// suffixes KiB/MiB/GiB (or their lowercase/short forms k, m, g, kb, mb, gb)
// scale by binary powers. "0" and "" mean unlimited.
func ParseBudget(s string) (Budget, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, nil
	}
	unit := Budget(1)
	lower := strings.ToLower(t)
	for _, u := range []struct {
		suffix string
		mult   Budget
	}{
		{"kib", KiB}, {"mib", MiB}, {"gib", GiB},
		{"kb", KiB}, {"mb", MiB}, {"gb", GiB},
		{"k", KiB}, {"m", MiB}, {"g", GiB},
		{"b", 1},
	} {
		if strings.HasSuffix(lower, u.suffix) {
			unit = u.mult
			t = strings.TrimSpace(t[:len(t)-len(u.suffix)])
			break
		}
	}
	v, err := strconv.ParseFloat(t, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("ooc: bad budget %q", s)
	}
	return Budget(v * float64(unit)), nil
}

// String renders the budget in the largest exact-ish binary unit.
func (b Budget) String() string {
	switch {
	case b == 0:
		return "unlimited"
	case b%GiB == 0:
		return fmt.Sprintf("%dGiB", b/GiB)
	case b%MiB == 0:
		return fmt.Sprintf("%dMiB", b/MiB)
	case b%KiB == 0:
		return fmt.Sprintf("%dKiB", b/KiB)
	}
	return fmt.Sprintf("%dB", int64(b))
}

// Bytes returns the budget as a byte count.
func (b Budget) Bytes() int64 { return int64(b) }

// BudgetError reports a budget too small to hold even one working set of
// chunks: below the floor, a bounded pinned cache could deadlock with every
// resident entry pinned, so Open rejects the configuration up front with the
// exact minimum the caller should retry with.
type BudgetError struct {
	// Budget is the rejected configured budget.
	Budget Budget
	// Min is the smallest budget that admits this dataset at this
	// parallelism (Source.MinBudget).
	Min Budget
	// Parallelism is the worker count the floor was computed for.
	Parallelism int
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("ooc: memory budget %s is below the minimum %s for this dataset at parallelism %d (labels + one chunk working set per worker); raise -mem-budget to at least %d bytes",
		e.Budget, e.Min, e.Parallelism, int64(e.Min))
}

// Tracker accounts the bytes the subsystem currently keeps resident and the
// peak it ever reached. Both caches and the fixed per-source state reserve
// through one tracker, so Peak is directly comparable to the configured
// budget: training must keep Peak ≤ Budget exactly (process RSS additionally
// carries the Go runtime and the trainer's per-row state — see DESIGN.md).
type Tracker struct {
	cur  atomic.Int64
	peak atomic.Int64
}

// Reserve records n more resident bytes and updates the peak.
func (t *Tracker) Reserve(n int64) {
	c := t.cur.Add(n)
	for {
		p := t.peak.Load()
		if c <= p || t.peak.CompareAndSwap(p, c) {
			break
		}
	}
	m := oocMetrics()
	m.resident.Set(c)
	if pk := t.peak.Load(); pk > m.residentPeak.Value() {
		m.residentPeak.Set(pk)
	}
}

// Release records n resident bytes freed.
func (t *Tracker) Release(n int64) {
	oocMetrics().resident.Set(t.cur.Add(-n))
}

// Current returns the bytes currently resident.
func (t *Tracker) Current() int64 { return t.cur.Load() }

// Peak returns the high-water mark of resident bytes.
func (t *Tracker) Peak() int64 { return t.peak.Load() }
