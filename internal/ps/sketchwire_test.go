package ps

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"dimboost/internal/sketch"
	"dimboost/internal/wire"
)

// sketchFuzzEps is the rank error FuzzSketchWire's sketches are built and
// restored with.
const sketchFuzzEps = 0.02

// sketchFuzzPartition is FuzzSketchWire's feature space: 200 features over
// two servers.
func sketchFuzzPartition(t testing.TB) *Partition {
	part, err := NewPartition(200, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	return part
}

// sketchFuzzSet draws a sketch set from fuzz bytes: every 8-byte group is a
// value for the feature its first byte names, inserted as often as its
// second byte says, each copy one above the last. Groups that are not
// finite floats are read as integers, so integral, float32 and float64
// values all occur, and features with many copies compress.
func sketchFuzzSet(part *Partition, blob []byte) *sketch.Set {
	set := sketch.NewSet(part.NumFeatures, sketchFuzzEps)
	for i := 0; i+8 <= len(blob); i += 8 {
		u := binary.LittleEndian.Uint64(blob[i:])
		v := math.Float64frombits(u)
		if !finite(v) || math.Abs(v) > 1e300 {
			v = float64(u % 1000)
		}
		for k := 0; k <= int(blob[i+1]); k++ {
			set.Add(int(blob[i])%part.NumFeatures, v+float64(k))
		}
	}
	return set
}

// sketchPushBody is the PUSH_SKETCH body the client sends server sv for set.
func sketchPushBody(t testing.TB, set *sketch.Set, part *Partition, sv int) []byte {
	feats, gks, size := ownedSketches(set, part, sv)
	w := wire.NewWriter(size)
	writeFeatureRecords(w, feats, func(i int) { gks[i].WriteWire(w) })
	if w.Len() != size {
		t.Fatalf("server %d: a push body sized %d is %d bytes", sv, size, w.Len())
	}
	return w.Bytes()
}

// candidateReply is the PULL_CANDIDATES reply server sv sends for the
// candidates of its features that set sketched.
func candidateReply(set *sketch.Set, part *Partition, sv, k int) ([]int32, []sketch.Candidates, []byte) {
	var feats []int32
	var cands []sketch.Candidates
	size := 0
	for f := 0; f < part.NumFeatures; f++ {
		if gk := set.Feature(f); gk != nil && part.ServerOf(int32(f)) == sv {
			feats = append(feats, int32(f))
			cands = append(cands, sketch.Propose(gk, k))
			size += cands[len(cands)-1].WireSize()
		}
	}
	w := wire.NewWriter(size + recordFramingSize(feats))
	writeFeatureRecords(w, feats, func(i int) { cands[i].WriteWire(w) })
	return feats, cands, w.Bytes()
}

// FuzzSketchWire: any bytes offered as a PUSH_SKETCH body or as a
// PULL_CANDIDATES reply, to either server, fail with an error or parse —
// never a panic — and every cut list a reply is accepted with is finite,
// strictly ascending and holds the zero cut. Sketches and cut lists drawn
// from the bytes round-trip through the client's and the server's writers
// bit for bit: the same features, summaries and cuts.
func FuzzSketchWire(f *testing.F) {
	part := sketchFuzzPartition(f)
	f.Add([]byte{})
	seed := []byte{}
	for i, v := range []float64{1.5, -2.25, 0.1, 3, 7, -1e-3, 1e6, 0.5} {
		g := binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))
		g[0], g[1] = byte(31*i), byte(60*(i%3))
		seed = append(seed, g...)
	}
	f.Add(seed)
	set := sketchFuzzSet(part, seed)
	for sv := 0; sv < part.NumServers; sv++ {
		f.Add(sketchPushBody(f, set, part, sv))
		_, _, reply := candidateReply(set, part, sv, 10)
		f.Add(reply)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		for sv := 0; sv < part.NumServers; sv++ {
			readSketchPush(wire.NewReader(blob), part, sv, sketchFuzzEps)
			out := make([]sketch.Candidates, part.NumFeatures)
			if err := readCandidates(blob, part, sv, out); err != nil {
				continue
			}
			for g, c := range out {
				if c.Cuts == nil {
					continue
				}
				for i, v := range c.Cuts {
					if !finite(v) || (i > 0 && !(v > c.Cuts[i-1])) {
						t.Fatalf("server %d feature %d: accepted cuts %v", sv, g, c.Cuts)
					}
				}
				if c.Cuts[c.ZeroBucket] != 0 {
					t.Fatalf("server %d feature %d: accepted cuts %v without a zero cut", sv, g, c.Cuts)
				}
			}
		}

		set := sketchFuzzSet(part, blob)
		k := 1 + len(blob)%30
		for sv := 0; sv < part.NumServers; sv++ {
			feats, gks, _ := ownedSketches(set, part, sv)
			batch, err := readSketchPush(wire.NewReader(sketchPushBody(t, set, part, sv)), part, sv, sketchFuzzEps)
			if err != nil || len(batch) != len(feats) {
				t.Fatalf("server %d: own push of %d summaries read back as %d (%v)", sv, len(feats), len(batch), err)
			}
			for i, p := range batch {
				if p.f != feats[i] || summaryBits(p.gk) != summaryBits(gks[i]) {
					t.Fatalf("server %d: summary %d of feature %d read back as feature %d, %s, sent %s", sv, i, feats[i], p.f, summaryBits(p.gk), summaryBits(gks[i]))
				}
			}

			feats, cands, reply := candidateReply(set, part, sv, k)
			out := make([]sketch.Candidates, part.NumFeatures)
			if err := readCandidates(reply, part, sv, out); err != nil {
				t.Fatalf("server %d: own reply: %v", sv, err)
			}
			for i, g := range feats {
				if fmt.Sprint(cutBits(out[g])) != fmt.Sprint(cutBits(cands[i])) || out[g].ZeroBucket != cands[i].ZeroBucket {
					t.Fatalf("server %d feature %d: cuts %v read back as %v", sv, g, cands[i].Cuts, out[g].Cuts)
				}
			}
		}
	})
}

// summaryBits renders a summary's tuples bit for bit.
func summaryBits(gk *sketch.GK) string {
	values, gs, deltas := gk.Summary()
	bits := make([]uint64, len(values))
	for i, v := range values {
		bits[i] = math.Float64bits(v)
	}
	return fmt.Sprint(bits, gs, deltas, gk.Count())
}

// cutBits returns a cut list's bit patterns.
func cutBits(c sketch.Candidates) []uint64 {
	bits := make([]uint64, len(c.Cuts))
	for i, v := range c.Cuts {
		bits[i] = math.Float64bits(v)
	}
	return bits
}

// TestCandidateReplyRejected: a PULL_CANDIDATES reply from server 0 naming
// a feature out of range, out of ascending order, repeated or owned by
// server 1, or carrying cuts no proposal makes, fails readCandidates — what
// PullCandidates reads every reply with — with a typed error instead of
// indexing the candidate table with it.
func TestCandidateReplyRejected(t *testing.T) {
	part := sketchFuzzPartition(t)
	var mine, theirs int32 = -1, -1
	for f := int32(0); mine < 0 || theirs < 0; f++ {
		if part.ServerOf(f) == 0 && mine < 0 {
			mine = f
		} else if part.ServerOf(f) == 1 && theirs < 0 {
			theirs = f
		}
	}
	cuts := func(f32 bool, vs ...float64) func(w *wire.Writer) {
		return func(w *wire.Writer) {
			if f32 {
				w.Uvarint(uint64(len(vs))<<1 | 1)
			} else {
				w.Uvarint(uint64(len(vs)) << 1)
			}
			for _, v := range vs {
				if f32 {
					w.Float32(float32(v))
				} else {
					w.Float64(v)
				}
			}
		}
	}
	good := cuts(true, -1, 0, 2)
	type record struct {
		delta uint64
		cuts  func(w *wire.Writer)
	}
	reply := func(rs ...record) []byte {
		w := wire.NewWriter(64)
		w.Uvarint(uint64(len(rs)))
		for _, r := range rs {
			w.Uvarint(r.delta)
			r.cuts(w)
		}
		return w.Bytes()
	}
	at := func(f int32) uint64 { return uint64(f + 1) }
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		body []byte
		want error
	}{
		{"feature past the partition", reply(record{201, good}), ErrBadFeatureID},
		{"feature wrapping to −1", reply(record{1 << 32, good}), ErrBadFeatureID},
		{"repeated feature", reply(record{at(mine), good}, record{0, good}), ErrBadFeatureID},
		{"another server's feature", reply(record{at(theirs), good}), ErrBadFeatureID},
		{"NaN cut", reply(record{at(mine), cuts(false, 0, nan)}), sketch.ErrInvalidCuts},
		{"infinite cut", reply(record{at(mine), cuts(true, math.Inf(-1), 0)}), sketch.ErrInvalidCuts},
		{"descending cuts", reply(record{at(mine), cuts(true, 2, 0)}), sketch.ErrInvalidCuts},
		{"repeated cut", reply(record{at(mine), cuts(false, 0, 1, 1)}), sketch.ErrInvalidCuts},
		{"no zero cut", reply(record{at(mine), cuts(true, 1, 2)}), sketch.ErrInvalidCuts},
		{"no cuts", reply(record{at(mine), cuts(true)}), sketch.ErrInvalidCuts},
		{"more cuts than bytes", reply(record{at(mine), func(w *wire.Writer) { w.Uvarint(1 << 40) }}), wire.ErrTruncated},
		{"more records than bytes", []byte{0xff, 0x01}, wire.ErrTruncated},
		{"record count past 64 bits", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, wire.ErrVarint},
		{"trailing bytes", append(reply(record{at(mine), good}), 0), ErrTrailingBytes},
	} {
		out := make([]sketch.Candidates, part.NumFeatures)
		if err := readCandidates(tc.body, part, 0, out); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	out := make([]sketch.Candidates, part.NumFeatures)
	if err := readCandidates(reply(record{at(mine), good}), part, 0, out); err != nil || fmt.Sprint(out[mine].Cuts) != "[-1 0 2]" {
		t.Fatalf("the well-formed reply: cuts %v, error %v", out[mine].Cuts, err)
	}
}
