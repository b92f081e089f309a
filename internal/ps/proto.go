package ps

import (
	"errors"
	"fmt"

	"dimboost/internal/compress"
	"dimboost/internal/core"
	"dimboost/internal/wire"
)

// Operation codes of the parameter-server protocol. Workers are the
// clients; servers answer. The master's barrier op lives in
// internal/cluster.
const (
	// OpPushSketch merges worker-local quantile sketches into the server's
	// shard (CREATE_SKETCH).
	OpPushSketch uint8 = iota + 1
	// OpPullCandidates returns the split candidates of the server's
	// features (PULL_SKETCH).
	OpPullCandidates
	// OpPushSampled stores the leader's sampled feature list for the
	// current tree (NEW_TREE).
	OpPushSampled
	// OpPullSampled returns the sampled feature list.
	OpPullSampled
	// OpNewTree resets per-tree state (histograms, splits) and builds the
	// server's shard layout for the sampled features.
	OpNewTree
	// OpPushHist accumulates a worker's local histogram shard for one tree
	// node (FIND_SPLIT, push half).
	OpPushHist
	// OpPullSplit runs Algorithm 1 on the server's shard and returns the
	// local best split — the server-side phase of two-phase split finding.
	OpPullSplit
	// Op 8 is reserved: it pulled a node's merged shard for one-phase split
	// finding, and a request carrying it is refused as an unknown op.
	_
	// OpPushSplitResult stores the global best split of a node.
	OpPushSplitResult
	// OpPullSplitResults returns the stored splits of a node set
	// (SPLIT_TREE).
	OpPullSplitResults
)

// Request envelope. Every client→server request body starts with
// (worker int32, seq uint64): the sending worker's id and a per-worker
// strictly increasing sequence number. The transport retries transient
// failures by resending the identical message — same seq — and a server
// deduplicates mutating ops by remembering the highest seq it has applied
// per worker. A retried PUSH whose first attempt did reach the server (the
// response was lost) is therefore acknowledged without re-applying, so it
// can never double-accumulate into a histogram or re-reset per-tree state.
//
// The client issues requests to any single server sequentially (fan-outs
// send one message per server), so per (worker, server) the seq stream is
// strictly increasing and "seq already seen" exactly identifies duplicates.

// OpName returns the human-readable op label used by the ps metrics.
func OpName(op uint8) string {
	switch op {
	case OpPushSketch:
		return "push_sketch"
	case OpPullCandidates:
		return "pull_candidates"
	case OpPushSampled:
		return "push_sampled"
	case OpPullSampled:
		return "pull_sampled"
	case OpNewTree:
		return "new_tree"
	case OpPushHist:
		return "push_hist"
	case OpPullSplit:
		return "pull_split"
	case OpPushSplitResult:
		return "push_split_result"
	case OpPullSplitResults:
		return "pull_split_results"
	}
	return "unknown"
}

// ops lists the op codes in use, for the per-op metrics.
var ops = []uint8{OpPushSketch, OpPullCandidates, OpPushSampled, OpPullSampled, OpNewTree,
	OpPushHist, OpPullSplit, OpPushSplitResult, OpPullSplitResults}

// mutatingOp reports whether an op changes server state and therefore needs
// duplicate suppression. Pull ops are naturally idempotent (their caches
// are memoized) and skip the check.
func mutatingOp(op uint8) bool {
	switch op {
	case OpPushSketch, OpPushSampled, OpNewTree, OpPushHist, OpPushSplitResult:
		return true
	}
	return false
}

// envelopeSize is the byte length of the (worker, seq) request header.
const envelopeSize = 4 + 8

// Sampled-feature lists (NEW_TREE, PUSH_SAMPLED, PULL_SAMPLED) travel in one
// of two self-describing forms: the ids verbatim, or runs of consecutive ids
// — one run when every feature is sampled — whichever is smaller.
const (
	featureIDs  uint8 = 0 // u32 count, int32 ids
	featureRuns uint8 = 1 // u32 count, (int32 first, u32 length) runs
)

// writeFeatures appends an ascending feature list.
func writeFeatures(w *wire.Writer, feats []int32) {
	runs := 0
	for i, f := range feats {
		if i == 0 || f != feats[i-1]+1 {
			runs++
		}
	}
	if 8*runs >= 4*len(feats) {
		w.Uint8(featureIDs)
		w.Int32s(feats)
		return
	}
	w.Uint8(featureRuns)
	w.Uint32(uint32(runs))
	for i := 0; i < len(feats); {
		j := i + 1
		for j < len(feats) && feats[j] == feats[j-1]+1 {
			j++
		}
		w.Int32(feats[i])
		w.Uint32(uint32(j - i))
		i = j
	}
}

// readFeatures consumes a feature list written by writeFeatures. Runs must
// ascend inside [0, limit), so a hostile count can never expand past limit
// ids; verbatim ids are returned as sent, for the caller to check.
func readFeatures(r *wire.Reader, limit int) ([]int32, error) {
	switch kind := r.Uint8(); kind {
	case featureIDs:
		feats := r.Int32s()
		return feats, r.Err()
	case featureRuns:
		n := int(r.Uint32())
		if err := r.Err(); err != nil {
			return nil, err
		}
		if n > r.Remaining()/8 {
			return nil, fmt.Errorf("%w: %d feature runs in %d bytes", wire.ErrTruncated, n, r.Remaining())
		}
		var feats []int32
		next := int64(0)
		for i := 0; i < n; i++ {
			first, length := int64(r.Int32()), int64(r.Uint32())
			if first < next || length == 0 || first+length > int64(limit) {
				return nil, fmt.Errorf("ps: feature run %d [%d, %d) out of order or outside [0, %d)", i, first, first+length, limit)
			}
			for f := first; f < first+length; f++ {
				feats = append(feats, int32(f))
			}
			next = first + length
		}
		return feats, r.Err()
	default:
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("ps: unknown feature list form %d", kind)
	}
}

// Per-feature records — sketch summaries (PUSH_SKETCH) and cut lists (the
// PULL_CANDIDATES reply) — make up a body as
//
//	count uvarint | (delta uvarint | record)×count
//
// in strictly ascending feature id, each id sent as its distance from the
// previous one and the first from −1; the body ends with the last record.
// The records are sketch's wire forms (sketch/wire.go).

var (
	// ErrBadFeatureID reports a feature record whose id repeats the previous
	// one, lies outside the partition's feature space, or belongs to another
	// server than the one it was pushed to or pulled from.
	ErrBadFeatureID = errors.New("ps: bad feature id")
	// ErrTrailingBytes reports a request or reply body with bytes past its
	// last field.
	ErrTrailingBytes = errors.New("ps: trailing bytes")
)

// recordFramingSize is the exact size of the count and the id deltas that
// frame the records of the ascending feats.
func recordFramingSize(feats []int32) int {
	size, prev := wire.UvarintLen(uint64(len(feats))), int32(-1)
	for _, f := range feats {
		size += wire.UvarintLen(uint64(f - prev))
		prev = f
	}
	return size
}

// writeFeatureRecords appends the records of the ascending feats, record(i)
// writing feats[i]'s.
func writeFeatureRecords(w *wire.Writer, feats []int32, record func(i int)) {
	w.Uvarint(uint64(len(feats)))
	prev := int32(-1)
	for i, f := range feats {
		w.Uvarint(uint64(f - prev))
		prev = f
		record(i)
	}
}

// readFeatureRecords consumes a body of records for server sv under part,
// checking every id (ErrBadFeatureID) before record consumes its record.
func readFeatureRecords(r *wire.Reader, part *Partition, sv int, record func(f int32) error) error {
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return err
	}
	if n > uint64(r.Remaining()) {
		return fmt.Errorf("%w: %d records in %d bytes", wire.ErrTruncated, n, r.Remaining())
	}
	prev := int64(-1)
	for i := uint64(0); i < n; i++ {
		d := r.Uvarint()
		if err := r.Err(); err != nil {
			return err
		}
		if d == 0 {
			return fmt.Errorf("%w: feature %d repeated", ErrBadFeatureID, prev)
		}
		if d > uint64(part.NumFeatures) || prev+int64(d) >= int64(part.NumFeatures) {
			return fmt.Errorf("%w: feature %d + %d outside [0, %d)", ErrBadFeatureID, prev, d, part.NumFeatures)
		}
		f := int32(prev + int64(d))
		if owner := part.ServerOf(f); owner != sv {
			return fmt.Errorf("%w: feature %d belongs to server %d, not %d", ErrBadFeatureID, f, owner, sv)
		}
		if err := record(f); err != nil {
			return fmt.Errorf("feature %d: %w", f, err)
		}
		prev = int64(f)
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("%w: %d after the last record", ErrTrailingBytes, r.Remaining())
	}
	return nil
}

// VecDeferred tags a pushed histogram shard: a shard in touched space — the
// touched set, the deferred zero mass and the touched positions' buckets (see
// deferred.go) — the one form a histogram takes on the wire. Tags 0–2 (the
// dense float32, fixed-point and float64 vectors) and 3 (sparse spans) are
// retired and refused like any unknown tag.
const VecDeferred uint8 = 4

// ShapeError reports a payload whose declared geometry disagrees with the
// receiver's expectation — typically a stale-partition client pushing or
// pulling against a layout from an earlier NEW_TREE. It is a rejection of
// the request, not of the connection; the client should refresh its layout.
type ShapeError struct {
	What string // which vector or record was mis-shaped
	Got  int    // declared element count
	Want int    // expected element count
}

func (e *ShapeError) Error() string {
	return fmt.Sprintf("ps: %s has %d values, expected %d", e.What, e.Got, e.Want)
}

// vecEncoding is a wire encoding: the client applies it to the buckets it
// pushes, and states it in pull requests, where a fixed-point width asks for
// compact split records. The zero value means raw float32 — the wire default
// matching the paper.
type vecEncoding struct {
	bits  uint // fixed-point width; 0 = raw floats
	exact bool // float64 instead of float32 wherever raw floats appear
}

// spanBits maps the encoding onto the width a deferred vector carries its
// values at.
func (ev vecEncoding) spanBits() uint {
	switch {
	case ev.bits != 0:
		return ev.bits
	case ev.exact:
		return compress.RawFloat64
	default:
		return compress.RawFloat32
	}
}

// compactSplits reports whether split records may narrow their statistics
// to float32. Split values always stay float64 — bin recovery inside
// SplitPredicate depends on exact cut values.
func (ev vecEncoding) compactSplits() bool { return ev.bits != 0 && !ev.exact }

// writeEncoding appends the negotiation pair (bits, exact) to a pull
// request.
func writeEncoding(w *wire.Writer, ev vecEncoding) {
	w.Uint8(uint8(ev.bits))
	w.Bool(ev.exact)
}

// readEncoding consumes and validates a negotiation pair.
func readEncoding(r *wire.Reader) (vecEncoding, error) {
	ev := vecEncoding{bits: uint(r.Uint8())}
	ev.exact = r.Bool()
	if err := r.Err(); err != nil {
		return ev, err
	}
	if ev.bits != 0 && !compress.ValidWidth(ev.bits) {
		return ev, fmt.Errorf("%w: %d", compress.ErrBadWidth, ev.bits)
	}
	if ev.bits != 0 && ev.exact {
		return ev, fmt.Errorf("ps: exact and %d-bit response encoding are mutually exclusive", ev.bits)
	}
	return ev, nil
}

// Split-record layouts. Full records carry every statistic as float64;
// compact ones (negotiated via a nonzero pull width) narrow the gain and
// child aggregates to float32 while keeping Found/Feature/Value exact —
// the split value must survive the wire bit-exactly because SplitPredicate
// recovers the bin from it.
const (
	splitFull    uint8 = 0
	splitCompact uint8 = 1
)

// writeSplitRecord writes a split record: a split plus the node totals
// when the writer knows them — a two-phase split response, whose totals the
// server derived from its own shard, or a stored split result.
func writeSplitRecord(w *wire.Writer, rec core.Decision, compact bool) {
	if compact {
		w.Uint8(splitCompact)
		w.Bool(rec.Split.Found)
		w.Int32(rec.Split.Feature)
		w.Float64(rec.Split.Value)
		w.Float32(float32(rec.Split.Gain))
		w.Float32(float32(rec.Split.LeftG))
		w.Float32(float32(rec.Split.LeftH))
		w.Float32(float32(rec.Split.RightG))
		w.Float32(float32(rec.Split.RightH))
		w.Bool(rec.HasTotals)
		w.Float32(float32(rec.G))
		w.Float32(float32(rec.H))
		return
	}
	w.Uint8(splitFull)
	w.Bool(rec.Split.Found)
	w.Int32(rec.Split.Feature)
	w.Float64(rec.Split.Value)
	w.Float64(rec.Split.Gain)
	w.Float64(rec.Split.LeftG)
	w.Float64(rec.Split.LeftH)
	w.Float64(rec.Split.RightG)
	w.Float64(rec.Split.RightH)
	w.Bool(rec.HasTotals)
	w.Float64(rec.G)
	w.Float64(rec.H)
}

func readSplitRecord(r *wire.Reader) (core.Decision, error) {
	var rec core.Decision
	layout := r.Uint8()
	switch layout {
	case splitFull:
		rec.Split.Found = r.Bool()
		rec.Split.Feature = r.Int32()
		rec.Split.Value = r.Float64()
		rec.Split.Gain = r.Float64()
		rec.Split.LeftG = r.Float64()
		rec.Split.LeftH = r.Float64()
		rec.Split.RightG = r.Float64()
		rec.Split.RightH = r.Float64()
		rec.HasTotals = r.Bool()
		rec.G = r.Float64()
		rec.H = r.Float64()
	case splitCompact:
		rec.Split.Found = r.Bool()
		rec.Split.Feature = r.Int32()
		rec.Split.Value = r.Float64()
		rec.Split.Gain = float64(r.Float32())
		rec.Split.LeftG = float64(r.Float32())
		rec.Split.LeftH = float64(r.Float32())
		rec.Split.RightG = float64(r.Float32())
		rec.Split.RightH = float64(r.Float32())
		rec.HasTotals = r.Bool()
		rec.G = float64(r.Float32())
		rec.H = float64(r.Float32())
	default:
		if err := r.Err(); err != nil {
			return rec, err
		}
		return rec, fmt.Errorf("ps: unknown split record layout %d", layout)
	}
	return rec, r.Err()
}
