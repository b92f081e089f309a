package ps

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"dimboost/internal/compress"
	"dimboost/internal/dataset"
	"dimboost/internal/histogram"
	"dimboost/internal/sketch"
	"dimboost/internal/transport"
	"dimboost/internal/wire"
)

// wireTree is one small tree's histograms as real workers build them — per
// worker, nodes 0, 1 and 5 over the worker's rows with histogram.BuildBinned,
// once deferred and once materialised — and the order its pushes and pulls
// take: 2 is derived as 0 − 1, and 6 as the derived 2 − 5.
type wireTree struct {
	m               int
	layout          *histogram.Layout
	cands           []sketch.Candidates
	deferred, dense [][]*histogram.Histogram // [worker][i] for wirePushed[i]
}

var wirePushed = []int{0, 1, 5}

// wireRows are a node's rows among a worker's n: node 1 takes every third
// row, node 5 every fourth row of node 2 (the rest).
func wireRows(node, n int) []int32 {
	var rows []int32
	for r := 0; r < n; r++ {
		in1 := r%3 == 0
		if node == 0 || (node == 1 && in1) || (node == 5 && !in1 && r%4 == 1) {
			rows = append(rows, int32(r))
		}
	}
	return rows
}

func newWireTree(t *testing.T, workers int) *wireTree {
	t.Helper()
	const m = 240
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 600, NumFeatures: m, AvgNNZ: 8, Seed: 5, Zipf: 1.3})
	set := sketch.NewSet(m, 0.02)
	set.AddDataset(d)
	wt := &wireTree{m: m, cands: set.Candidates(10)}
	wt.layout = workerLayout(t, histogram.AllFeatures(m), wt.cands, m)
	for w, sh := range dataset.PartitionRows(d, workers) {
		n := sh.NumRows()
		grad, hess := make([]float64, n), make([]float64, n)
		for r := range grad {
			grad[r] = math.Sin(float64(1000*w + r))
			hess[r] = 0.3 + 0.05*float64(r%4)
		}
		binned := histogram.NewBinned(sh, wt.layout, 1)
		// Batches of 64 rows: the deferred builds merge partials too.
		opts := histogram.BuildOptions{Parallelism: 2, BatchSize: 64}
		var def, dense []*histogram.Histogram
		for _, node := range wirePushed {
			a, b := histogram.New(wt.layout), histogram.New(wt.layout)
			a.Defer()
			histogram.BuildBinned(a, binned, wireRows(node, n), grad, hess, opts)
			histogram.BuildBinned(b, binned, wireRows(node, n), grad, hess, opts)
			if !a.Deferred() {
				t.Fatalf("worker %d node %d: the build did not stay deferred", w, node)
			}
			if got, want := histBits(a), histBits(b); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("worker %d node %d: deferred build materialises to other buckets than the dense build", w, node)
			}
			def, dense = append(def, a), append(dense, b)
		}
		wt.deferred, wt.dense = append(wt.deferred, def), append(wt.dense, dense)
	}
	return wt
}

// wireOutcome is everything a tree's servers answered and hold, bit for bit:
// per node in pull order the split record, and every server's shard of every
// node.
type wireOutcome struct {
	reads  [][]uint64
	shards [][]uint64
}

// run drives the tree through a fresh fleet of the given shape, the workers'
// pushes of every node arriving in order, and pushing the deferred or the
// materialised builds.
func (wt *wireTree) run(t *testing.T, servers int, exact bool, order []int, deferred bool) wireOutcome {
	t.Helper()
	fx := newFixture(t, wt.m, servers, len(order))
	for _, srv := range fx.servers {
		for f := range wt.cands {
			srv.cands[int32(f)] = wt.cands[f]
		}
	}
	for _, c := range fx.clients {
		c.Exact = exact
	}
	if err := fx.clients[0].NewTree(histogram.AllFeatures(wt.m)); err != nil {
		t.Fatal(err)
	}
	hists := wt.dense
	if deferred {
		hists = wt.deferred
	}
	_, enc0 := WireBytes()
	var out wireOutcome
	push := func(i int) {
		for _, w := range order {
			if err := fx.clients[w].PushHistogram(wirePushed[i], hists[w][i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	read := func(node int, derive bool) {
		c := fx.clients[node%len(order)]
		pull := c.PullSplit
		if derive {
			pull = c.PullDerivedSplit
		}
		res, err := pull(node, 1.0, 0.0, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		s := res.Split
		rec := []uint64{b2u(s.Found), uint64(s.Feature), b2u(res.HasTotals)}
		for _, v := range []float64{s.Value, s.Gain, s.LeftG, s.LeftH, s.RightG, s.RightH, res.G, res.H} {
			rec = append(rec, math.Float64bits(v))
		}
		out.reads = append(out.reads, rec)
	}
	// A parent's shard is captured before its child is derived: the
	// derivation takes the parent's buffer over and retires it.
	captured := []int32{0, 1, 2, 5, 6}
	out.shards = make([][]uint64, len(captured)*len(fx.servers))
	capture := func(nodes ...int32) {
		for _, node := range nodes {
			k := slices.Index(captured, node)
			for sv, srv := range fx.servers {
				out.shards[sv*len(captured)+k] = shardBits(t, srv, node)
			}
		}
	}
	push(0)
	read(0, false)
	push(1)
	read(1, false)
	capture(0, 1)
	read(2, true)
	push(2)
	read(5, false)
	capture(2, 5)
	read(6, true)
	capture(6)
	if _, enc1 := WireBytes(); enc1["deferred/encode"] == enc0["deferred/encode"] {
		t.Fatal("no push travelled deferred")
	}
	return out
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// permutations returns every order of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(append([]int(nil), p[:at]...), n-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

// TestDeferredAndMaterialisedPushesAgree is part of invariant 18: on the
// exact and the raw float32 wire, pushing the workers' deferred histograms
// leaves the servers holding — merged, derived from a pushed parent and from
// a derived one — exactly the shards the materialised pushes of the same
// builds leave (every position touched, the node totals as the mass), bucket
// for bucket once materialised, and every split pull answers the same in
// every field. For 1–3 workers in every arrival order and 1–3 servers. Each
// parent's shard is compared as it stood before its child was derived from it
// in place.
func TestDeferredAndMaterialisedPushesAgree(t *testing.T) {
	for workers := 1; workers <= 3; workers++ {
		wt := newWireTree(t, workers)
		for servers := 1; servers <= 3; servers++ {
			for _, exact := range []bool{true, false} {
				for _, order := range permutations(workers) {
					name := fmt.Sprintf("w=%d p=%d exact=%v order=%v", workers, servers, exact, order)
					mat := wt.run(t, servers, exact, order, false)
					def := wt.run(t, servers, exact, order, true)
					for i := range mat.reads {
						if fmt.Sprint(mat.reads[i]) != fmt.Sprint(def.reads[i]) {
							t.Fatalf("%s: pull %d answers differently after deferred pushes", name, i)
						}
					}
					for i := range mat.shards {
						for j := range mat.shards[i] {
							if mat.shards[i][j] != def.shards[i][j] {
								t.Fatalf("%s: shard %d (server %d, node %d) bucket %d: %x deferred, %x materialised",
									name, i, i/5, []int{0, 1, 2, 5, 6}[i%5], j, def.shards[i][j], mat.shards[i][j])
							}
						}
					}
				}
			}
		}
	}
}

// deferredBody is a deferred shard push, field by field, so a test can write
// what no client would.
type deferredBody struct {
	widthG, widthH uint8
	npos           uint32
	touched        []byte
	massG, massH   float64
	maxAbs         float64
	countG, countH uint32
	// gaps, when not nil, sets gapsFlag and is sent in place of touched.
	gaps []byte
	// presence sets presentFlag and sends present and bitmap after countG.
	presence bool
	present  uint32
	bitmap   []byte
	dataG    []byte
	dataH    []byte
	tagH     uint8
}

func (b deferredBody) bytes() []byte {
	w := wire.NewWriter(64)
	mass := func(width uint8, m float64) {
		if uint(width) == compress.RawFloat32 {
			w.Float32(float32(m))
		} else {
			w.Float64(m)
		}
	}
	w.Uint8(VecDeferred)
	flags := uint8(0)
	if b.presence {
		flags |= presentFlag
	}
	if b.gaps != nil {
		flags |= gapsFlag
	}
	w.Uint8(b.widthG | flags)
	w.Uint32(b.npos)
	if b.gaps != nil {
		w.Raw(b.gaps)
	} else {
		w.Raw(b.touched)
	}
	mass(b.widthG, b.massG)
	w.Float64(b.maxAbs)
	w.Uint32(b.countG)
	if b.presence {
		w.Uint32(b.present)
		w.Raw(b.bitmap)
	}
	w.Raw(b.dataG)
	w.Uint8(b.tagH)
	w.Uint8(b.widthH)
	mass(b.widthH, b.massH)
	w.Float64(b.maxAbs)
	w.Uint32(b.countH)
	w.Raw(b.dataH)
	return w.Bytes()
}

// checkHostileDeferredPushes sends server sv deferred pushes no client
// writes, as a worker whose push would be parked, for a node nobody pushed:
// each must fail with a typed error before anything is merged or parked.
// layout is every feature at two buckets. The presence is a bitset and the
// bucket runs follow from the touched set and the shard layout, so runs that
// do not tile it cannot be written at all; a touched set sent as gaps cannot
// be unsorted, since every gap counts forward, but it can repeat a position
// (a zero gap), name more positions than the shard has, or run past it.
func checkHostileDeferredPushes(t *testing.T, fx *psFixture, sv int) {
	t.Helper()
	const node, worker = 9, 1
	srv := fx.servers[sv]
	npos := srv.tree.layout.NumFeatures()
	if npos%8 == 0 || npos < 2 {
		t.Fatalf("fixture shard has %d positions: need a partly used last byte", npos)
	}
	// Positions 0 and npos-1 touched, at float64: two buckets each.
	valid := deferredBody{
		widthG: uint8(compress.RawFloat64), widthH: uint8(compress.RawFloat64), tagH: VecDeferred,
		npos: uint32(npos), touched: make([]byte, (npos+7)/8),
		massG: -1.5, massH: 3, countG: 4, countH: 4,
		dataG: make([]byte, 32), dataH: make([]byte, 32),
	}
	valid.touched[0] |= 1
	valid.touched[(npos-1)/8] |= 1 << ((npos - 1) % 8)
	// The same positions as gaps: two of them, at 0 − (−1) and npos−1 − 0.
	gapList := func(count, first, second uint64) []byte {
		b := binary.AppendUvarint(nil, count)
		return binary.AppendUvarint(binary.AppendUvarint(b, first), second)
	}
	validGaps := valid
	validGaps.gaps = gapList(2, 1, uint64(npos-1))
	var shape *ShapeError
	send := func(body []byte) error {
		w := wire.NewWriter(64)
		w.Int32(worker)
		w.Uint64(fx.clients[0].seq.Add(1)) // any fresh seq
		w.Int32(node)
		w.Raw(body)
		_, err := fx.clients[0].ep.Call(serverName(sv), transport.Message{Op: OpPushHist, Body: w.Bytes()})
		return err
	}
	cases := []struct {
		name  string
		edit  func(b *deferredBody)
		check func(error) bool
	}{
		{"touched bit past the shard", func(b *deferredBody) {
			b.touched = append([]byte(nil), b.touched...)
			b.touched[len(b.touched)-1] |= 0x80
		}, func(err error) bool { return errors.Is(err, ErrTouchedOutsideShard) }},
		{"touched set of another shard size", func(b *deferredBody) { b.npos++ },
			func(err error) bool { return errors.As(err, &shape) }},
		{"g count mismatch", func(b *deferredBody) { b.countG = 5 }, func(err error) bool { return errors.As(err, &shape) }},
		{"h count mismatch", func(b *deferredBody) { b.countH = 3 }, func(err error) bool { return errors.As(err, &shape) }},
		{"NaN g mass", func(b *deferredBody) { b.massG = math.NaN() }, func(err error) bool { return errors.Is(err, compress.ErrBadHeader) }},
		{"infinite h mass", func(b *deferredBody) { b.massH = math.Inf(-1) }, func(err error) bool { return errors.Is(err, compress.ErrBadHeader) }},
		{"width 3", func(b *deferredBody) { b.widthG = 3 }, func(err error) bool { return errors.Is(err, compress.ErrBadWidth) }},
		{"width 200", func(b *deferredBody) { b.widthH = 200 }, func(err error) bool { return errors.Is(err, compress.ErrBadWidth) }},
		{"NaN scale", func(b *deferredBody) {
			b.widthG, b.widthH, b.maxAbs = 8, 8, math.NaN()
			b.dataG, b.dataH = make([]byte, 2), make([]byte, 2)
		}, func(err error) bool { return errors.Is(err, compress.ErrBadHeader) }},
		{"retired dense h after a deferred g", func(b *deferredBody) { b.tagH = 2 }, func(err error) bool { return errors.Is(err, compress.ErrBadHeader) }},
		{"presence bit past the touched buckets", func(b *deferredBody) {
			b.presence, b.present, b.bitmap = true, 2, []byte{0b10001}
		}, func(err error) bool { return errors.Is(err, compress.ErrBadHeader) }},
		{"present count other than the bitmap's", func(b *deferredBody) {
			b.presence, b.present, b.bitmap = true, 2, []byte{0b10}
		}, func(err error) bool { return errors.As(err, &shape) }},
		{"h count other than the present count", func(b *deferredBody) {
			b.presence, b.present, b.bitmap, b.dataG = true, 1, []byte{0b10}, make([]byte, 8)
		}, func(err error) bool { return errors.As(err, &shape) }},
		{"data for every touched bucket behind a bitmap of one", func(b *deferredBody) {
			b.presence, b.present, b.bitmap, b.countH = true, 1, []byte{0b01}, 1
		}, func(err error) bool { return errors.Is(err, compress.ErrBadHeader) }},
		{"more gaps than the shard has positions", func(b *deferredBody) { b.gaps = binary.AppendUvarint(nil, uint64(npos+1)) },
			func(err error) bool { return errors.Is(err, ErrTouchedOutsideShard) }},
		{"a zero gap", func(b *deferredBody) { b.gaps = gapList(2, 1, 0) },
			func(err error) bool { return errors.Is(err, compress.ErrBadHeader) }},
		{"a gap past the shard", func(b *deferredBody) { b.gaps = gapList(2, 1, uint64(npos)) },
			func(err error) bool { return errors.Is(err, ErrTouchedOutsideShard) }},
		{"a gap past every int", func(b *deferredBody) { b.gaps = gapList(2, 1, math.MaxUint64) },
			func(err error) bool { return errors.Is(err, ErrTouchedOutsideShard) }},
	}
	for _, tc := range cases {
		b := valid
		tc.edit(&b)
		if err := send(b.bytes()); !tc.check(err) {
			t.Errorf("%s: got %v", tc.name, err)
		}
	}
	body := valid.bytes()
	withPresence := valid
	withPresence.presence, withPresence.present, withPresence.bitmap = true, 1, []byte{0b01}
	withPresence.dataG, withPresence.countH, withPresence.dataH = make([]byte, 8), 1, make([]byte, 8)
	// A gap count the bytes after it cannot hold: every gap takes one at least.
	if err := send(binary.AppendUvarint(validGaps.bytes()[:6], uint64(npos))); !errors.Is(err, wire.ErrTruncated) {
		t.Errorf("more gaps than the bytes left: got %v", err)
	}
	// The retired dense (0–2) and sparse (3) tags in place of a deferred
	// push's.
	for tag := byte(0); tag <= 3; tag++ {
		if err := send(append([]byte{tag}, body[1:]...)); !errors.Is(err, compress.ErrBadHeader) {
			t.Errorf("a push tagged %d: got %v", tag, err)
		}
	}
	for _, b := range [][]byte{body, withPresence.bytes(), validGaps.bytes()} {
		for n := 0; n < len(b); n++ {
			if err := send(b[:n]); err == nil {
				t.Fatalf("a deferred push cut to %d of %d bytes was accepted", n, len(b))
			}
		}
	}
	if err := send(append(body, 0)); err == nil {
		t.Fatal("a deferred push with a trailing byte was accepted")
	}
	// A push in the retired dense float64 form: tag 2, then the vector.
	dense := wire.NewWriter(64)
	dense.Uint8(2)
	dense.Float64s(make([]float64, srv.tree.layout.TotalBuckets))
	dense.Raw(body[1+1+4+len(valid.touched)+8+8+4+len(valid.dataG):]) // valid's h vector
	if err := send(dense.Bytes()); !errors.Is(err, compress.ErrBadHeader) {
		t.Errorf("deferred h after a dense float64 g: got %v", err)
	}
	if _, n := srv.current(node); n != nil {
		t.Fatalf("server %d kept a shard of node %d after refusing every push for it", sv, node)
	}
	// The unedited bodies are well-formed, and name the same touched set: the
	// rejections were about the edits.
	fromBitmap, err := parseShard(body, srv.tree.layout)
	if err != nil {
		t.Fatalf("the valid deferred push: %v", err)
	}
	fromGaps, err := parseShard(validGaps.bytes(), srv.tree.layout)
	if err != nil {
		t.Fatalf("the valid deferred push, touched set as gaps: %v", err)
	}
	if fmt.Sprint(fromGaps.touched) != fmt.Sprint(fromBitmap.touched) {
		t.Fatalf("touched set %x as gaps, %x as a bitmap", fromGaps.touched, fromBitmap.touched)
	}
	if err := send(body); err != nil {
		t.Fatalf("the valid deferred push: %v", err)
	}
}

// deferredFuzz is FuzzDeferredVector's geometry: 150 features of one to four
// buckets over two servers, all of them sampled, laid out as workers and
// servers lay them out — the one-bucket ones left out.
type deferredFuzz struct {
	plan    *shardPlan
	servers []*histogram.Layout
}

func newDeferredFuzz(t testing.TB) *deferredFuzz {
	const m = 150
	part, err := NewPartition(m, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	cands := shapedCands(m)
	all := histogram.AllFeatures(m)
	fz := &deferredFuzz{plan: newShardPlan(part, workerLayout(t, all, cands, m))}
	for sv := 0; sv < part.NumServers; sv++ {
		fz.servers = append(fz.servers, workerLayout(t, part.FeaturesOf(sv, all), cands, m))
	}
	return fz
}

// histogram draws a deferred worker histogram from fuzz bytes: a touched bit
// per position from the first bytes, then the buckets of the touched
// positions and the two masses from the 8-byte groups that follow (as
// fuzzValues reads them), cycling when they run out.
func (fz *deferredFuzz) histogram(blob []byte) *histogram.Histogram {
	l := fz.plan.layout
	h := histogram.New(l)
	nb := min(len(blob), (l.NumFeatures()+7)/8)
	touched := make([]uint64, (l.NumFeatures()+63)/64)
	for p := 0; p < 8*nb && p < l.NumFeatures(); p++ {
		if blob[p/8]&(1<<(p%8)) != 0 {
			touched[p/64] |= 1 << (p % 64)
		}
	}
	vals := fuzzValues(blob[nb:])
	next := func() float64 {
		if len(vals) == 0 {
			return 0
		}
		v := vals[0]
		vals = append(vals[1:], v)
		return v
	}
	h.SetDeferred(touched, next(), next())
	for p := range l.Features {
		if touched[p/64]&(1<<(p%64)) != 0 {
			lo, hi := l.BucketRange(p)
			for i := lo; i < hi; i++ {
				h.G[i], h.H[i] = next(), next()
			}
		}
	}
	return h
}

// fuzzValues reads 8-byte groups as float64 bit patterns, every non-finite
// one and every group whose low three bits are zero as an exact zero.
func fuzzValues(blob []byte) []float64 {
	var out []float64
	for i := 0; i+8 <= len(blob); i += 8 {
		u := binary.LittleEndian.Uint64(blob[i:])
		v := math.Float64frombits(u)
		if !finite(v) || u&7 == 0 {
			v = 0
		}
		out = append(out, v)
	}
	return out
}

// fuzzWidths are the widths a deferred vector may carry.
var fuzzWidths = []uint{compress.RawFloat32, compress.RawFloat64, 2, 4, 8, 16}

// massSize is the wire size of a deferred mass at a width.
func massSize(width uint) int {
	if width == compress.RawFloat32 {
		return 4
	}
	return 8
}

// deferredShardSize is the exact wire size of a deferred shard push — both
// vectors — of a server's touched share ts of npos positions.
func deferredShardSize(ts *touchedShard, npos int, width uint) int {
	vec := 1 + 1 + massSize(width) + 8 + 4
	return 2*vec + 4 + min((npos+7)/8, ts.gaps) +
		min(2*compress.SpanDataSize(ts.buckets, width), presenceSize(ts.buckets, ts.present, width))
}

// body encodes server sv's shard of h at a width as a push body, as
// PushHistogram does — a materialised h with every position touched and its
// node totals as the mass — which must be as long as deferredShardSize says.
func (fz *deferredFuzz) body(t testing.TB, sv int, h *histogram.Histogram, width uint) []byte {
	var ts touchedShard
	fz.plan.touched(&ts, sv, h)
	w := wire.NewWriter(64)
	mg, mh := h.DeferredMass()
	if !h.Deferred() {
		mg, mh = h.FeatureTotals(0)
	}
	g, hs := spanParts(nil, ts.runs, h.G), spanParts(nil, ts.runs, h.H)
	if err := writeDeferredShard(w, compress.NewEncoder(1), width, &ts, fz.plan.npos[sv], mg, mh, g, hs); err != nil {
		t.Fatal(err)
	}
	if want := deferredShardSize(&ts, fz.plan.npos[sv], width); w.Len() != want {
		t.Fatalf("server %d: a %d-byte push, deferredShardSize says %d", sv, w.Len(), want)
	}
	return w.Bytes()
}

// fuzzSeed is touched-set bytes followed by the 8-byte groups of values, as
// deferredFuzz.histogram reads them.
func fuzzSeed(touched []byte, values ...float64) []byte {
	seed := append([]byte(nil), touched...)
	for _, v := range values {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	return seed
}

// FuzzDeferredVector: any bytes offered as a push body either fail to parse
// with an error or parse into a shard that merges — never a panic; and any
// deferred histogram, encoded at a raw width, decodes on the server side to
// the same touched set, the same masses and the same touched buckets,
// Float64bits-exact (narrowed to float32 on the float32 wire); at a
// fixed-point width, within a step of them. The seeds encode every width
// with every touched bucket sent and, where its empty buckets pay for it,
// behind the presence bitmap; each with the touched set as a bitmap and,
// for a few touched positions, as gaps; a materialised histogram's push, with
// every position touched; and pushes in the retired dense forms, tags 0–2.
func FuzzDeferredVector(f *testing.F) {
	fz := newDeferredFuzz(f)
	many, few := make([]byte, 19), make([]byte, 19)
	for i := range many {
		many[i] = byte(37 * i)
	}
	few[0], few[3], few[7], few[12], few[18] = 0x01, 0x80, 0x04, 0x20, 0x02
	// fuzzValues reads groups with three low zero bits as 0: these have none.
	fullValues := []float64{1.1, -2.3, 0.7, 3.3, 5.7, -1e-3, 0.1, 0.3}
	sparseValues := []float64{1.1, -2.3, 0, 0, 0, 0, 0, 0, 5.7, -1e-3}
	f.Add(uint8(0), []byte{})
	// Tag, count, values: the retired dense float32 and float64 vectors, and
	// the fixed-point one with its width, count, scale and data length.
	f.Add(uint8(0), []byte{0, 2, 0, 0, 0, 0, 0, 0x80, 0x3f, 0, 0, 0, 0})
	f.Add(uint8(1), append(fuzzSeed([]byte{1, 8, 2, 0, 0, 0}, 1), 2, 0, 0, 0, 0x7f, 0))
	f.Add(uint8(2), fuzzSeed([]byte{2, 1, 0, 0, 0}, 1.5))
	for sv := range fz.servers {
		m := fz.histogram(fuzzSeed(many, fullValues...))
		m.Materialize()
		f.Add(uint8(sv), fz.body(f, sv, m, compress.RawFloat64))
	}
	for sel := range fuzzWidths {
		for _, touched := range [][]byte{many, few} {
			full, sparse := fuzzSeed(touched, fullValues...), fuzzSeed(touched, sparseValues...)
			f.Add(uint8(sel), full)
			f.Add(uint8(sel), fz.body(f, sel%2, fz.histogram(full), fuzzWidths[sel]))
			f.Add(uint8(sel), fz.body(f, sel%2, fz.histogram(sparse), fuzzWidths[sel]))
		}
	}
	f.Fuzz(func(t *testing.T, sel uint8, blob []byte) {
		for _, layout := range fz.servers {
			if d, err := parseShard(blob, layout); err == nil {
				n := &nodeShard{tree: &treeShards{layout: layout, pool: histogram.NewPool(layout)}, hist: histogram.New(layout)}
				n.hist.Defer()
				n.add(d)
			}
		}

		width := fuzzWidths[int(sel)%len(fuzzWidths)]
		h := fz.histogram(blob)
		mg, mh := h.DeferredMass()
		if !finite(wireMass(mg, width)) || !finite(wireMass(mh, width)) {
			return // never sent: PushHistogram refuses it
		}
		for sv, layout := range fz.servers {
			d, err := parseShard(fz.body(t, sv, h, width), layout)
			if err != nil {
				t.Fatalf("server %d: own encoding at width %d did not parse: %v", sv, width, err)
			}
			got := histogram.New(layout)
			d.fill(got)
			if g, hs := got.DeferredMass(); g != wireMass(mg, width) || hs != wireMass(mh, width) {
				t.Fatalf("server %d: mass (%v, %v), sent (%v, %v) at width %d", sv, g, hs, mg, mh, width)
			}
			q := 0 // the server's position of worker position p
			for _, r := range fz.plan.pos[sv] {
				for wp := r.lo; wp < r.hi; wp, q = wp+1, q+1 {
					in := h.ScanWord(wp/64)&(1<<(wp%64)) != 0
					if out := got.ScanWord(q/64)&(1<<(q%64)) != 0; in != out {
						t.Fatalf("server %d position %d: touched %v, sent %v", sv, q, out, in)
					}
					if !in {
						continue
					}
					wlo, whi := fz.plan.layout.BucketRange(wp)
					slo, _ := layout.BucketRange(q)
					for k := 0; k < whi-wlo; k++ {
						checkDecoded(t, width, h.G[wlo+k], got.G[slo+k], d.g.maxAbs)
						checkDecoded(t, width, h.H[wlo+k], got.H[slo+k], d.h.maxAbs)
					}
				}
			}
		}
	})
}

// checkDecoded compares one decoded bucket with the value sent.
func checkDecoded(t *testing.T, width uint, sent, got, maxAbs float64) {
	t.Helper()
	switch width {
	case compress.RawFloat64:
		if math.Float64bits(got) != math.Float64bits(sent) {
			t.Fatalf("float64 wire: %v decoded as %v", sent, got)
		}
	case compress.RawFloat32:
		if math.Float64bits(got) != math.Float64bits(float64(float32(sent))) {
			t.Fatalf("float32 wire: %v decoded as %v", sent, got)
		}
	default:
		if step := maxAbs / float64(int64(1)<<(width-1)-1); math.Abs(got-sent) > step*(1+1e-9)+1e-300 {
			t.Fatalf("%d-bit wire: %v decoded as %v, step %v", width, sent, got, step)
		}
	}
}

// TestNegativeZeroBucketTravels: presence is decided bit for bit, so on the
// raw widths a touched bucket whose G is −0 and whose H is +0 is present and
// arrives as −0, while the buckets whose statistics are both +0 stay behind
// the presence bitmap.
func TestNegativeZeroBucketTravels(t *testing.T) {
	fz := newDeferredFuzz(t)
	l := fz.plan.layout
	p0, p1 := fz.plan.pos[0][0].lo, fz.plan.pos[0][0].lo+1 // server 0's positions 0 and 1
	touched := make([]uint64, (l.NumFeatures()+63)/64)
	for p := range l.Features {
		touched[p/64] |= 1 << (p % 64)
	}
	h := histogram.New(l)
	h.SetDeferred(touched, 1, 2)
	lo0, _ := l.BucketRange(p0)
	lo1, _ := l.BucketRange(p1)
	h.G[lo0] = math.Copysign(0, -1)
	h.G[lo1], h.H[lo1] = 1.5, 0.25
	for _, width := range []uint{compress.RawFloat64, compress.RawFloat32} {
		d, err := parseShard(fz.body(t, 0, h, width), fz.servers[0])
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if d.presence == nil {
			t.Fatalf("width %d: two present buckets of %d were sent without the bitmap", width, touchedBuckets(fz.servers[0], d.touched))
		}
		got := histogram.New(fz.servers[0])
		d.fill(got)
		slo1, _ := fz.servers[0].BucketRange(1)
		if g := got.G[0]; math.Float64bits(g) != math.Float64bits(math.Copysign(0, -1)) {
			t.Fatalf("width %d: the −0 bucket arrived as %v (bits %x)", width, g, math.Float64bits(g))
		}
		if got.G[slo1] != 1.5 || got.H[slo1] != 0.25 {
			t.Fatalf("width %d: bucket (1.5, 0.25) arrived as (%v, %v)", width, got.G[slo1], got.H[slo1])
		}
	}
}

// TestQuantizedShardsKeepExactTotals: at a fixed-point width a deferred
// shard's buckets carry rounding noise and its mass does not, so the node
// totals a split pull reports are the workers' masses summed in worker
// order, bit for bit — pushed and derived nodes alike — and the shards stay
// in touched space through the scan instead of failing the guard on the
// noise.
func TestQuantizedShardsKeepExactTotals(t *testing.T) {
	const workers = 3
	wt := newWireTree(t, workers)
	fx := newFixture(t, wt.m, 2, workers)
	for _, srv := range fx.servers {
		for f := range wt.cands {
			srv.cands[int32(f)] = wt.cands[f]
		}
	}
	for _, c := range fx.clients {
		c.Bits = 16
	}
	if err := fx.clients[0].NewTree(histogram.AllFeatures(wt.m)); err != nil {
		t.Fatal(err)
	}
	mass := func(i int) (g, h float64) {
		for w := 0; w < workers; w++ {
			mg, mh := wt.deferred[w][i].DeferredMass()
			g, h = g+mg, h+mh
		}
		return g, h
	}
	check := func(node int, derive bool, wantG, wantH float64) {
		t.Helper()
		pull := fx.clients[0].PullSplit
		if derive {
			pull = fx.clients[0].PullDerivedSplit
		}
		res, err := pull(node, 1.0, 0.0, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res.G) != math.Float64bits(wantG) || math.Float64bits(res.H) != math.Float64bits(wantH) {
			t.Fatalf("node %d totals (%v, %v), the masses sum to (%v, %v)", node, res.G, res.H, wantG, wantH)
		}
		for _, srv := range fx.servers {
			if _, n := srv.current(int32(node)); !n.hist.Deferred() {
				t.Fatalf("server %d materialised node %d to scan it", srv.id, node)
			}
		}
	}
	for i, node := range wirePushed[:2] {
		for w := 0; w < workers; w++ {
			if err := fx.clients[w].PushHistogram(node, wt.deferred[w][i].Clone()); err != nil {
				t.Fatal(err)
			}
		}
	}
	g0, h0 := mass(0)
	g1, h1 := mass(1)
	check(0, false, g0, h0)
	check(1, false, g1, h1)
	check(2, true, g0-g1, h0-h1)
}
