package ps

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"dimboost/internal/compress"
	"dimboost/internal/histogram"
	"dimboost/internal/sketch"
	"dimboost/internal/transport"
	"dimboost/internal/wire"
)

// The reference push encoder: the per-feature scatter, the field-by-field
// framing and the bit-at-a-time fixed-point packer, kept as the
// byte-identity oracle. Payloads are part of the model's reproducibility (the
// stochastic rounder's stream position decides every quantized bucket), so
// the planned, in-place path must produce exactly these bytes.

// refShardArrays extracts a server's buckets feature by feature.
func refShardArrays(part *Partition, sv int, hist *histogram.Histogram) (g, h []float64) {
	l := hist.Layout
	for _, f := range l.Features {
		if part.ServerOf(f) != sv {
			continue
		}
		lo, hi := l.BucketRange(int(l.Pos(f)))
		g = append(g, hist.G[lo:hi]...)
		h = append(h, hist.H[lo:hi]...)
	}
	return
}

// refPutBits writes the low `bits` bits of v at element index i.
func refPutBits(data []byte, i int, bits uint, v uint64) {
	bitPos := i * int(bits)
	for b := uint(0); b < bits; b += 8 {
		byteIdx := (bitPos + int(b)) / 8
		shift := uint(bitPos+int(b)) % 8
		chunk := byte(v >> b)
		if bits-b < 8 {
			chunk &= (1 << (bits - b)) - 1
		}
		data[byteIdx] |= chunk << shift
		if shift != 0 && int(8-shift) < int(bits-b) {
			data[byteIdx+1] |= chunk >> (8 - shift)
		}
	}
}

// capturingEndpoint keeps a copy of every request it forwards, per callee.
type capturingEndpoint struct {
	transport.Endpoint
	mu   sync.Mutex // fan-outs call concurrently
	sent map[string][][]byte
}

func (e *capturingEndpoint) Call(to string, req transport.Message) (transport.Message, error) {
	if req.Op == OpPushHist {
		e.mu.Lock()
		e.sent[to] = append(e.sent[to], append([]byte(nil), req.Body...))
		e.mu.Unlock()
	}
	return e.Endpoint.Call(to, req)
}

// shapedCands gives feature f between one and four buckets, so spans have
// uneven widths.
func shapedCands(m int) []sketch.Candidates {
	cands := make([]sketch.Candidates, m)
	for f := range cands {
		cuts := []float64{0}
		for k := 1; k <= f%4; k++ {
			cuts = append(cuts, float64(k))
		}
		cands[f] = sketch.FromCuts(cuts)
	}
	return cands
}

// workerLayout lays a tree's histograms out as a worker does, and as every
// server lays out its shard: over the sampled features whose candidates can
// split (histogram.Splittable). cands is indexed by feature id.
func workerLayout(t testing.TB, sampled []int32, cands []sketch.Candidates, m int) *histogram.Layout {
	t.Helper()
	layout, err := histogram.NewLayout(histogram.Splittable(sampled, cands), cands, m)
	if err != nil {
		t.Fatal(err)
	}
	return layout
}

// fillHist populates a histogram with runs of zeros and nonzeros of mixed
// length, deterministically per (worker, node).
func fillHist(h *histogram.Histogram, seed int64, density float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range h.G {
		h.G[i], h.H[i] = 0, 0
		if rng.Float64() < density {
			h.G[i] = rng.NormFloat64()
			h.H[i] = rng.Float64()
		}
	}
}

// pushGeometry is one partition/sampling shape of the identity matrix.
type pushGeometry struct {
	name              string
	m, servers, nrang int
	sampled           func(p *Partition) []int32
}

func everyKth(k int) func(*Partition) []int32 {
	return func(p *Partition) []int32 {
		var out []int32
		for f := 0; f < p.NumFeatures; f += k {
			out = append(out, int32(f))
		}
		return out
	}
}

func allFeatures(p *Partition) []int32 { return histogram.AllFeatures(p.NumFeatures) }

// notOnServer samples exactly the features server sv does not own, leaving
// it an empty shard.
func notOnServer(sv int) func(*Partition) []int32 {
	return func(p *Partition) []int32 {
		var out []int32
		for f := int32(0); int(f) < p.NumFeatures; f++ {
			if p.ServerOf(f) != sv {
				out = append(out, f)
			}
		}
		return out
	}
}

var pushGeometries = []pushGeometry{
	{"all features", 97, 3, 0, allFeatures},
	{"sampled with gaps", 211, 3, 0, everyKth(3)},
	{"more ranges than sampled features", 300, 2, 300, everyKth(17)},
	{"ranges clamped to features", 13, 4, 1000, allFeatures},
	{"empty server shard", 120, 3, 0, notOnServer(2)},
}

// TestPushOverEverySampledFeature: a histogram laid out over every sampled
// feature, one-bucket ones included (as the benchmark harness lays one out),
// pushes the bytes the same histogram pushes laid out as a worker lays it
// out: the one-bucket positions are in no server's shard.
func TestPushOverEverySampledFeature(t *testing.T) {
	for _, geo := range pushGeometries {
		for _, bits := range []uint{0, 8} {
			c, capt, _, layout := pushFleet(t, geo, bits, false)
			sampled := geo.sampled(c.part)
			declared, err := histogram.NewLayout(sampled, shapedCands(geo.m), geo.m)
			if err != nil {
				t.Fatal(err)
			}
			worker := histogram.New(layout)
			fillDeferred(worker, 7, 0.4)
			wide := histogram.New(declared)
			touched := make([]uint64, (declared.NumFeatures()+63)/64)
			for p, f := range layout.Features {
				q := declared.Pos(f)
				if worker.ScanWord(p/64)&(1<<(p%64)) != 0 {
					touched[q/64] |= 1 << (q % 64)
				}
				lo, hi := layout.BucketRange(p)
				wlo, _ := declared.BucketRange(int(q))
				copy(wide.G[wlo:], worker.G[lo:hi])
				copy(wide.H[wlo:], worker.H[lo:hi])
			}
			mg, mh := worker.DeferredMass()
			wide.SetDeferred(touched, mg, mh)
			// Each push stochastic-rounds from the client's one encoder, so
			// the two go through fresh clients seeded alike, the second past
			// the first's seqs so the servers take it as a new request.
			for i, h := range []*histogram.Histogram{worker, wide} {
				fresh := NewClient(capt, c.part, c.servers, 1)
				fresh.Bits = bits
				fresh.seq.Store(uint64(100 * i))
				if err := fresh.PushHistogram(i, h); err != nil {
					t.Fatalf("%s bits=%d push %d: %v", geo.name, bits, i, err)
				}
			}
			for sv, bodies := range capt.sent {
				// Envelope (worker, seq) and node id differ; the shards must not.
				if a, b := bodies[0][16:], bodies[1][16:]; !bytes.Equal(a, b) {
					t.Fatalf("%s bits=%d %s: a push over every sampled feature sent %d bytes, a worker's %d", geo.name, bits, sv, len(b), len(a))
				}
			}
		}
	}
}

// TestPushPayloadsMatchReference: for every width × exact mode and every
// shard geometry, each byte the client hands the transport — envelope
// included — equals the reference encoder's, across consecutive pushes (so
// the rounding stream stays in step): for a materialised histogram, every
// position touched and its node totals as the mass; for a deferred one, its
// touched set and mass. The densities run from an empty push (a worker with
// no rows in the node), whose touched set goes as gaps, past the point where
// the bitmap is the smaller form.
func TestPushPayloadsMatchReference(t *testing.T) {
	type mode struct {
		bits  uint
		exact bool
	}
	var modes []mode
	for _, bits := range []uint{0, 2, 4, 8, 16} {
		modes = append(modes, mode{bits, false})
	}
	modes = append(modes, mode{0, true})

	for _, geo := range pushGeometries {
		for _, md := range modes {
			for _, density := range []float64{0, 0.03, 0.15, 0.6} {
				name := fmt.Sprintf("%s/bits=%d exact=%v density=%v", geo.name, md.bits, md.exact, density)
				t.Run(name, func(t *testing.T) {
					checkPushIdentity(t, geo, md.bits, md.exact, density)
				})
				t.Run("deferred/"+name, func(t *testing.T) {
					checkDeferredPush(t, geo, md.bits, md.exact, density)
				})
			}
		}
	}
}

// checkPushIdentity pushes materialised histograms: their bytes are the
// reference's, and on an exact wire the servers hold the pushed buckets bit
// for bit, gaps included.
func checkPushIdentity(t *testing.T, geo pushGeometry, bits uint, exact bool, density float64) {
	c, capt, servers, layout := pushFleet(t, geo, bits, exact)
	ref := rand.New(rand.NewSource(2)) // pushFleet's client is worker 1
	width := vecEncoding{bits: bits, exact: exact}.spanBits()
	hist := histogram.New(layout)
	const pushes = 3
	for node := 0; node < pushes; node++ {
		fillHist(hist, int64(100*node+7), density)
		seq0 := c.seq.Load()
		if err := c.PushHistogram(node, hist); err != nil {
			t.Fatal(err)
		}
		for sv := range servers {
			encode, _ := refDeferredShard(c.part, sv, hist, width)
			want := wire.NewWriter(64)
			want.Int32(1)
			want.Uint64(seq0 + uint64(sv) + 1)
			want.Int32(int32(node))
			want.Raw(encode(ref))
			if got := capt.sent[serverName(sv)][node]; !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("server %d node %d: %d payload bytes differ from the reference's %d", sv, node, len(got), want.Len())
			}
		}
		if !exact {
			continue
		}
		got := mergedHistogram(t, servers, layout, int32(node))
		for i := range hist.G {
			if math.Float64bits(got.G[i]) != math.Float64bits(hist.G[i]) || math.Float64bits(got.H[i]) != math.Float64bits(hist.H[i]) {
				t.Fatalf("node %d bucket %d: held (%v,%v), pushed (%v,%v)", node, i, got.G[i], got.H[i], hist.G[i], hist.H[i])
			}
		}
	}
}

// TestPartitionTableMatchesFNV pins the precomputed range→server table to
// the FNV-1a assignment every recorded layout was produced with, and the
// range-walking FeaturesOf to the per-feature filter it replaced.
func TestPartitionTableMatchesFNV(t *testing.T) {
	for _, tc := range []struct{ m, p, r int }{{100, 4, 0}, {330, 7, 0}, {5, 8, 0}, {100_000, 2, 0}, {1000, 3, 1 << 20}} {
		part, err := NewPartition(tc.m, tc.p, tc.r)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < part.NumRanges; r++ {
			// hash/fnv's New32a over the four little-endian index bytes.
			h := uint32(2166136261)
			for _, b := range []byte{byte(r), byte(r >> 8), byte(r >> 16), byte(r >> 24)} {
				h ^= uint32(b)
				h *= 16777619
			}
			if want := int(h % uint32(tc.p)); part.serverOfRange(r) != want {
				t.Fatalf("m=%d p=%d: range %d on server %d, FNV-1a says %d", tc.m, tc.p, r, part.serverOfRange(r), want)
			}
		}
		for _, features := range [][]int32{allFeatures(part), everyKth(7)(part), {int32(tc.m - 1)}, nil} {
			for sv := 0; sv < tc.p; sv++ {
				var want []int32
				for _, f := range features {
					if part.ServerOf(f) == sv {
						want = append(want, f)
					}
				}
				got := part.FeaturesOf(sv, features)
				if len(got) != len(want) {
					t.Fatalf("m=%d p=%d sv=%d: %d features, want %d", tc.m, tc.p, sv, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("m=%d p=%d sv=%d: feature %d is %d, want %d", tc.m, tc.p, sv, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestNonFinitePushRejected: a NaN bucket has no fixed-point encoding, and a
// mass that is not finite on the wire — NaN, or past float32 on the float32
// wire — could not merge; each push fails on the client with the typed error
// instead of shipping garbage.
func TestNonFinitePushRejected(t *testing.T) {
	pb := newPushBench(t, 50)
	c := pb.fx.clients[0]
	pb.hist.G[3] = math.NaN()
	if err := c.PushHistogram(0, pb.hist); !errors.Is(err, compress.ErrNonFinite) {
		t.Fatalf("NaN bucket at 16 bits: got %v, want ErrNonFinite", err)
	}
	c.Bits = 0
	for _, mass := range []float64{math.NaN(), 1e300} {
		h := histogram.New(pb.hist.Layout)
		h.SetDeferred(make([]uint64, (h.Layout.NumFeatures()+63)/64), mass, 1)
		if err := c.PushHistogram(0, h); !errors.Is(err, compress.ErrNonFinite) {
			t.Fatalf("mass %v on the float32 wire: got %v, want ErrNonFinite", mass, err)
		}
	}
}

// pushFleet is a fleet of servers with the shaped candidates installed and
// one capturing client, ready for a tree's pushes.
func pushFleet(t *testing.T, geo pushGeometry, bits uint, exact bool) (*Client, *capturingEndpoint, []*Server, *histogram.Layout) {
	t.Helper()
	net := transport.NewMemNetwork()
	t.Cleanup(func() { net.Close() })
	part, err := NewPartition(geo.m, geo.servers, geo.nrang)
	if err != nil {
		t.Fatal(err)
	}
	cands := shapedCands(geo.m)
	names := make([]string, geo.servers)
	servers := make([]*Server, geo.servers)
	for i := range names {
		names[i] = serverName(i)
		ep, err := net.Endpoint(names[i])
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = NewServer(i, part, 0.02)
		for f := range cands {
			servers[i].cands[int32(f)] = cands[f]
		}
		ep.Handle(servers[i].Handler())
	}
	ep, err := net.Endpoint(workerName(1))
	if err != nil {
		t.Fatal(err)
	}
	capt := &capturingEndpoint{Endpoint: ep, sent: make(map[string][][]byte)}
	c := NewClient(capt, part, names, 1)
	c.Bits, c.Exact = bits, exact
	sampled := geo.sampled(part)
	if err := c.NewTree(sampled); err != nil {
		t.Fatal(err)
	}
	return c, capt, servers, workerLayout(t, sampled, cands, geo.m)
}

// fillDeferred makes h (zeroed) a deferred histogram touching each position
// with probability density, with runs of zeros and nonzeros in the touched
// positions' buckets and nonzero masses, deterministically per seed.
func fillDeferred(h *histogram.Histogram, seed int64, density float64) {
	rng := rand.New(rand.NewSource(seed))
	l := h.Layout
	touched := make([]uint64, (l.NumFeatures()+63)/64)
	for p := range l.Features {
		if rng.Float64() < density {
			touched[p/64] |= 1 << (p % 64)
		}
	}
	h.SetDeferred(touched, rng.NormFloat64(), 1+rng.Float64())
	for p := range l.Features {
		if touched[p/64]&(1<<(p%64)) == 0 {
			continue
		}
		lo, hi := l.BucketRange(p)
		for i := lo; i < hi; i++ {
			if rng.Float64() < 0.7 {
				h.G[i], h.H[i] = rng.NormFloat64(), rng.Float64()
			}
		}
	}
}

// refDeferredShard is the reference for server sv's shard of a push — every
// position touched and the node totals as the mass when h is materialised:
// the server's positions found feature by feature, every touched
// bucket present unless its G and H are both +0 bit for bit, and encode
// writing the two vectors field by field — the touched set as gaps when they
// are smaller than its bitmap, the present buckets behind their bitmap when
// that is smaller, every touched bucket otherwise — with one rounding draw
// per touched bucket at fixed point. unbitmapped is the size the push had
// before either bitmap had an alternative, when the touched set always went
// as a bitmap and every touched bucket was sent.
func refDeferredShard(part *Partition, sv int, h *histogram.Histogram, width uint) (encode func(rng *rand.Rand) []byte, unbitmapped int) {
	l := h.Layout
	var touched []bool
	var g, hs []float64
	for p, f := range l.Features {
		if part.ServerOf(f) != sv {
			continue
		}
		in := h.ScanWord(p/64)&(1<<(p%64)) != 0
		touched = append(touched, in)
		if in {
			lo, hi := l.BucketRange(p)
			g, hs = append(g, h.G[lo:hi]...), append(hs, h.H[lo:hi]...)
		}
	}
	var present []bool
	npresent := 0
	for i := range g {
		in := math.Float64bits(g[i])|math.Float64bits(hs[i]) != 0
		present = append(present, in)
		if in {
			npresent++
		}
	}
	raw := width == compress.RawFloat32 || width == compress.RawFloat64
	dataSize := func(n int) int {
		switch width {
		case compress.RawFloat32:
			return 4 * n
		case compress.RawFloat64:
			return 8 * n
		}
		return (n*int(width) + 7) / 8
	}
	massSize := 8
	if width == compress.RawFloat32 {
		massSize = 4
	}
	unbitmapped = 2*(1+1+massSize+8+4) + 4 + (len(touched)+7)/8 + 2*dataSize(len(g))
	bitmap := 4+(len(g)+7)/8+2*dataSize(npresent) < 2*dataSize(len(g))
	sent := len(g)
	if bitmap {
		sent = npresent
	}
	var gapList []byte
	ntouched, prev := 0, -1
	for q, in := range touched {
		if in {
			gapList = binary.AppendUvarint(gapList, uint64(q-prev))
			ntouched, prev = ntouched+1, q
		}
	}
	gapList = append(binary.AppendUvarint(nil, uint64(ntouched)), gapList...)
	gaps := len(gapList) < (len(touched)+7)/8
	bitset := func(bs []bool) []byte {
		b := make([]byte, (len(bs)+7)/8)
		for i, in := range bs {
			if in {
				b[i/8] |= 1 << (i % 8)
			}
		}
		return b
	}
	massG, massH := h.DeferredMass()
	if !h.Deferred() {
		massG, massH = h.FeatureTotals(0)
	}
	encode = func(rng *rand.Rand) []byte {
		w := wire.NewWriter(64)
		vector := func(vs []float64, mass float64, first bool) {
			w.Uint8(VecDeferred)
			flags := uint8(0)
			if first && bitmap {
				flags |= 0x80
			}
			if first && gaps {
				flags |= 0x20
			}
			w.Uint8(uint8(width) | flags)
			if first {
				w.Uint32(uint32(len(touched)))
				if gaps {
					w.Raw(gapList)
				} else {
					w.Raw(bitset(touched))
				}
			}
			if width == compress.RawFloat32 {
				w.Float32(float32(mass))
			} else {
				w.Float64(mass)
			}
			maxAbs := 0.0
			if !raw {
				for _, v := range vs {
					maxAbs = math.Max(maxAbs, math.Abs(v))
				}
			}
			w.Float64(maxAbs)
			switch {
			case first && bitmap:
				w.Uint32(uint32(len(g)))
				w.Uint32(uint32(npresent))
				w.Raw(bitset(present))
			case first:
				w.Uint32(uint32(len(g)))
			default:
				w.Uint32(uint32(sent))
			}
			data := make([]byte, dataSize(sent))
			j := 0
			for i, v := range vs {
				var q int64
				if !raw && maxAbs != 0 {
					t := v / maxAbs * float64(int64(1)<<(width-1)-1)
					f := math.Floor(t)
					q = int64(f)
					if rng.Float64() < t-f {
						q++
					}
				}
				if bitmap && !present[i] {
					continue
				}
				switch width {
				case compress.RawFloat32:
					binary.LittleEndian.PutUint32(data[4*j:], math.Float32bits(float32(v)))
				case compress.RawFloat64:
					binary.LittleEndian.PutUint64(data[8*j:], math.Float64bits(v))
				default:
					refPutBits(data, j, width, uint64(q)&((1<<width)-1))
				}
				j++
			}
			w.Raw(data)
		}
		vector(g, massG, true)
		vector(hs, massH, false)
		return w.Bytes()
	}
	return encode, unbitmapped
}

// checkDeferredPush pushes deferred histograms and their materialised forms
// through two fleets. Every byte of every push — envelope included — equals
// the reference encoder's, across consecutive pushes; no deferred push is
// larger than it would be with the touched bitmap and every touched bucket;
// and the servers hold what the materialised pushes leave.
func checkDeferredPush(t *testing.T, geo pushGeometry, bits uint, exact bool, density float64) {
	cd, capD, srvD, layout := pushFleet(t, geo, bits, exact)
	cm, capM, srvM, _ := pushFleet(t, geo, bits, exact)
	sent := func(c *capturingEndpoint, node int) (n int) {
		for sv := 0; sv < geo.servers; sv++ {
			n += len(c.sent[serverName(sv)][node])
		}
		return n
	}
	refD, refM := rand.New(rand.NewSource(2)), rand.New(rand.NewSource(2)) // pushFleet's client is worker 1
	width := vecEncoding{bits: bits, exact: exact}.spanBits()
	const pushes = 3
	for node := 0; node < pushes; node++ {
		h := histogram.New(layout)
		fillDeferred(h, int64(100*node+7), density)
		pushed := h.Clone()
		m := h.Clone()
		m.Materialize()
		seq0 := cd.seq.Load()
		if err := cd.PushHistogram(node, pushed); err != nil {
			t.Fatal(err)
		}
		if err := cm.PushHistogram(node, m); err != nil {
			t.Fatal(err)
		}
		before := 0
		for sv := 0; sv < geo.servers; sv++ {
			encode, unbitmapped := refDeferredShard(cd.part, sv, h, width)
			before += envelopeSize + 4 + unbitmapped
			encodeM, _ := refDeferredShard(cm.part, sv, m, width)
			for _, push := range []struct {
				what   string
				got    []byte
				encode func(*rand.Rand) []byte
				rng    *rand.Rand
			}{
				{"deferred", capD.sent[serverName(sv)][node], encode, refD},
				{"materialised", capM.sent[serverName(sv)][node], encodeM, refM},
			} {
				want := wire.NewWriter(64)
				want.Int32(1)
				want.Uint64(seq0 + uint64(sv) + 1)
				want.Int32(int32(node))
				want.Raw(push.encode(push.rng))
				if !bytes.Equal(push.got, want.Bytes()) {
					t.Fatalf("node %d server %d: %d bytes of the %s push differ from the reference's %d", node, sv, len(push.got), push.what, want.Len())
				}
			}
		}
		if d := sent(capD, node); d > before {
			t.Fatalf("node %d: the deferred push put %d bytes on the wire, with the touched bitmap and every touched bucket %d", node, d, before)
		}
		for sv := range srvD {
			got, want := shardBits(t, srvD[sv], int32(node)), shardBits(t, srvM[sv], int32(node))
			if bits == 0 {
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("node %d server %d bucket %d: %x after the deferred push, %x after the materialised one", node, sv, i, got[i], want[i])
					}
				}
				continue
			}
			// Fixed point rounds the two pushes with other draws (and the
			// deferred one over the touched buckets only): every bucket
			// within a step of the histogram's, the untouched ones exact.
			g, hs := refShardArrays(cd.part, sv, m)
			vals := append(g, hs...)
			maxAbs, _ := compress.MaxAbs(vals)
			step := maxAbs / float64(int64(1)<<(bits-1)-1) * (1 + 1e-12)
			for i, v := range vals {
				if d := math.Abs(math.Float64frombits(got[i]) - v); d > step {
					t.Fatalf("node %d server %d bucket %d: %v after the deferred push, %v pushed (step %v)", node, sv, i, math.Float64frombits(got[i]), v, step)
				}
			}
		}
	}
}
