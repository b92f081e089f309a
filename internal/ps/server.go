package ps

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"dimboost/internal/compress"
	"dimboost/internal/core"
	"dimboost/internal/histogram"
	"dimboost/internal/sketch"
	"dimboost/internal/transport"
	"dimboost/internal/wire"
)

// Server is one parameter-server shard. It owns the features of its hash
// ranges: their quantile sketches, split candidates, histogram buckets of
// every active tree node, and the split results of the nodes it is the
// NodeOwner of. Handlers are invoked concurrently by the transport: mu
// guards the maps and per-tree fields, and each node's histogram
// accumulator has its own lock so pushes for different nodes merge in
// parallel.
type Server struct {
	id   int
	part *Partition
	eps  float64 // sketch rank error

	mu sync.Mutex
	// pendingSketches buffers per-worker sketch pushes; they merge in
	// worker-id order at candidate proposal so the result is independent
	// of push arrival order (GK merging is not order-commutative at the
	// bit level). The first PULL_CANDIDATES proposes every buffered feature
	// and drops the sketches (nil from then on): what later pulls answer is
	// proposed, the sorted features with a sketch, and their cands.
	pendingSketches map[int32]map[int32]*sketch.GK
	proposed        []int32
	cands           map[int32]sketch.Candidates
	sampled         []int32
	// tree is the current tree's histogram state, nil before the first
	// NEW_TREE, which replaces it.
	tree   *treeShards
	splits map[int32]core.Decision
	// applied is the highest request seq applied per worker (see the
	// envelope notes in proto.go). A mutating request at or below it is a
	// duplicate — a transport-level retry whose original did land — and is
	// acknowledged without re-applying. Never reset by NEW_TREE: seqs span
	// the whole training run.
	applied map[int32]uint64
}

// treeShards is one tree's histogram state on a server: the sample it was
// laid out for, the shard layout (the owned sampled features that can split,
// histogram.Splittable, as every worker's layout keeps them), the pool its
// node shards and push scratch come from, and the node shards pushed or
// derived so far (guarded by Server.mu). A node a derivation retired keeps
// its entry, without a histogram, so the pool holds about one layer of
// shards, not the tree's.
// NEW_TREE replaces it whole — keeping layout and pool when the sample did
// not change, so a run over all features allocates its shards once — and a
// request holding the old one finds itself overtaken.
type treeShards struct {
	sampled []int32
	layout  *histogram.Layout
	pool    *histogram.Pool
	nodes   map[int32]*nodeShard
	// massTotals says the first sampled feature the server owns was left out
	// of the layout. Its one bucket held its node's whole mass, never a
	// touched value, so the node totals a split pull reports are 0 plus the
	// deferred mass, what FeatureTotals gave for it; a server whose owned
	// sampled features all were left out answers them from zero-position
	// shards.
	massTotals bool
}

// nodeShard accumulates one node's histogram restricted to this server's
// features, under the tree's shard layout. It is deferred throughout: every
// push is a deferred shard, merged over the union of the touched sets
// (histogram.Histogram.Add). Float addition is not associative, so worker
// shards are merged in ascending worker id whatever order they arrive in:
// next is the frontier — every worker below it is already in hist. A push from worker == next merges
// straight from the request and advances the frontier through any parked
// successors; a push from beyond the frontier is parked as a copy of its wire
// bytes (compressed size, not decoded size). A pull folds whatever is still
// parked in ascending worker id and seals the node. Deriving a child from the
// node retires it (Server.derive).
type nodeShard struct {
	mu   sync.Mutex
	id   int32
	tree *treeShards
	// hist is nil once the node is retired: by NEW_TREE, or by the derivation
	// of child, which took the buffer over.
	hist   *histogram.Histogram
	child  *nodeShard
	next   int32
	parked map[int32][]byte
	// pushed records the request seq accepted from each worker, which tells
	// a resent push (same seq: acknowledge) from a second one (reject).
	pushed map[int32]uint64
	sealed bool
	// quantized is set once a merged push — or an operand of a derivation —
	// carried fixed-point buckets: the deferred mass is then the one exact
	// statistic the shard holds.
	quantized bool
}

// RepushError rejects a histogram push the accumulator cannot take: the
// worker already pushed this node under another request, or the node's
// merge has already been read by a pull. Accepting either would silently
// change a histogram other workers may have split on.
type RepushError struct {
	Node, Worker int32
	// Sealed is true when the push arrived after a pull of the node.
	Sealed bool
}

func (e *RepushError) Error() string {
	if e.Sealed {
		return fmt.Sprintf("ps: histogram push for node %d from worker %d after the node was pulled", e.Node, e.Worker)
	}
	return fmt.Sprintf("ps: worker %d already pushed a histogram for node %d this tree", e.Worker, e.Node)
}

// DeriveError rejects a pull that asked for a node's shard to be derived as
// parent − sibling when the server holds no shard of Missing, the parent or
// the sibling. Answering with whatever a missing operand would leave — the
// parent's histogram, or zeros — would split the node on another node's data.
type DeriveError struct {
	Node, Missing int32
}

func (e *DeriveError) Error() string {
	return fmt.Sprintf("ps: cannot derive node %d: no histogram shard for node %d this tree", e.Node, e.Missing)
}

// RetiredError rejects a pull of a node whose shard is gone: a derivation
// subtracted the sibling from it in place, and its buffer is the derived
// Child's shard now. The derivation is a node's last use in the protocol —
// every pull of a layer ends before its FIND_SPLIT barrier — so only a stale
// or misrouted pull gets here; answering it from the child would split the
// node on another node's data.
type RetiredError struct {
	Node, Child int32
}

func (e *RetiredError) Error() string {
	return fmt.Sprintf("ps: node %d was retired when node %d was derived from it", e.Node, e.Child)
}

// NewServer constructs a server for shard id under the partition.
func NewServer(id int, part *Partition, sketchEps float64) *Server {
	return &Server{
		id:              id,
		part:            part,
		eps:             sketchEps,
		pendingSketches: make(map[int32]map[int32]*sketch.GK),
		cands:           make(map[int32]sketch.Candidates),
		splits:          make(map[int32]core.Decision),
		applied:         make(map[int32]uint64),
	}
}

// isDuplicate reports whether a mutating request's seq was already applied
// for the worker.
func (s *Server) isDuplicate(worker int32, seq uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return seq <= s.applied[worker]
}

// recordApplied advances the worker's applied-seq watermark.
func (s *Server) recordApplied(worker int32, seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq > s.applied[worker] {
		s.applied[worker] = seq
	}
}

// Handler returns the transport handler serving the PS protocol. Every
// request starts with the (worker, seq) envelope; duplicate mutating
// requests — retries whose original attempt did apply — are acknowledged
// without re-applying.
func (s *Server) Handler() transport.Handler {
	m, _ := psMetrics()
	inner := func(from string, req transport.Message) (transport.Message, error) {
		r := wire.NewReader(req.Body)
		worker := r.Int32()
		seq := r.Uint64()
		if err := r.Err(); err != nil {
			return transport.Message{}, fmt.Errorf("ps: server %d: op %d: bad envelope: %w", s.id, req.Op, err)
		}
		mutating := mutatingOp(req.Op)
		if mutating && s.isDuplicate(worker, seq) {
			// Mutating ops answer with empty bodies, so the duplicate ack is
			// byte-identical to the original response.
			m.dedupHits.Inc()
			return transport.Message{Op: req.Op}, nil
		}
		var resp *wire.Writer
		var err error
		switch req.Op {
		case OpPushSketch:
			resp, err = s.pushSketch(worker, r)
		case OpPullCandidates:
			resp, err = s.pullCandidates(r)
		case OpPushSampled:
			resp, err = s.pushSampled(r)
		case OpPullSampled:
			resp, err = s.pullSampled()
		case OpNewTree:
			resp, err = s.newTree(r)
		case OpPushHist:
			resp, err = s.pushHist(worker, seq, r)
		case OpPullSplit:
			resp, err = s.pullSplit(r)
		case OpPushSplitResult:
			resp, err = s.pushSplitResult(r)
		case OpPullSplitResults:
			resp, err = s.pullSplitResults(r)
		default:
			return transport.Message{}, fmt.Errorf("ps: server %d: unknown op %d", s.id, req.Op)
		}
		if err != nil {
			return transport.Message{}, fmt.Errorf("ps: server %d: op %d: %w", s.id, req.Op, err)
		}
		if rerr := r.Err(); rerr != nil {
			return transport.Message{}, fmt.Errorf("ps: server %d: op %d: %w", s.id, req.Op, rerr)
		}
		if mutating {
			s.recordApplied(worker, seq)
		}
		if resp == nil {
			resp = wire.NewWriter(0)
		}
		return transport.Message{Op: req.Op, Body: resp.Bytes()}, nil
	}
	return func(from string, req transport.Message) (transport.Message, error) {
		start := time.Now()
		resp, err := inner(from, req)
		m.observe(req.Op, req.Size(), resp.Size(), time.Since(start).Seconds(), err)
		return resp, err
	}
}

// pushSketch buffers a batch of per-feature sketch summaries from one
// worker. The batch is all or nothing: a summary sketch.Restore's rules
// reject (sketch.ErrInvalidSummary) or a bad feature id (ErrBadFeatureID) —
// a repeated one included — fails the request before any feature of it
// reaches candidate proposal. A batch that arrives once candidates were
// proposed is refused whole (ErrSketchAfterProposal): the sketches it would
// merge into are gone, and the candidates workers already pulled cannot
// change.
func (s *Server) pushSketch(worker int32, r *wire.Reader) (*wire.Writer, error) {
	batch, err := readSketchPush(r, s.part, s.id, s.eps)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pendingSketches == nil {
		return nil, ErrSketchAfterProposal
	}
	for _, p := range batch {
		byWorker := s.pendingSketches[p.f]
		if byWorker == nil {
			byWorker = make(map[int32]*sketch.GK)
			s.pendingSketches[p.f] = byWorker
		}
		byWorker[worker] = p.gk
	}
	return nil, nil
}

// pushedSketch is one summary of a PUSH_SKETCH body, restored.
type pushedSketch struct {
	f  int32
	gk *sketch.GK
}

// readSketchPush parses a PUSH_SKETCH body sent to server sv.
func readSketchPush(r *wire.Reader, part *Partition, sv int, eps float64) ([]pushedSketch, error) {
	var batch []pushedSketch
	err := readFeatureRecords(r, part, sv, func(f int32) error {
		gk, err := sketch.ReadSummary(r, eps)
		batch = append(batch, pushedSketch{f, gk})
		return err
	})
	return batch, err
}

// propose merges each feature's buffered sketches in worker-id order,
// proposes its candidates, and drops the sketches. Caller holds s.mu.
func (s *Server) propose(k int) {
	feats := make([]int32, 0, len(s.pendingSketches))
	for f, byWorker := range s.pendingSketches {
		feats = append(feats, f)
		workers := make([]int32, 0, len(byWorker))
		for wk := range byWorker {
			workers = append(workers, wk)
		}
		slices.Sort(workers)
		merged := byWorker[workers[0]]
		for _, wk := range workers[1:] {
			merged.Merge(byWorker[wk])
		}
		s.cands[f] = sketch.Propose(merged, k)
	}
	slices.Sort(feats)
	s.proposed, s.pendingSketches = feats, nil
}

// pullCandidates answers with the split candidates of this server's features
// that have sketches, proposed at the first pull: a later pull's k does not
// change them.
func (s *Server) pullCandidates(r *wire.Reader) (*wire.Writer, error) {
	k := int(r.Uint32())
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pendingSketches != nil {
		s.propose(k)
	}
	feats := s.proposed
	size := recordFramingSize(feats)
	for _, f := range feats {
		size += s.cands[f].WireSize()
	}
	w := wire.NewWriter(size)
	writeFeatureRecords(w, feats, func(i int) { s.cands[feats[i]].WriteWire(w) })
	return w, nil
}

func (s *Server) pushSampled(r *wire.Reader) (*wire.Writer, error) {
	feats, err := readSampled(r, s.part.NumFeatures)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sampled = feats
	return nil, nil
}

func (s *Server) pullSampled() (*wire.Writer, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := wire.NewWriter(5 + 4*len(s.sampled))
	writeFeatures(w, s.sampled)
	return w, nil
}

// readSampled consumes a sampled feature list: strictly ascending ids in
// [0, limit).
func readSampled(r *wire.Reader, limit int) ([]int32, error) {
	sampled, err := readFeatures(r, limit)
	if err != nil {
		return nil, err
	}
	for i, f := range sampled {
		if f < 0 || int(f) >= limit || (i > 0 && f <= sampled[i-1]) {
			return nil, fmt.Errorf("bad sampled feature %d at position %d", f, i)
		}
	}
	return sampled, nil
}

// newTree resets per-tree state and builds the shard layout over the owned
// sampled features that can split. The sampled list travels in the request
// so NEW_TREE is a single round trip.
func (s *Server) newTree(r *wire.Reader) (*wire.Writer, error) {
	sampled, err := readSampled(r, s.part.NumFeatures)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sampled = sampled
	next := &treeShards{sampled: sampled, nodes: make(map[int32]*nodeShard)}
	if old := s.tree; old != nil && slices.Equal(old.sampled, sampled) {
		// A feature's candidates never change once proposed, so the same
		// sample makes the same layout.
		next.layout, next.pool, next.massTotals = old.layout, old.pool, old.massTotals
	} else {
		// A feature without a sketch has no candidates here, and no bucket.
		mine := s.part.FeaturesOf(s.id, sampled)
		candsByFeature := make([]sketch.Candidates, s.part.NumFeatures)
		for _, f := range mine {
			candsByFeature[f] = s.cands[f]
		}
		kept := histogram.Splittable(mine, candsByFeature)
		layout, err := histogram.NewLayout(kept, candsByFeature, s.part.NumFeatures)
		if err != nil {
			return nil, err
		}
		next.layout, next.pool = layout, histogram.NewPool(layout)
		next.massTotals = len(mine) > 0 && (len(kept) == 0 || kept[0] != mine[0])
	}
	// Retire the finished tree's shards: a straggling push finds its node
	// sealed, a straggling pull finds it empty, and the histograms go back to
	// the pool — the next tree's, when the layout was kept.
	if old := s.tree; old != nil {
		for _, n := range old.nodes {
			n.mu.Lock()
			old.pool.Put(n.hist)
			n.hist, n.sealed = nil, true
			n.mu.Unlock()
		}
	}
	s.tree = next
	s.splits = make(map[int32]core.Decision)
	return nil, nil
}

// pushHist merges one worker's shard of one node's histogram (see
// nodeShard for the ordering discipline).
func (s *Server) pushHist(worker int32, seq uint64, r *wire.Reader) (*wire.Writer, error) {
	node := r.Int32()
	body := r.Rest()
	r.Skip(len(body))
	if worker < 0 {
		return nil, fmt.Errorf("push from negative worker id %d", worker)
	}
	t, _ := s.current(node)
	if t == nil {
		return nil, fmt.Errorf("push before NEW_TREE")
	}
	// Both vectors are parsed — every declared width, element count and
	// touched set checked against this server's layout — before the
	// accumulator is touched, so a stale-partition client (or hostile peer)
	// can neither mis-size a merge nor leave one half applied.
	shard, err := parseShard(body, t.layout)
	if err != nil {
		return nil, err
	}
	n, err := s.nodeShard(node, t)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if prev, ok := n.pushed[worker]; ok && prev == seq {
		return nil, nil // a resend that overtook its original's ack
	} else if ok || n.sealed {
		return nil, &RepushError{Node: node, Worker: worker, Sealed: !ok}
	}
	n.pushed[worker] = seq
	if worker != n.next {
		// Beyond the frontier (a sealed node aside, nothing unpushed lies
		// below it): park a copy, the request buffer is the caller's.
		n.parked[worker] = append([]byte(nil), body...)
		return nil, nil
	}
	n.add(shard)
	n.next++
	for ; n.parked[n.next] != nil; n.next++ {
		if err := n.addParked(n.next); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// parseShard parses a push body under the server's shard layout: one
// deferred shard and nothing after it.
func parseShard(body []byte, layout *histogram.Layout) (*deferredShard, error) {
	r := wire.NewReader(body)
	d, err := parseDeferredShard(r, layout)
	if err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d after the pushed shard", ErrTrailingBytes, r.Remaining())
	}
	return d, nil
}

// current returns the current tree's histogram state (nil before NEW_TREE)
// and the node's shard in it (nil before its first push) as one consistent
// pair: NEW_TREE replaces both under the same lock.
func (s *Server) current(node int32) (*treeShards, *nodeShard) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tree == nil {
		return nil, nil
	}
	return s.tree, s.tree.nodes[node]
}

// nodeShard returns the node's shard, creating it on first push. t is the
// tree the push was validated against; if NEW_TREE replaced it meanwhile the
// push belongs to a tree that no longer exists.
func (s *Server) nodeShard(node int32, t *treeShards) (*nodeShard, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tree != t {
		return nil, fmt.Errorf("push for node %d overtaken by NEW_TREE", node)
	}
	n := t.nodes[node]
	if n == nil {
		n = &nodeShard{
			id:     node,
			tree:   t,
			hist:   t.pool.Get(),
			parked: make(map[int32][]byte),
			pushed: make(map[int32]uint64),
		}
		n.hist.Defer()
		t.nodes[node] = n
	}
	return n, nil
}

// add merges one parsed shard: decoded into pooled scratch, which
// histogram.Add then merges over the touched sets. Caller holds n.mu.
func (n *nodeShard) add(d *deferredShard) {
	n.quantized = n.quantized || d.quantized()
	in := n.tree.pool.Get()
	defer n.tree.pool.Put(in)
	d.fill(in)
	n.hist.Add(in)
}

// addParked merges and releases a parked shard. Caller holds n.mu.
func (n *nodeShard) addParked(worker int32) error {
	d, err := parseShard(n.parked[worker], n.tree.layout)
	if err != nil {
		return err
	}
	delete(n.parked, worker)
	n.add(d)
	return nil
}

// derive computes node's shard as parent − sibling from the two merged
// shards this server already holds (the sibling is the child every worker
// pushed, see core.Split.BuildLeft) and installs it as the node's sealed
// shard, so a retried pull finds it like any pushed node and the next layer
// finds its parent. The subtraction is histogram.SetSub, the trainer's own:
// over the parent's touched set when both shards are deferred, bucket by
// bucket otherwise — in place, so the parent's buffer becomes the node's and
// the parent is retired, as the trainer turns a split node's histogram into
// its derived child's. That is safe because the derivation is the parent's
// last read: its layer's pulls all end before that layer's FIND_SPLIT
// barrier, and the next layer's derivations start after its BUILD_HISTOGRAM
// one. A server so holds one layer of shards, not the whole tree. The
// sibling keeps its state and bits (SetSub changes only its target), so a
// concurrent pull of it reads what it would have.
//
// The parent's lock is held from the subtraction to the retirement, and the
// retired parent keeps a pointer to the child, so a racing or retried derive
// pull that finds no installed shard finds the child there instead of
// deriving again. The sibling is read under the parent's lock; nothing else
// holds two node locks, and this order only ever goes down the tree, so it
// cannot cycle. Server.mu is taken only once the parent's lock is released:
// NEW_TREE takes node locks under it.
func (s *Server) derive(node int32, t *treeShards) (*nodeShard, error) {
	if node < 1 {
		return nil, fmt.Errorf("node %d has no parent to be derived from", node)
	}
	start := time.Now()
	parentID := (node - 1) / 2
	siblingID := 4*parentID + 3 - node // the children are 2p+1 and 2p+2
	s.mu.Lock()
	parent, sibling, overtaken := t.nodes[parentID], t.nodes[siblingID], s.tree != t
	s.mu.Unlock()
	switch {
	case parent == nil:
		return nil, &DeriveError{Node: node, Missing: parentID}
	case sibling == nil:
		return nil, &DeriveError{Node: node, Missing: siblingID}
	case overtaken:
		return nil, fmt.Errorf("pull for node %d overtaken by NEW_TREE", node)
	}
	n, derived, err := parent.deriveChild(node, sibling)
	if err != nil || !derived {
		return n, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tree != t {
		// NEW_TREE retired the tree before the child was installed in it:
		// retire the child as it would have.
		n.mu.Lock()
		t.pool.Put(n.hist)
		n.hist = nil
		n.mu.Unlock()
		return nil, fmt.Errorf("pull for node %d overtaken by NEW_TREE", node)
	}
	if pushed := t.nodes[node]; pushed != nil {
		// A push for the node raced its derivation. The pushed shard is what
		// every later request finds, so it answers this one too.
		return pushed, nil
	}
	t.nodes[node] = n
	m, _ := psMetrics()
	m.derived.Inc()
	m.deriveSeconds.Observe(time.Since(start).Seconds())
	return n, nil
}

// deriveChild turns p, the parent, into its child node = p − sibling in place
// and retires p. derived is false when a racing or retried pull derived the
// child first: n is that child, already handed out.
func (p *nodeShard) deriveChild(node int32, sibling *nodeShard) (n *nodeShard, derived bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.child != nil && p.child.id == node {
		return p.child, false, nil
	}
	ph, err := p.merged()
	if err != nil {
		return nil, false, err
	}
	err = sibling.read(func(sh *histogram.Histogram) error {
		ph.SetSub(ph, sh)
		n = &nodeShard{id: node, tree: p.tree, hist: ph, sealed: true, pushed: map[int32]uint64{}, quantized: p.quantized || sibling.quantized}
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	p.hist, p.child = nil, n
	return n, true, nil
}

// pullShard resolves a pull's node shard, derived first when the pull asks
// for that and the server holds none. The shard is nil, without error, only
// when this server owns no sampled feature and has nothing to answer from.
func (s *Server) pullShard(node int32, derive bool) (*nodeShard, error) {
	t, sh := s.current(node)
	if t == nil || (t.layout.NumFeatures() == 0 && !t.massTotals) {
		return nil, nil
	}
	if sh == nil && derive {
		var err error
		if sh, err = s.derive(node, t); err != nil {
			return nil, err
		}
	}
	if sh == nil {
		return nil, fmt.Errorf("no histogram pushed for node %d", node)
	}
	return sh, nil
}

// read hands f the merged histogram under the node's lock. First it folds in
// what is still parked behind a gap in the worker ids, in ascending order,
// so it holds every accepted push; from then on the node is sealed.
func (n *nodeShard) read(f func(h *histogram.Histogram) error) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	h, err := n.merged()
	if err != nil {
		return err
	}
	return f(h)
}

// merged seals the node and returns its histogram with every accepted push
// folded in. Caller holds n.mu.
func (n *nodeShard) merged() (*histogram.Histogram, error) {
	switch {
	case n.child != nil:
		return nil, &RetiredError{Node: n.id, Child: n.child.id}
	case n.hist == nil:
		return nil, errors.New("pull overtaken by NEW_TREE")
	}
	n.sealed = true
	workers := make([]int32, 0, len(n.parked))
	for wk := range n.parked {
		workers = append(workers, wk)
	}
	sort.Slice(workers, func(a, b int) bool { return workers[a] < workers[b] })
	for _, wk := range workers {
		if err := n.addParked(wk); err != nil {
			return nil, err
		}
	}
	return n.hist, nil
}

// pullSplit is the user-defined pull of §6.3: run Algorithm 1 over this
// shard only and answer with one split record instead of the shard's bytes.
// A deferred shard is scanned over its touched positions, behind the
// trainer's guard: when core.TouchedScanExact fails a materialised copy of it
// is scanned in full.
func (s *Server) pullSplit(r *wire.Reader) (*wire.Writer, error) {
	node := r.Int32()
	lambda := r.Float64()
	gamma := r.Float64()
	minChild := r.Float64()
	ev, err := readEncoding(r)
	if err != nil {
		return nil, err
	}
	sh, err := s.pullShard(node, r.Bool())
	if err != nil {
		return nil, err
	}
	w := wire.NewWriter(96)
	if sh == nil {
		writeSplitRecord(w, core.Decision{}, ev.compactSplits())
		return w, nil
	}
	err = sh.read(func(hist *histogram.Histogram) error {
		// Every feature's buckets sum to the node totals (Algorithm 2
		// invariant), so the shard alone recovers them on the raw wires:
		// from the first owned sampled feature's buckets, or, when that
		// feature was left out of the layout, from the mass its one bucket
		// held. Fixed-point buckets sum to the totals plus rounding noise,
		// while the mass is the exact sum of every worker's rows; it is the
		// total there, and the guard holds instead of failing on the noise.
		// (Only a derivation whose sibling touched a position its parent did
		// not ends materialised, without a mass; no trainer asks for one.)
		var totalG, totalH float64
		switch g, h := hist.DeferredMass(); {
		case sh.quantized && hist.Deferred():
			totalG, totalH = g, h
		case sh.tree.massTotals:
			totalG, totalH = 0+g, 0+h
		default:
			totalG, totalH = hist.FeatureTotals(0)
		}
		scan := func(h *histogram.Histogram) error {
			split := core.FindSplit(h, totalG, totalH, lambda, gamma, minChild)
			writeSplitRecord(w, core.Decision{Split: split, HasTotals: true, G: totalG, H: totalH}, ev.compactSplits())
			return nil
		}
		if core.TouchedScanExact(hist, totalH, minChild) {
			return scan(hist)
		}
		return sh.tree.materialised(hist, scan)
	})
	return w, err
}

// materialised hands f h in materialised form without changing h: a deferred
// shard is copied into pooled scratch and that is materialised. A scan never
// changes the state of a shard — another pull of the same node, or a
// derivation reading it as its sibling operand, may be looking at it, and the state
// decides which totals a split pull reports — so every reply is a function of
// the pushes alone, whatever order the pulls arrive in.
func (t *treeShards) materialised(h *histogram.Histogram, f func(*histogram.Histogram) error) error {
	if !h.Deferred() {
		return f(h)
	}
	m := t.pool.Get()
	defer t.pool.Put(m)
	m.Copy(h)
	m.Materialize()
	return f(m)
}

// pushSplitResult stores a node's global split for SPLIT_TREE, where every
// worker partitions its rows on it. A found split whose feature is not in the
// tree's sample (ErrBadFeatureID), or whose value, gain or statistics are not
// finite (compress.ErrNonFinite), is refused before it is stored: the first
// would index past every worker's layout, the second split on NaN.
func (s *Server) pushSplitResult(r *wire.Reader) (*wire.Writer, error) {
	node := r.Int32()
	rec, err := readSplitRecord(r)
	if err != nil {
		return nil, err
	}
	if s.part.NodeOwner(int(node)) != s.id {
		return nil, fmt.Errorf("node %d split pushed to wrong server", node)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sp := rec.Split; sp.Found {
		if _, sampled := slices.BinarySearch(s.sampled, sp.Feature); !sampled {
			return nil, fmt.Errorf("%w: node %d splits on feature %d, not sampled this tree", ErrBadFeatureID, node, sp.Feature)
		}
		for _, v := range []float64{sp.Value, sp.Gain, sp.LeftG, sp.LeftH, sp.RightG, sp.RightH, rec.G, rec.H} {
			if !finite(v) {
				return nil, fmt.Errorf("%w: node %d split statistic %v", compress.ErrNonFinite, node, v)
			}
		}
	}
	s.splits[node] = rec
	return nil, nil
}

func (s *Server) pullSplitResults(r *wire.Reader) (*wire.Writer, error) {
	nodes := r.Int32s()
	ev, err := readEncoding(r)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w := wire.NewWriter(96 * len(nodes))
	w.Uint32(uint32(len(nodes)))
	for _, node := range nodes {
		rec, ok := s.splits[node]
		w.Int32(node)
		w.Bool(ok)
		writeSplitRecord(w, rec, ev.compactSplits())
	}
	return w, nil
}

// NumSketches reports how many features this server holds sketches for:
// those pushed so far, until candidate proposal drops them all
// (observability/tests).
func (s *Server) NumSketches() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pendingSketches)
}

// ShardFeatures returns the server's current shard feature list
// (observability/tests).
func (s *Server) ShardFeatures() []int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tree == nil {
		return nil
	}
	return s.tree.layout.Features
}
