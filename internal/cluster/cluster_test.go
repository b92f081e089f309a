package cluster

import (
	"math"
	"sync"
	"testing"

	"dimboost/internal/core"
	"dimboost/internal/dataset"
	"dimboost/internal/loss"
	"dimboost/internal/ps"
	"dimboost/internal/transport"
)

func testData(t *testing.T, rows int, seed int64) *dataset.Dataset {
	t.Helper()
	return dataset.Generate(dataset.SyntheticConfig{
		NumRows: rows, NumFeatures: 120, AvgNNZ: 12, Seed: seed, Zipf: 1.2, NoiseStd: 0.2,
	})
}

func smallCfg(w, p int) Config {
	cfg := DefaultConfig(w, p)
	cfg.NumTrees = 5
	cfg.MaxDepth = 4
	cfg.NumCandidates = 10
	cfg.Parallelism = 1
	cfg.Bits = 0
	return cfg
}

// sameStructure compares models node by node, ignoring sub-tolerance float
// noise.
func sameStructure(t *testing.T, a, b *core.Model) bool {
	t.Helper()
	if len(a.Trees) != len(b.Trees) {
		t.Logf("tree counts %d vs %d", len(a.Trees), len(b.Trees))
		return false
	}
	for ti := range a.Trees {
		for ni := range a.Trees[ti].Nodes {
			x, y := a.Trees[ti].Nodes[ni], b.Trees[ti].Nodes[ni]
			if x.Used != y.Used || x.Leaf != y.Leaf || x.Feature != y.Feature || x.Value != y.Value {
				t.Logf("tree %d node %d: %+v vs %+v", ti, ni, x, y)
				return false
			}
			if math.Abs(x.Weight-y.Weight) > 1e-9 {
				t.Logf("tree %d node %d weight %v vs %v", ti, ni, x.Weight, y.Weight)
				return false
			}
		}
	}
	return true
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(4, 2).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.NumWorkers = 0 },
		func(c *Config) { c.NumServers = 0 },
		func(c *Config) { c.MaxDepth = 1 },
		func(c *Config) { c.NumTrees = 0 },
		func(c *Config) { c.Bits = 8; c.ExactWire = true },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(4, 2)
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
}

// TestSingleWorkerMatchesLocalTrainer is invariant 6 of DESIGN.md: with one
// worker and exact wire the distributed pipeline must reproduce the
// single-process trainer bit for bit (same sketches, same splits).
func TestSingleWorkerMatchesLocalTrainer(t *testing.T) {
	d := testData(t, 400, 51)
	for _, servers := range []int{1, 3} {
		cfg := smallCfg(1, servers)
		cfg.ExactWire = true
		res, err := Train(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.Train(d, cfg.Config)
		if err != nil {
			t.Fatal(err)
		}
		if !sameStructure(t, ref, res.Model) {
			t.Fatalf("p=%d: distributed model differs from local", servers)
		}
	}
}

func TestMultiWorkerProducesWorkingModel(t *testing.T) {
	d := testData(t, 1200, 53)
	train, test := d.Split(0.9)
	local, err := core.Train(train, smallCfg(1, 1).Config)
	if err != nil {
		t.Fatal(err)
	}
	localErr := loss.ErrorRate(test.Labels, local.PredictBatch(test))

	for _, tc := range []struct{ w, p int }{{2, 1}, {4, 3}, {5, 5}} {
		cfg := smallCfg(tc.w, tc.p)
		res, err := Train(train, cfg)
		if err != nil {
			t.Fatalf("w=%d p=%d: %v", tc.w, tc.p, err)
		}
		if len(res.Model.Trees) != cfg.NumTrees {
			t.Fatalf("w=%d p=%d: %d trees", tc.w, tc.p, len(res.Model.Trees))
		}
		distErr := loss.ErrorRate(test.Labels, res.Model.PredictBatch(test))
		if distErr > localErr+0.08 {
			t.Fatalf("w=%d p=%d: distributed err %.3f much worse than local %.3f", tc.w, tc.p, distErr, localErr)
		}
		// convergence events are monotone non-increasing in elapsed time
		for i := 1; i < len(res.Events); i++ {
			if res.Events[i].Elapsed < res.Events[i-1].Elapsed {
				t.Fatal("event times must be monotone")
			}
		}
	}
}

func TestAllWorkersAgreeOnModel(t *testing.T) {
	// the model must be identical on every worker: verify via determinism —
	// two runs with the same seed produce the same model even though worker
	// scheduling is nondeterministic. ExactWire removes float32 noise;
	// worker-ordered merging removes arrival-order noise.
	d := testData(t, 600, 57)
	cfg := smallCfg(3, 2)
	cfg.ExactWire = true
	a, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sameStructure(t, a.Model, b.Model) {
		t.Fatal("distributed training is not deterministic")
	}
}

func TestCompressedTrainingAccuracy(t *testing.T) {
	// §7.2: 8-bit histograms should not significantly damage accuracy.
	d := testData(t, 1500, 61)
	train, test := d.Split(0.9)

	full := smallCfg(4, 3)
	full.NumTrees = 8
	resFull, err := Train(train, full)
	if err != nil {
		t.Fatal(err)
	}
	comp := full
	comp.Bits = 8
	resComp, err := Train(train, comp)
	if err != nil {
		t.Fatal(err)
	}
	eFull := loss.ErrorRate(test.Labels, resFull.Model.PredictBatch(test))
	eComp := loss.ErrorRate(test.Labels, resComp.Model.PredictBatch(test))
	if eComp > eFull+0.05 {
		t.Fatalf("compressed err %.4f vs full %.4f — accuracy damaged", eComp, eFull)
	}
	// compression must reduce bytes moved
	if resComp.Stats.TotalBytes >= resFull.Stats.TotalBytes {
		t.Fatalf("compressed moved %d bytes, full %d", resComp.Stats.TotalBytes, resFull.Stats.TotalBytes)
	}
}

func TestStatsPopulated(t *testing.T) {
	d := testData(t, 300, 65)
	res, err := Train(d, smallCfg(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.WallTime <= 0 || s.TotalBytes <= 0 || s.TotalMsgs <= 0 || s.MaxNodeBytes <= 0 {
		t.Fatalf("stats not populated: %+v", s)
	}
	if s.Compute.BuildHist <= 0 || s.Compute.Sketch <= 0 {
		t.Fatalf("compute phases empty: %+v", s.Compute)
	}
	if s.ModeledCommTime <= 0 {
		t.Fatal("modeled comm time empty")
	}
}

func TestFeatureSamplingDistributed(t *testing.T) {
	d := testData(t, 400, 67)
	cfg := smallCfg(3, 2)
	cfg.FeatureSampleRatio = 0.4
	res, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// all split features must come from within the feature space and the
	// model must be usable
	for _, tn := range res.Model.Trees {
		for _, nd := range tn.Nodes {
			if nd.Used && !nd.Leaf {
				if nd.Feature < 0 || int(nd.Feature) >= d.NumFeatures {
					t.Fatalf("split feature %d out of range", nd.Feature)
				}
			}
		}
	}
}

func TestRegressionDistributed(t *testing.T) {
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 800, NumFeatures: 80, AvgNNZ: 10, Seed: 69, Regression: true, NoiseStd: 0.1, Zipf: 1.2})
	train, test := d.Split(0.9)
	cfg := smallCfg(3, 2)
	cfg.Loss = loss.Squared
	cfg.NumTrees = 10
	res, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	zero := loss.RMSE(test.Labels, make([]float64, test.NumRows()))
	got := loss.RMSE(test.Labels, res.Model.PredictBatch(test))
	if got >= zero {
		t.Fatalf("distributed regression RMSE %v not better than zero predictor %v", got, zero)
	}
}

func TestCompressedRunsAreDeterministic(t *testing.T) {
	// stochastic rounding is seeded per worker and servers merge in worker
	// order, so even 8-bit runs must reproduce exactly — the model, and the
	// bytes of every (mostly deferred) push
	d := testData(t, 400, 77)
	cfg := smallCfg(3, 2)
	cfg.Bits = 8
	train := func() (*Result, int64, int64) {
		_, enc0 := ps.WireBytes()
		res, err := Train(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, enc1 := ps.WireBytes()
		return res, enc1["deferred/encode"] - enc0["deferred/encode"], enc1["fixed/encode"] - enc0["fixed/encode"]
	}
	a, aDeferred, aFixed := train()
	b, bDeferred, bFixed := train()
	if !sameStructure(t, a.Model, b.Model) {
		t.Fatal("compressed training is not deterministic")
	}
	if a.Stats.TotalBytes != b.Stats.TotalBytes || aDeferred != bDeferred || aFixed != bFixed {
		t.Fatalf("bytes moved differ between runs: %d vs %d in all, %d vs %d deferred, %d vs %d dense fixed-point",
			a.Stats.TotalBytes, b.Stats.TotalBytes, aDeferred, bDeferred, aFixed, bFixed)
	}
	if aDeferred == 0 {
		t.Fatal("no push travelled deferred")
	}
}

// trainKeepingRoles is TrainOn over an in-memory network, returning the
// servers and workers so a test can read their layouts once training ends.
func trainKeepingRoles(t *testing.T, d *dataset.Dataset, cfg Config) ([]*ps.Server, []*worker) {
	t.Helper()
	net := transport.NewMemNetwork()
	defer net.Close()
	part, err := ps.NewPartition(d.NumFeatures, cfg.NumServers, 0)
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]*ps.Server, cfg.NumServers)
	for i := range servers {
		ep, err := net.Endpoint(ServerName(i))
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = ps.NewServer(i, part, cfg.ResolvedSketchEps())
		ep.Handle(servers[i].Handler())
	}
	mep, err := net.Endpoint(MasterName)
	if err != nil {
		t.Fatal(err)
	}
	ServeMaster(mep, cfg.NumWorkers)
	workers := make([]*worker, cfg.NumWorkers)
	errs := make([]error, cfg.NumWorkers)
	var wg sync.WaitGroup
	for i, shard := range dataset.PartitionRows(d, cfg.NumWorkers) {
		ep, err := net.Endpoint(WorkerName(i))
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = newWorker(ep, i, shard, part, cfg)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = workers[i].run()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	return servers, workers
}

// TestClusterLayoutsIndependentOfDeclaredDimension: the same rows declared
// at M and at 20·M features give every worker a layout of the same buckets
// and the servers' shards the same number of positions: a feature no row
// has gets no bucket on a worker and no position on a server.
func TestClusterLayoutsIndependentOfDeclaredDimension(t *testing.T) {
	const m = 2000
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 400, NumFeatures: m, AvgNNZ: 20, NoiseStd: 0.3, Zipf: 1.3, Seed: 41})
	cfg := smallCfg(2, 2)
	cfg.NumTrees, cfg.MaxDepth, cfg.Bits, cfg.PullBits = 2, 4, 16, 16
	shape := func(declared int) (buckets []int, positions int) {
		wide := *d
		wide.NumFeatures = declared
		servers, workers := trainKeepingRoles(t, &wide, cfg)
		for _, wk := range workers {
			buckets = append(buckets, wk.tr.Layout().TotalBuckets)
		}
		for _, srv := range servers {
			positions += len(srv.ShardFeatures())
		}
		return buckets, positions
	}
	narrowBuckets, narrowPositions := shape(m)
	wideBuckets, widePositions := shape(20 * m)
	for i := range narrowBuckets {
		if narrowBuckets[i] != wideBuckets[i] {
			t.Errorf("worker %d: a layout of %d buckets at %d features, %d at %d", i, narrowBuckets[i], m, wideBuckets[i], 20*m)
		}
	}
	if narrowPositions != widePositions {
		t.Errorf("the servers' shards hold %d positions at %d features, %d at %d", narrowPositions, m, widePositions, 20*m)
	}
}
