package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dimboost/internal/compress"
	"dimboost/internal/core"
	"dimboost/internal/dataset"
	"dimboost/internal/obs"
	"dimboost/internal/ps"
	"dimboost/internal/simnet"
	"dimboost/internal/transport"
)

// Config extends the GBDT hyper-parameters with cluster topology and the
// communication options of §6.
type Config struct {
	core.Config

	// NumWorkers is w. Each worker gets one contiguous row shard.
	NumWorkers int
	// NumServers is p, the parameter-server count (Table 4 varies this).
	NumServers int
	// Bits is the compressed histogram width r (§6.1); 0 sends float32.
	Bits uint
	// PullBits, when nonzero, asks servers for compact split records: the
	// statistics narrowed to float32, feature and value exact. It must be a
	// supported fixed-point width; 0 pulls full records.
	PullBits uint
	// ExactWire sends float64 histograms, for bit-reproducibility tests.
	ExactWire bool
	// SerializeCompute makes workers take a shared lock around their
	// compute sections, so per-worker phase timers measure each worker's
	// own work instead of including time-sliced interference — essential
	// for meaningful per-worker statistics on machines with fewer cores
	// than workers. Results are unchanged; wall time on multi-core
	// machines grows.
	SerializeCompute bool

	// Retry, when non-nil, wraps every worker→server endpoint in a
	// transport.RetryEndpoint with this policy, so transient RPC failures
	// (timeouts, lost responses, recovering servers) are retried instead of
	// killing the run. Servers deduplicate the retried requests by their
	// idempotency envelope, so a retry after a lost response never
	// double-applies. Barrier calls to the master are deliberately not
	// retried: a barrier call increments the master's generation, so a
	// retried barrier would count one worker twice.
	Retry *transport.RetryPolicy
	// Checkpoint, when non-nil, receives the encoded model state after
	// every finished tree (leader worker only — all workers hold identical
	// models). A sink error is fatal: training stops rather than silently
	// continuing without checkpoint coverage.
	Checkpoint CheckpointSink
	// Resume, when non-nil, restarts boosting at Resume.TreesDone: workers
	// adopt the checkpointed trees, recompute their shard predictions from
	// them, and fast-forward the feature-sampling RNG, producing the same
	// model a never-killed run would have. The checkpoint's fingerprint
	// must match this config (see Fingerprint).
	Resume *Checkpoint
}

// DefaultConfig mirrors the paper's protocol: r=8 compressed histograms,
// two-phase split finding, and the round-robin scheduler all on.
func DefaultConfig(workers, servers int) Config {
	return Config{
		Config:     core.DefaultConfig(),
		NumWorkers: workers,
		NumServers: servers,
		Bits:       8,
	}
}

// UnsupportedFieldError reports an embedded core.Config field set to
// something only the single-process trainer implements. The cluster never
// reads these fields, so accepting them would train a different model than
// the one asked for without saying so.
type UnsupportedFieldError struct {
	// Field is the core.Config field name.
	Field string
}

func (e *UnsupportedFieldError) Error() string {
	return fmt.Sprintf("cluster: distributed training does not support core.Config.%s", e.Field)
}

// Validate extends core validation with topology checks.
func (c Config) Validate() error {
	if err := c.Config.Validate(); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"InstanceSampleRatio", c.InstanceSampleRatio < 1},
		{"WeightedCandidates", c.WeightedCandidates},
		{"EarlyStoppingRounds", c.EarlyStoppingRounds > 0},
		{"MemoryBudget", c.MemoryBudget > 0},
	} {
		if f.set {
			return &UnsupportedFieldError{Field: f.name}
		}
	}
	if c.NumWorkers < 1 {
		return fmt.Errorf("cluster: NumWorkers %d < 1", c.NumWorkers)
	}
	if c.NumServers < 1 {
		return fmt.Errorf("cluster: NumServers %d < 1", c.NumServers)
	}
	if c.MaxDepth < 2 {
		// Root leaf weights require global gradient totals, which only
		// materialize through the first FIND_SPLIT round.
		return fmt.Errorf("cluster: MaxDepth must be >= 2, got %d", c.MaxDepth)
	}
	if c.Bits != 0 && c.ExactWire {
		return fmt.Errorf("cluster: Bits and ExactWire are mutually exclusive")
	}
	if c.PullBits != 0 && c.ExactWire {
		return fmt.Errorf("cluster: PullBits and ExactWire are mutually exclusive")
	}
	if c.Bits != 0 && !compress.ValidWidth(c.Bits) {
		return fmt.Errorf("cluster: unsupported Bits width %d", c.Bits)
	}
	if c.PullBits != 0 && !compress.ValidWidth(c.PullBits) {
		return fmt.Errorf("cluster: unsupported PullBits width %d", c.PullBits)
	}
	return nil
}

// Stats aggregates a distributed run's measurements.
type Stats struct {
	// WallTime is the end-to-end in-process duration.
	WallTime time.Duration
	// LoadTime covers dataset partitioning (the paper's "data loading").
	LoadTime time.Duration
	// Compute is the per-phase maximum of the workers' Trainer.Times, so
	// its Total() can exceed every worker's own total. Besides gradients and
	// histogram building it holds sketching, tree splitting and a FindSplit
	// made of PS round trips, which ModeledCommTime prices again.
	Compute core.PhaseTimes
	// Bytes/Msgs are per-node traffic maxima and totals from the meter.
	MaxNodeBytes int64
	MaxNodeMsgs  int64
	TotalBytes   int64
	TotalMsgs    int64
	// ModeledCommTime prices the measured traffic with the §3 cost model
	// (per-node maxima: α per message plus β per byte).
	ModeledCommTime time.Duration
}

// Result of a distributed training run.
type Result struct {
	Model  *core.Model
	Events []core.TreeEvent
	Stats  Stats
}

// TrainHooks customize the network and config Train builds internally — the
// seam dimboost-bench uses to run the paper's experiments under injected
// faults (-fault-spec) without threading fault plumbing through every
// experiment signature.
var TrainHooks struct {
	// WrapNetwork, when non-nil, wraps the in-process network (e.g. in a
	// faultinject.Network).
	WrapNetwork func(transport.Network) transport.Network
	// Config, when non-nil, edits the effective config just before TrainOn
	// (e.g. enabling retries to survive the injected faults).
	Config func(*Config)
}

// Train runs DimBoost's full distributed pipeline in process: p servers, one
// master, and w workers over a metered in-memory network.
func Train(d *dataset.Dataset, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if TrainHooks.Config != nil {
		TrainHooks.Config(&cfg)
	}
	mem := transport.NewMemNetwork()
	defer mem.Close()
	var net transport.Network = mem
	if TrainHooks.WrapNetwork != nil {
		net = TrainHooks.WrapNetwork(net)
	}
	return TrainOn(net, mem.Meter(), d, cfg)
}

// TrainOn runs the pipeline over a caller-supplied network (tests use this
// with TCP endpoints wrapped into the same interface). meter may be nil.
func TrainOn(net transport.Network, meter *transport.Meter, d *dataset.Dataset, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Resume != nil {
		if err := validateResume(cfg.Resume, cfg); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	shards := dataset.PartitionRows(d, cfg.NumWorkers)
	loadTime := time.Since(start)

	part, err := ps.NewPartition(d.NumFeatures, cfg.NumServers, 0)
	if err != nil {
		return nil, err
	}

	// Servers.
	for i := 0; i < cfg.NumServers; i++ {
		ep, err := net.Endpoint(ServerName(i))
		if err != nil {
			return nil, err
		}
		ep.Handle(ps.NewServer(i, part, cfg.ResolvedSketchEps()).Handler())
	}

	// Master.
	mep, err := net.Endpoint(MasterName)
	if err != nil {
		return nil, err
	}
	mep.Handle(NewMaster(cfg.NumWorkers).Handler())

	// Workers.
	var computeLock *sync.Mutex
	if cfg.SerializeCompute {
		computeLock = &sync.Mutex{}
	}
	workers := make([]*worker, cfg.NumWorkers)
	for i := range workers {
		ep, err := net.Endpoint(WorkerName(i))
		if err != nil {
			return nil, err
		}
		workers[i] = newWorker(ep, i, shards[i], part, cfg)
		workers[i].computeLock = computeLock
	}

	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, wk := range workers {
		wg.Add(1)
		go func(i int, wk *worker) {
			defer wg.Done()
			errs[i] = wk.run()
			if errs[i] != nil {
				// release peers blocked at barriers so the cluster shuts
				// down instead of deadlocking
				if aerr := abortMaster(wk.ep, errs[i].Error()); aerr != nil {
					errs[i] = errors.Join(errs[i], fmt.Errorf("cluster: abort notification failed: %w", aerr))
				}
			}
		}(i, wk)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: worker %d: %w", i, err)
		}
	}

	res := &Result{Model: workers[0].model, Events: workers[0].events}
	res.Stats.WallTime = time.Since(start)
	res.Stats.LoadTime = loadTime
	for _, wk := range workers {
		res.Stats.Compute = maxPhases(res.Stats.Compute, wk.tr.Times)
	}
	if meter != nil {
		mx := meter.MaxPerNode()
		tot := meter.Totals()
		res.Stats.MaxNodeBytes = max(mx.BytesSent, mx.BytesRecv)
		res.Stats.MaxNodeMsgs = mx.MsgsSent
		res.Stats.TotalBytes = tot.BytesSent
		res.Stats.TotalMsgs = tot.MsgsSent
		secs := simnet.Cost(res.Stats.MaxNodeMsgs, res.Stats.MaxNodeBytes, simnet.GigabitEthernet())
		res.Stats.ModeledCommTime = time.Duration(secs * float64(time.Second))
	}
	return res, nil
}

// newWorker sets up worker id on its endpoint: a parameter-server client
// under the config's wire options — behind the config's retry policy, while
// the worker's barrier calls keep using the raw endpoint — and, on the
// leader, the config's checkpoint sink.
func newWorker(ep transport.Endpoint, id int, shard *dataset.Dataset, part *ps.Partition, cfg Config) *worker {
	cep := ep
	if cfg.Retry != nil {
		cep = transport.NewRetryEndpoint(ep, *cfg.Retry)
	}
	servers := make([]string, cfg.NumServers)
	for i := range servers {
		servers[i] = ServerName(i)
	}
	client := ps.NewClient(cep, part, servers, id)
	client.Bits = cfg.Bits
	client.PullBits = cfg.PullBits
	client.Exact = cfg.ExactWire
	wk := &worker{id: id, cfg: cfg, shard: shard, ep: ep, client: client, resume: cfg.Resume,
		t: -1, spans: obs.Default().SpanLog("train", 4096)}
	if id == 0 {
		wk.checkpoint = cfg.Checkpoint
	}
	return wk
}

func maxPhases(a, b core.PhaseTimes) core.PhaseTimes {
	return core.PhaseTimes{
		Sketch:    max(a.Sketch, b.Sketch),
		Gradients: max(a.Gradients, b.Gradients),
		BuildHist: max(a.BuildHist, b.BuildHist),
		FindSplit: max(a.FindSplit, b.FindSplit),
		SplitTree: max(a.SplitTree, b.SplitTree),
	}
}
