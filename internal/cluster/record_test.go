package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dimboost/internal/core"
	"dimboost/internal/dataset"
	"dimboost/internal/obs"
	"dimboost/internal/transport"
)

// phaseSpans runs f and returns the "train" spans it recorded. The span
// log's phase histograms count every span, so f's spans are the last that
// many of the ring.
func phaseSpans(t *testing.T, f func()) []obs.SpanEvent {
	t.Helper()
	count := func() (n uint64) {
		for _, s := range obs.Default().Snapshot() {
			if s.Name == "dimboost_train_phase_seconds" {
				for _, series := range s.Series {
					n += series.Count
				}
			}
		}
		return n
	}
	before := count()
	f()
	n := int(count() - before)
	evs := obs.Default().SpanLog("train", 4096).Events()
	if n > len(evs) {
		t.Fatalf("%d spans recorded, the ring keeps %d", n, len(evs))
	}
	return evs[len(evs)-n:]
}

// spanTimes sums one worker's phase spans per phase, binning counted as
// histogram building, and allows each phase 1µs of slack per span for the
// spans' float-millisecond durations.
func spanTimes(evs []obs.SpanEvent, worker int) (sum, slack core.PhaseTimes) {
	for _, ev := range evs {
		if ev.Worker != worker {
			continue
		}
		var s, sl *time.Duration
		switch ev.Phase {
		case "sketch":
			s, sl = &sum.Sketch, &slack.Sketch
		case "gradients":
			s, sl = &sum.Gradients, &slack.Gradients
		case "binning", "build_hist":
			s, sl = &sum.BuildHist, &slack.BuildHist
		case "find_split":
			s, sl = &sum.FindSplit, &slack.FindSplit
		case "split_tree":
			s, sl = &sum.SplitTree, &slack.SplitTree
		default:
			continue
		}
		*s += time.Duration(ev.DurMS * float64(time.Millisecond))
		*sl += time.Microsecond
	}
	return sum, slack
}

// requireTimes fails unless got equals want phase by phase within slack.
func requireTimes(t *testing.T, who string, got, want, slack core.PhaseTimes) {
	t.Helper()
	for _, p := range []struct {
		name             string
		got, want, slack time.Duration
	}{
		{"sketch", got.Sketch, want.Sketch, slack.Sketch},
		{"gradients", got.Gradients, want.Gradients, slack.Gradients},
		{"build_hist", got.BuildHist, want.BuildHist, slack.BuildHist},
		{"find_split", got.FindSplit, want.FindSplit, slack.FindSplit},
		{"split_tree", got.SplitTree, want.SplitTree, slack.SplitTree},
	} {
		if diff := (p.got - p.want).Abs(); diff > p.slack {
			t.Errorf("%s %s: %v, spans sum to %v (slack %v)", who, p.name, p.got, p.want, p.slack)
		}
	}
	if want.Gradients == 0 || want.BuildHist == 0 || want.SplitTree == 0 {
		t.Errorf("%s recorded no spans for some phases: %+v", who, want)
	}
}

// runRoles trains cfg on d as separate roles on one in-memory network, the
// way dimboost-node deploys them, and returns each worker's result.
func runRoles(t *testing.T, d *dataset.Dataset, cfg Config) []*WorkerResult {
	t.Helper()
	net := transport.NewMemNetwork()
	defer net.Close()
	endpoint := func(name string) transport.Endpoint {
		ep, err := net.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}
	ServeMaster(endpoint(MasterName), cfg.NumWorkers)
	for i := 0; i < cfg.NumServers; i++ {
		if err := ServeServer(endpoint(ServerName(i)), i, d.NumFeatures, cfg); err != nil {
			t.Fatal(err)
		}
	}
	shards := dataset.PartitionRows(d, cfg.NumWorkers)
	eps := make([]transport.Endpoint, cfg.NumWorkers)
	for i := range eps {
		eps[i] = endpoint(WorkerName(i))
	}
	results := make([]*WorkerResult, cfg.NumWorkers)
	errs := make([]error, cfg.NumWorkers)
	var wg sync.WaitGroup
	for i := range eps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunWorker(eps[i], i, shards[i], d.NumFeatures, cfg)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	return results
}

// TestPhaseRecordAgreesWithItself: every phase is timed once, and that one
// record feeds both Trainer.Times and the span log. So a process's Times are
// the sums of its phase spans — for the single-process trainer (worker −1)
// and for each worker of a 2×2 cluster — and cluster Stats.Compute is the
// per-phase maximum of those sums over the workers.
func TestPhaseRecordAgreesWithItself(t *testing.T) {
	d := testData(t, 600, 113)

	lc := smallCfg(1, 1).Config
	lc.Parallelism = 2
	lc.FeatureSampleRatio = 0.7
	lc.WeightedCandidates = true
	var tr *core.Trainer
	evs := phaseSpans(t, func() {
		var err error
		if tr, err = core.NewTrainer(d, lc); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Train(); err != nil {
			t.Fatal(err)
		}
	})
	sum, slack := spanTimes(evs, -1)
	requireTimes(t, "local trainer", tr.Times, sum, slack)

	cfg := smallCfg(2, 2)
	cfg.FeatureSampleRatio = 0.7
	var results []*WorkerResult
	evs = phaseSpans(t, func() { results = runRoles(t, d, cfg) })
	for i, r := range results {
		sum, slack := spanTimes(evs, i)
		requireTimes(t, fmt.Sprintf("worker %d", i), r.Times, sum, slack)
	}

	var res *Result
	evs = phaseSpans(t, func() {
		var err error
		if res, err = Train(d, cfg); err != nil {
			t.Fatal(err)
		}
	})
	// The maximum of each phase and the slack of the worker it came from.
	var want, wantSlack core.PhaseTimes
	for i := 0; i < cfg.NumWorkers; i++ {
		sum, slack := spanTimes(evs, i)
		for _, p := range []struct{ w, ws, s, ss *time.Duration }{
			{&want.Sketch, &wantSlack.Sketch, &sum.Sketch, &slack.Sketch},
			{&want.Gradients, &wantSlack.Gradients, &sum.Gradients, &slack.Gradients},
			{&want.BuildHist, &wantSlack.BuildHist, &sum.BuildHist, &slack.BuildHist},
			{&want.FindSplit, &wantSlack.FindSplit, &sum.FindSplit, &slack.FindSplit},
			{&want.SplitTree, &wantSlack.SplitTree, &sum.SplitTree, &slack.SplitTree},
		} {
			if *p.s > *p.w {
				*p.w, *p.ws = *p.s, *p.ss
			}
		}
	}
	requireTimes(t, "Stats.Compute", res.Stats.Compute, want, wantSlack)
}
