package baselines

import (
	"sync"
	"testing"
	"time"

	"dimboost/internal/comm"
	"dimboost/internal/core"
	"dimboost/internal/dataset"
)

// recordingRank is a mesh rank whose sink also keeps the phase record it is
// handed, summed per phase.
type recordingRank struct {
	*meshWorker
	rec map[string]time.Duration
}

func (r *recordingRank) Done(phase string, depth int, start time.Time, d time.Duration) error {
	r.rec[phase] += d
	return r.meshWorker.Done(phase, depth, start, d)
}

// TestMeshComputeIsTheRecord: a w = 2 mesh run whose ranks' sinks are
// watched. Each rank's Trainer.Times are its record (binning folded into
// build_hist), its compute is the record's gradients + build_hist, and
// MaxWorkerCompute is the largest of those.
func TestMeshComputeIsTheRecord(t *testing.T) {
	train, _ := testData(t, 500, 89)
	cfg := testCfg()
	cfg.FeatureSampleRatio = 0.7 // binning every tree
	for _, sys := range []System{MLlibStyle, XGBoostStyle, LightGBMStyle, TencentBoostStyle} {
		opts := Options{Core: cfg, System: sys, Workers: 2}
		probe, err := core.NewTrainer(train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cands := probe.Candidates()
		shards := dataset.PartitionRows(train, opts.Workers)
		mesh := comm.NewMesh(opts.Workers)
		var lock sync.Mutex
		start := time.Now()
		ranks := make([]*meshWorker, opts.Workers)
		spies := make([]*recordingRank, opts.Workers)
		for r := range ranks {
			tr, err := core.NewTrainer(shards[r], cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr.SetCandidates(cands)
			ranks[r] = &meshWorker{rank: r, opts: opts, shard: shards[r], mesh: mesh, tr: tr, start: start, computeLock: &lock}
			spies[r] = &recordingRank{ranks[r], map[string]time.Duration{}}
		}
		errs := make([]error, opts.Workers)
		var wg sync.WaitGroup
		for r, spy := range spies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				preds := make([]float64, spy.shard.NumRows())
				for i := 0; i < cfg.NumTrees && errs[r] == nil; i++ {
					_, errs[r] = spy.tr.GrowTree(spy, preds)
				}
			}()
		}
		wg.Wait()
		var most time.Duration
		for r, spy := range spies {
			if errs[r] != nil {
				t.Fatalf("%s rank %d: %v", sys, r, errs[r])
			}
			rec := spy.rec
			want := core.PhaseTimes{Sketch: rec["sketch"], Gradients: rec["gradients"],
				BuildHist: rec["binning"] + rec["build_hist"], FindSplit: rec["find_split"], SplitTree: rec["split_tree"]}
			if spy.tr.Times != want {
				t.Errorf("%s rank %d: Times %+v, record %+v", sys, r, spy.tr.Times, want)
			}
			if c := rec["gradients"] + rec["build_hist"]; spy.compute != c || c == 0 || rec["binning"] == 0 {
				t.Errorf("%s rank %d: compute %v, record gradients + build_hist %v (binning %v)", sys, r, spy.compute, c, rec["binning"])
			}
			most = max(most, rec["gradients"]+rec["build_hist"])
		}
		if st := meshStats(ranks, start); st.MaxWorkerCompute != most {
			t.Errorf("%s: MaxWorkerCompute %v, largest rank record %v", sys, st.MaxWorkerCompute, most)
		}
	}
}
