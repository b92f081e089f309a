package cluster

import (
	"testing"

	"dimboost/internal/dataset"
	"dimboost/internal/faultinject"
	"dimboost/internal/obs"
	"dimboost/internal/ps"
	"dimboost/internal/tree"
)

// seriesValue reads one labelled series of a counter family.
func seriesValue(snaps []obs.Snapshot, name, label, value string) int64 {
	for _, s := range snaps {
		if s.Name != name {
			continue
		}
		for _, series := range s.Series {
			if series.Labels[label] == value {
				return series.Value
			}
		}
	}
	return 0
}

// TestLostDeriveRepliesYieldTheFaultFreeModel: every reply to a split pull
// may be lost after the server acted on it — for a derived node, after it
// computed and stored parent − sibling. The retries must read what the first
// attempt stored: the model equals the fault-free one bit for bit, and the
// servers derived exactly as many shards as without faults.
func TestLostDeriveRepliesYieldTheFaultFreeModel(t *testing.T) {
	d := testData(t, 400, 81)
	cfg := smallCfg(3, 2)
	cfg.ExactWire = true

	before := obs.Default().Snapshot()
	ref, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mid := obs.Default().Snapshot()

	cfg.Retry = testRetry()
	res, fnet, err := faultTrain(t, d, cfg, faultinject.Spec{
		Seed:  5,
		Rules: []faultinject.Rule{{Endpoint: "server-*", Op: ps.OpPullSplit, RespLossRate: 0.3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	after := obs.Default().Snapshot()
	if st := fnet.Stats(); st.RespLosses < 10 {
		t.Fatalf("only %d replies lost; the test is vacuous", st.RespLosses)
	}
	if !identicalModels(t, ref.Model, res.Model) {
		t.Fatal("model diverged when replies to split pulls were lost and retried")
	}
	const derived = "dimboost_ps_hist_derived_total"
	clean := counterTotal(mid, derived) - counterTotal(before, derived)
	faulty := counterTotal(after, derived) - counterTotal(mid, derived)
	if clean == 0 || faulty != clean {
		t.Fatalf("servers derived %d shards fault-free and %d under lost replies; want the same, non-zero", clean, faulty)
	}
}

// TestOnlyBuiltChildrenArePushed: on a full depth-6 tree the five built
// layers hold 31 nodes, and a worker pushes 16 of them — the root and one
// child per split; the servers derive the other 15. On the float32 wire no
// push is larger than the root's: a child touches no bucket its parent did
// not, and its empty buckets stay behind the presence bitmap when that pays.
// So the histogram bytes the servers take in are at most 16 root pushes'
// worth, where pushing every active node took 31.
func TestOnlyBuiltChildrenArePushed(t *testing.T) {
	// Dense rows: every split is near a median, so no node runs out of rows.
	d := dataset.Generate(dataset.SyntheticConfig{
		NumRows: 4000, NumFeatures: 20, AvgNNZ: 20, Seed: 91, NoiseStd: 0.2,
	})
	const workers, servers, trees = 2, 2, 2
	run := func(depth int) (pushes, derived, pushBytes int64, res *Result) {
		cfg := smallCfg(workers, servers)
		cfg.NumTrees, cfg.MaxDepth = trees, depth
		before := obs.Default().Snapshot()
		ops0, _ := ps.WireBytes()
		res, err := Train(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ops1, _ := ps.WireBytes()
		after := obs.Default().Snapshot()
		const reqs = "dimboost_ps_requests_total"
		pushes = seriesValue(after, reqs, "op", "push_hist") - seriesValue(before, reqs, "op", "push_hist")
		derived = counterTotal(after, "dimboost_ps_hist_derived_total") - counterTotal(before, "dimboost_ps_hist_derived_total")
		return pushes, derived, ops1["push_hist/in"] - ops0["push_hist/in"], res
	}

	rootPushes, rootDerived, rootBytes, _ := run(2) // depth 2 builds the root only
	if rootPushes != trees*workers*servers || rootDerived != 0 {
		t.Fatalf("root-only trees: %d push requests and %d derived shards, want %d and 0", rootPushes, rootDerived, trees*workers*servers)
	}

	pushes, derived, bytes, res := run(6)
	for ti, tn := range res.Model.Trees {
		for n := 0; n < tree.MaxNodes(5); n++ {
			if nd := tn.Nodes[n]; !nd.Used || nd.Leaf {
				t.Fatalf("tree %d node %d did not split; the fixture must grow full trees", ti, n)
			}
		}
	}
	if want := int64(16 * trees * workers * servers); pushes != want {
		t.Fatalf("%d push requests for %d full depth-6 trees, want %d (16 built nodes of 31 per worker per tree)", pushes, trees, want)
	}
	if want := int64(15 * trees * servers); derived != want {
		t.Fatalf("%d shards derived, want %d (15 per server per tree)", derived, want)
	}
	if bytes > 16*rootBytes {
		t.Fatalf("servers took in %d histogram bytes, more than 16 × the root's %d = %d (31 × when every active node was pushed)", bytes, rootBytes, 16*rootBytes)
	}
}
