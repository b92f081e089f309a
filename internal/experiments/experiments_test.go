package experiments

import (
	"io"
	"strings"
	"testing"
	"time"

	"dimboost/internal/cluster"
	"dimboost/internal/core"
	"dimboost/internal/dataset"
	"dimboost/internal/simnet"
	"dimboost/internal/tree"
)

// quick is a tiny scale for smoke tests.
const quick = Scale(0.04)

// skipUnderShort keeps the paper tables that train models out of CI's
// `go test -race -short ./...`. They take 1.5–15 s each as plain tests but
// 18–220 s each under the race detector (Fig1 18, Fig14 18, Table3 48,
// Fig13 49, Table5 53, Fig12 55 + 220 for Gender, Table6 87, Table4 96:
// eleven minutes in all), and most assert wall-clock orderings the detector
// distorts. They run un-raced in the plain `go test ./...` step; this
// package starts no goroutines of its own, and the packages it drives
// (baselines, cluster, core) race their own tests.
func skipUnderShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("paper-table timing test: skipped under -short")
	}
}

func TestTable1ShapesHold(t *testing.T) {
	var sb strings.Builder
	rows := Table1(&sb)
	if len(rows) != 6*4 {
		t.Fatalf("%d rows", len(rows))
	}
	byKey := map[[2]int]Table1Row{}
	for _, r := range rows {
		byKey[[2]int{int(r.System), r.Workers}] = r
	}
	for _, w := range []int{16, 32, 64} {
		dim := byKey[[2]int{int(simnet.DimBoost), w}]
		xgb := byKey[[2]int{int(simnet.XGBoost), w}]
		ml := byKey[[2]int{int(simnet.MLlib), w}]
		for _, c := range []struct{ a, b float64 }{
			{dim.PaperCost, xgb.PaperCost},
			{xgb.PaperCost, ml.PaperCost},
			{dim.SimCost, xgb.SimCost},
			{xgb.SimCost, ml.SimCost},
		} {
			if c.a >= c.b {
				t.Fatalf("w=%d: ordering violated (%v >= %v)", w, c.a, c.b)
			}
		}
		if dim.Steps != 1 || ml.Steps != 1 {
			t.Fatalf("w=%d: one-step systems report %d/%d steps", w, dim.Steps, ml.Steps)
		}
	}
	// LightGBM at 50 workers (not a power of two) costs more than at 64
	l50 := byKey[[2]int{int(simnet.LightGBM), 50}]
	l64 := byKey[[2]int{int(simnet.LightGBM), 64}]
	if l50.PaperCost <= l64.PaperCost {
		t.Fatalf("lightgbm non-pow2 penalty missing: %v <= %v", l50.PaperCost, l64.PaperCost)
	}
	if !strings.Contains(sb.String(), "DimBoost") {
		t.Fatal("report missing system names")
	}
}

func TestTable3Quick(t *testing.T) {
	skipUnderShort(t)
	res, err := Table3(io.Discard, quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.RootSparse >= res.RootDense {
		t.Fatalf("sparsity-aware build (%v) not faster than dense (%v)", res.RootSparse, res.RootDense)
	}
	if float64(res.RootDense)/float64(res.RootSparse) < 5 {
		t.Fatalf("dense/sparse ratio %.1f implausibly small for 33K features",
			float64(res.RootDense)/float64(res.RootSparse))
	}
	if res.LastLayerIndexed >= res.LastLayerNoIndex {
		t.Fatalf("node-to-instance index (%v) not faster than full scans (%v)",
			res.LastLayerIndexed, res.LastLayerNoIndex)
	}
	if res.TreeCompressed >= res.TreeBase {
		t.Fatalf("all optimizations (%v) not faster than none (%v)", res.TreeCompressed, res.TreeBase)
	}
	if res.ErrCompressed > res.ErrFullPrec+0.08 {
		t.Fatalf("compression damaged accuracy: %.4f vs %.4f", res.ErrCompressed, res.ErrFullPrec)
	}
	// §6.3: two-phase split finding answers each node with one split record
	// per server instead of the node's merged shards.
	if res.twoPhaseBytes >= res.onePhaseBytes {
		t.Fatalf("two-phase moved %d bytes, one-phase %d — should be less", res.twoPhaseBytes, res.onePhaseBytes)
	}
}

// TestOnePhasePricing pins Table 3's priced rows on a hand-counted run: two
// trees of depth 3 (one split down to layer 1, one a lone root leaf) make
// four FIND_SPLIT nodes, three of them worker 0's under the round-robin
// scheduler; without it worker 0 owns all four.
func TestOnePhasePricing(t *testing.T) {
	split := tree.New(3)
	split.Nodes[0].Leaf = false
	split.Nodes[1] = tree.Node{Used: true, Leaf: true}
	split.Nodes[2] = tree.Node{Used: true, Leaf: true}
	m := &core.Model{Trees: []*tree.Tree{split, tree.New(3)}}
	if nodes, busiest := splitTasks(m, 3, 2); nodes != 4 || busiest != 3 {
		t.Fatalf("two workers: %d nodes, busiest %d; want 4 and 3", nodes, busiest)
	}
	if nodes, busiest := splitTasks(m, 3, 1); nodes != 4 || busiest != 4 {
		t.Fatalf("one worker: %d nodes, busiest %d; want 4 and 4", nodes, busiest)
	}

	ms := time.Millisecond
	op := onePhase{
		nodes: 4, busiest: 3, servers: 2,
		shard: 1000, replies: 400, // 100 reply bytes a node: 900 more one-phase
		stats: cluster.Stats{
			Compute:      core.PhaseTimes{BuildHist: 10 * ms, FindSplit: 30 * ms},
			MaxNodeMsgs:  50,
			MaxNodeBytes: 5000,
			TotalBytes:   20000,
		},
	}
	for _, tc := range []struct {
		scheduler   bool
		compute     time.Duration
		msgs, bytes int64
	}{
		// The busiest owner as run: its three nodes' shards replace their replies.
		{true, 40 * ms, 50, 5000 + 3*900},
		// Worker 0 owns the fourth node too: one more split task (a pull
		// per server and a result push), its shards, and its split scan.
		{false, 50 * ms, 53, 5000 + 4*900},
	} {
		compute, msgs, bytes := op.price(tc.scheduler)
		if compute != tc.compute || msgs != tc.msgs || bytes != tc.bytes {
			t.Errorf("scheduler %v: compute %v, %d msgs, %d bytes; want %v, %d, %d",
				tc.scheduler, compute, msgs, bytes, tc.compute, tc.msgs, tc.bytes)
		}
	}
	if got, want := op.totalBytes(), int64(20000+4*1000-400); got != want {
		t.Errorf("one-phase total %d bytes, want %d", got, want)
	}
}

func TestFig1Quick(t *testing.T) {
	skipUnderShort(t)
	rows, err := Fig1(io.Discard, quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	// XGBoost grows with dimensionality much faster than DimBoost
	xgbGrowth := float64(rows[len(rows)-1].XGBoost) / float64(rows[0].XGBoost)
	dimGrowth := float64(rows[len(rows)-1].DimBoost) / float64(rows[0].DimBoost)
	if xgbGrowth <= dimGrowth {
		t.Fatalf("growth: xgboost %.1fx vs dimboost %.1fx — shape inverted", xgbGrowth, dimGrowth)
	}
	// and is slower at the largest dimension
	last := rows[len(rows)-1]
	if last.XGBoost <= last.DimBoost {
		t.Fatalf("at 40K features xgboost (%v) should exceed dimboost (%v)", last.XGBoost, last.DimBoost)
	}
}

func TestFig12Quick(t *testing.T) {
	skipUnderShort(t)
	rows, err := Fig12(io.Discard, RCV1, quick)
	if err != nil {
		t.Fatal(err)
	}
	times := map[string]float64{}
	for _, r := range rows {
		if r.Skipped == "" {
			times[r.System.String()] = r.ModeledTime.Seconds()
			if len(r.Convergence) == 0 {
				t.Fatalf("%s: no convergence events", r.System)
			}
		}
	}
	if len(times) != 5 {
		t.Fatalf("expected 5 systems on rcv1, got %d", len(times))
	}
	if times["DimBoost"] >= times["MLlib"] {
		t.Fatalf("dimboost (%v) not faster than mllib (%v)", times["DimBoost"], times["MLlib"])
	}
	if times["DimBoost"] >= times["XGBoost"] {
		t.Fatalf("dimboost (%v) not faster than xgboost (%v)", times["DimBoost"], times["XGBoost"])
	}
}

func TestFig12GenderSkips(t *testing.T) {
	skipUnderShort(t)
	rows, err := Fig12(io.Discard, Gender, Scale(0.02))
	if err != nil {
		t.Fatal(err)
	}
	skipped := 0
	ran := 0
	for _, r := range rows {
		if r.Skipped != "" {
			skipped++
		} else {
			ran++
		}
	}
	if skipped != 2 || ran != 3 {
		t.Fatalf("gender: %d skipped / %d ran, want 2/3", skipped, ran)
	}
}

func TestFig12UnknownDataset(t *testing.T) {
	if _, err := Fig12(io.Discard, "bogus", quick); err == nil {
		t.Fatal("expected error")
	}
}

func TestTable4Quick(t *testing.T) {
	skipUnderShort(t)
	rows, err := Table4(io.Discard, Scale(0.02))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// more servers -> less (or equal) modeled comm
	if rows[len(rows)-1].CommTime > rows[0].CommTime {
		t.Fatalf("comm did not shrink with servers: %v -> %v", rows[0].CommTime, rows[len(rows)-1].CommTime)
	}
}

func TestTable5Quick(t *testing.T) {
	skipUnderShort(t)
	rows, err := Table5(io.Discard, Scale(0.3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// AUC improves with dimensionality (error is noisier at small scale)
	if rows[2].AUC <= rows[0].AUC {
		t.Fatalf("AUC did not improve with features: %.4f -> %.4f", rows[0].AUC, rows[2].AUC)
	}
}

func TestTable6Quick(t *testing.T) {
	skipUnderShort(t)
	res, err := Table6(io.Discard, Scale(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if res.PCATime+res.ReducedTrain <= res.DirectTrain {
		t.Fatalf("PCA pipeline (%v) should cost more than direct training (%v)",
			res.PCATime+res.ReducedTrain, res.DirectTrain)
	}
}

func TestFig13Quick(t *testing.T) {
	skipUnderShort(t)
	scale := Scale(0.05)
	rows, err := Fig13(io.Discard, scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	// per-worker compute shrinks as workers grow (rcv1 sweep, where data
	// work dominates the per-node histogram floor even at test scale). A
	// run's compute is a per-phase maximum over its workers, so one stalled
	// phase on one of five inflates it: each leg is the least of three
	// trainings.
	rcv1 := fig13Sets(scale)[0]
	d := dataset.Generate(rcv1.gen)
	least := func(row Fig13Row) time.Duration {
		for i := 0; i < 2; i++ {
			again, err := fig13Run(d, rcv1.name, row.Workers)
			if err != nil {
				t.Fatal(err)
			}
			row.Compute = min(row.Compute, again.Compute)
		}
		return row.Compute
	}
	if w1, w5 := least(rows[0]), least(rows[2]); w5 >= w1 {
		t.Fatalf("rcv1 compute did not shrink: w=1 %v vs w=5 %v (least of three)", w1, w5)
	}
	for _, r := range rows {
		if r.Compute <= 0 || r.Comm <= 0 {
			t.Fatalf("row %+v missing decomposition", r)
		}
	}
}

func TestFig14Quick(t *testing.T) {
	skipUnderShort(t)
	rows, err := Fig14(io.Discard, quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	var dim, xgb float64
	for _, r := range rows {
		switch r.System.String() {
		case "DimBoost":
			dim = r.ModeledTime.Seconds()
		case "XGBoost":
			xgb = r.ModeledTime.Seconds()
		}
	}
	if dim >= xgb {
		t.Fatalf("low-dim: dimboost (%v) not faster than xgboost (%v)", dim, xgb)
	}
}

func TestA1(t *testing.T) {
	rows := A1(io.Discard)
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// bias must be far below the one-shot step size
		if r.MeanBias > r.WorstStep/5 {
			t.Fatalf("bits=%d: bias %v vs step %v — not unbiased", r.Bits, r.MeanBias, r.WorstStep)
		}
	}
	// steps shrink with more bits
	if rows[len(rows)-1].WorstStep >= rows[0].WorstStep {
		t.Fatal("error step should shrink with bit width")
	}
}
