package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dimboost/internal/core"
	"dimboost/internal/dataset"
	"dimboost/internal/loss"
	"dimboost/internal/ooc"
	"dimboost/internal/predict"
)

// execResult is what the exec child hands back to the parent.
type execResult struct {
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Failures  []string          `json:"failures,omitempty"` // the first few, for the log
	Metrics   map[string]metric `json:"metrics"`            // end to end
	Layers    map[string]metric `json:"layers"`             // per layer (traced run)
	// Detail carries what is printed beside the metrics but not gated:
	// sample counts, minima and maxima of the repetitions.
	Detail map[string]float64 `json:"detail"`
	Spans  []spanTotal        `json:"spans,omitempty"`
}

// checker counts checked operations and the ones whose output was wrong.
type checker struct {
	mu                sync.Mutex
	attempted, failed int64
	failures          []string
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !ok {
		c.failed++
		if len(c.failures) < 8 {
			c.failures = append(c.failures, fmt.Sprintf(format, args...))
		}
	}
}

// tally adds a batch of already-counted operations (the HTTP phases).
func (c *checker) tally(attempted, failed int64, what string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted += attempted
	c.failed += failed
	if failed > 0 && len(c.failures) < 8 {
		c.failures = append(c.failures, fmt.Sprintf("%s: %d of %d requests were not a 200 with exact scores", what, failed, attempted))
	}
}

// inputs are the files gen wrote, beyond the training set the trainer reads
// itself on every repetition.
type inputs struct {
	valid  *dataset.Dataset
	bodies [][]byte
}

// execEnv is one exec run's state.
type execEnv struct {
	w       workload
	dir     string
	seconds float64
	corrupt bool
	in      *inputs
	tr      *tracer
	chk     *checker
	res     *execResult
}

func (e *execEnv) share(s float64) time.Duration {
	return time.Duration(s * e.seconds * float64(time.Second))
}

func (e *execEnv) set(name string, v float64, unit string) {
	e.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// cmdExec is the measured child: it loads only the generated files, runs
// warm-up and timed repetitions of every phase, checks every output, and
// reports its own peak resident set.
func cmdExec(args []string) error {
	fs := flag.NewFlagSet("exec", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	scale := fs.Float64("scale", 1, "problem-size scale")
	dir := fs.String("dir", "", "directory gen wrote")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	trace := fs.Bool("trace", false, "traced run: report per-layer metrics")
	corrupt := fs.Bool("corrupt-expected", false, "flip one expected score (smoke test: the check must fail)")
	out := fs.String("result", "", "result file")
	tracePath := fs.String("trace-out", "", "span list file (traced run)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	e := &execEnv{
		w: w.scaled(*scale), dir: *dir, seconds: *seconds, corrupt: *corrupt,
		tr: newTracer(*trace), chk: &checker{},
		res: &execResult{Metrics: map[string]metric{}, Layers: map[string]metric{}, Detail: map[string]float64{}},
	}
	if err := e.run(); err != nil {
		return err
	}
	e.res.Attempted, e.res.Failed, e.res.Failures = e.chk.attempted, e.chk.failed, e.chk.failures
	e.res.Spans = e.tr.totals()
	if *tracePath != "" {
		if err := e.tr.flush(*tracePath); err != nil {
			return err
		}
	}
	raw, err := json.Marshal(e.res)
	if err != nil {
		return err
	}
	return os.WriteFile(*out, raw, 0o644)
}

func (e *execEnv) run() error {
	valid, err := dataset.ReadBinaryFile(filepath.Join(e.dir, validFile))
	if err != nil {
		return err
	}
	bodies, err := readBodies(filepath.Join(e.dir, bodiesFile))
	if err != nil {
		return err
	}
	e.in = &inputs{valid: valid, bodies: bodies}

	t, err := newTrainer(e.w, e.dir, e.tr)
	if err != nil {
		return err
	}
	// Warm-up: page cache, allocator, lazily registered instruments.
	if _, err := t.rep(trainOpts{trees: warmTrees, run: -1}); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	var layers *layerRun
	reps := trainReps
	if e.tr != nil {
		layers = newLayerRun(e, t)
		reps = 4 // plain, traced, plain, traced: trace.overhead_share compares the minima
	}

	// One round per training repetition: the repetition, then a share of
	// every time-boxed phase's windows. This host's speed moves by ±15%
	// within seconds (neighbours on the memory system), so a phase measured
	// in one contiguous stretch reports the state of that stretch; windows
	// spread over the whole run and reported as a median report the run.
	var sv *serving
	var walls []float64
	var first trainRun
	for r := 0; r < reps; r++ {
		var run trainRun
		if layers != nil && r%2 == 1 {
			run, err = layers.tracedRep(r)
		} else {
			run, err = t.rep(trainOpts{run: r})
			if layers != nil {
				layers.plainWalls = append(layers.plainWalls, run.wall.Seconds())
			}
		}
		if err != nil {
			return fmt.Errorf("training repetition %d: %w", r, err)
		}
		walls = append(walls, run.wall.Seconds())
		if r == 0 {
			first = run
			if sv, err = e.startServing(); err != nil {
				return err
			}
			defer sv.stop()
		}
		e.checkModel(r, run.model, sv)
		sv.round(e, r)
	}

	sw := sorted(walls)
	e.set("train_s", median(walls), "s")
	e.res.Detail["train_s_min"], e.res.Detail["train_s_max"] = sw[0], sw[len(sw)-1]
	e.res.Detail["train_reps"] = float64(reps)
	e.set("serve_p50_ms", median(sv.p50s), "ms")
	e.set("serve_p90_ms", median(sv.p90s), "ms")
	e.res.Detail["serve_open_n"] = float64(sv.open.n)
	// Bytes put on a network: the PS exchange of one training repetition
	// (cluster mode) plus the open loop's fixed request count.
	e.set("wire_mb", float64(first.stats.TotalBytes+sv.open.bytes)/1e6, "MB")

	if layers != nil {
		if err := layers.serveLayers(sv); err != nil {
			return err
		}
		return layers.finish()
	}
	if peak, ok := ooc.PeakRSS(); ok {
		e.set("peak_rss_mb", float64(peak)/1e6, "MB")
	}
	return nil
}

// checkModel checks one training repetition: held-out predictions
// Float64bits-equal to the first repetition's, and a held-out logloss below
// the untrained model's (the workloads train 2 to 24 trees at η=0.1 from a
// zero base score, too few to ask for more).
func (e *execEnv) checkModel(r int, m *core.Model, sv *serving) {
	lf := loss.New(loss.Logistic)
	preds := m.PredictBatch(e.in.valid)
	ll := loss.MeanLoss(lf, e.in.valid.Labels, preds)
	if r == 0 {
		sv.firstPreds = preds
		e.set("valid_logloss", ll, "nats")
		e.res.Detail["untrained_logloss"] = loss.MeanLoss(lf, e.in.valid.Labels, make([]float64, len(preds)))
	}
	same, untrained := sameBits(preds, sv.firstPreds), e.res.Detail["untrained_logloss"]
	e.chk.check(same && ll < untrained,
		"training repetition %d: held-out logloss %.6f (untrained %.6f), bit-equal to repetition 0: %v",
		r, ll, untrained, same)
}

// serving is the request path brought up on the model file the first
// repetition saved (every later repetition saves the same bits), plus the
// samples its windows produce.
type serving struct {
	m   *core.Model
	srv *server
	sc  *scorer

	// offline scoring: the default engine against the interpreted walk
	eng       *predict.Engine
	want, out []float64

	closedClients, openClients []*client

	firstPreds []float64
	p50s, p90s []float64  // ms from due time, one per open-loop pass
	open       openResult // every pass, concatenated
	// traced runs only: saturated-throughput windows (recorded, not gated)
	predictRates []float64 // rows/s
	closedRPS    []float64 // exact 200s per second
}

// startServing does the program set-up a user pays once per process —
// model load, engine compile, listener up — setupReps times (setup_s
// reports a median), and readies the checks and the load generators.
func (e *execEnv) startServing() (*serving, error) {
	sv := &serving{}
	var startups []float64
	for i := 0; i < setupReps; i++ {
		if sv.srv != nil {
			sv.srv.stop()
		}
		end := e.tr.begin("serve.startup", i)
		t0 := time.Now()
		var err error
		if sv.m, err = core.LoadFile(filepath.Join(e.dir, modelFile)); err != nil {
			return nil, err
		}
		if sv.srv, err = startServer(sv.m, false); err != nil {
			return nil, err
		}
		startups = append(startups, time.Since(t0).Seconds())
		end()
	}
	e.res.Detail["startup_s"] = median(startups)

	sv.sc = newScorer(sv.m, e.in, e.w.Instances)
	if e.corrupt {
		sv.sc.want[0][0] = math.Float64frombits(math.Float64bits(sv.sc.want[0][0]) ^ 1)
	}
	var err error
	if sv.eng, err = sv.m.Compiled(); err != nil {
		return nil, err
	}
	sv.want = sv.m.PredictBatchInterpreted(e.in.valid)
	sv.out = make([]float64, len(sv.want))
	sv.closedClients = newClients(sv.srv.url, closedClients)
	sv.openClients = newClients(sv.srv.url, openSenders)

	// Every run checks the default engine against the interpreted walk once
	// (this pass also warms its buffers), then warms connections, pooled
	// decode buffers and GC pacing.
	sv.eng.PredictBatchInto(e.in.valid, sv.out)
	e.chk.check(sameBits(sv.out, sv.want), "engine batch scores differ from the interpreted walk")
	closedLoop(sv.closedClients, sv.sc, max(e.share(0.02), 50*time.Millisecond))
	openLoop(sv.openClients, sv.sc, e.w.Rate, max(e.share(0.01), 50*time.Millisecond), nil)
	return sv, nil
}

func (sv *serving) stop() {
	closeClients(sv.closedClients)
	closeClients(sv.openClients)
	sv.srv.stop()
}

// round runs one round's share of the time-boxed phases and checks every
// output. Every run makes the open-loop passes. A traced run first adds the
// two saturated-throughput phases — offline batch scoring of the held-out
// set with the default engine (auto backend, default workers) and the HTTP
// closed loop — whose rates follow the host's memory-system load too closely
// to gate anything (NOISE.md).
func (sv *serving) round(e *execEnv, r int) {
	if e.tr != nil {
		end := e.tr.begin("predict.batch", r)
		winLen := e.share(predictShare) / (trainReps * predictPerRound)
		for w := 0; w < predictPerRound; w++ {
			rows := 0
			start := time.Now()
			for time.Since(start) < winLen {
				sv.eng.PredictBatchInto(e.in.valid, sv.out)
				rows += len(sv.out)
			}
			sv.predictRates = append(sv.predictRates, float64(rows)/time.Since(start).Seconds())
			e.chk.check(sameBits(sv.out, sv.want), "round %d predict window %d: engine scores differ from the interpreted walk", r, w)
		}
		end()

		end = e.tr.begin("serve.closed_loop", r)
		for w := 0; w < closedPerRound; w++ {
			attempted, failed, rps := closedLoop(sv.closedClients, sv.sc, e.share(closedShare)/(trainReps*closedPerRound))
			e.chk.tally(attempted, failed, "closed loop")
			sv.closedRPS = append(sv.closedRPS, rps)
		}
		end()
	}

	end := e.tr.begin("serve.open_loop", r)
	for w := 0; w < openPerRound; w++ {
		op := openLoop(sv.openClients, sv.sc, e.w.Rate, e.share(openShare)/(trainReps*openPerRound), e.tr)
		e.chk.tally(int64(op.n), int64(op.n)-op.ok, "open loop "+op.String())
		lat := op.latencies()
		sv.p50s = append(sv.p50s, percentile(lat, 0.50))
		sv.p90s = append(sv.p90s, percentile(lat, 0.90))
		sv.open.merge(op)
	}
	end()
}

// hostSteal reads the cumulative steal and total jiffies of /proc/stat.
func hostSteal() (steal, total float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	var v [10]float64
	var cpu string
	n, _ := fmt.Sscan(string(raw), &cpu, &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7], &v[8], &v[9])
	for i := 0; i < n-1 && i < 8; i++ { // guest time is already inside user
		total += v[i]
	}
	return v[7], total
}

// memDelta is the allocation and GC activity between two MemStats.
func memDelta(a, b *runtime.MemStats) (allocMB, gcCount, pauseMS float64) {
	return float64(b.TotalAlloc-a.TotalAlloc) / 1e6,
		float64(b.NumGC - a.NumGC),
		float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6
}
