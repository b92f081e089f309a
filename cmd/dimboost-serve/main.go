// Command dimboost-serve exposes a trained model over HTTP for online
// scoring, behind an overload-safe admission layer.
//
// Usage:
//
//	dimboost-serve -model model.bin -listen :8080 [-reload] [-drain-timeout 10s]
//	  [-max-concurrent 64] [-queue-depth 256] [-queue-timeout 250ms]
//	  [-coalesce] [-coalesce-window 500µs] [-coalesce-batch 256]
//	  [-quota-rate 100 -quota-burst 200] [-quota-overrides 'teamA=500:1000,teamB=5:5']
//	  [-probe-set probe.libsvm] [-probe-max-loss 0.7]
//
// Endpoints: GET /healthz (503 while draining), GET /model (includes the
// registry version history), GET /importance?top=N, POST /predict
// (application/json or text/libsvm), GET /metrics (Prometheus text),
// GET /debug/obs (JSON timeline).
//
// Admission: /predict work is bounded by -max-concurrent with a
// -queue-depth deep wait queue (each waiter bounded by -queue-timeout);
// excess load is shed with 503 + Retry-After. Per-tenant token-bucket
// quotas key on the X-Tenant header (absent = "default") and shed with
// 429 + Retry-After; -quota-rate/-quota-burst set the default bucket and
// -quota-overrides sets per-tenant shapes as name=rate:burst pairs.
//
// With -coalesce, admitted /predict requests are merged server-side into
// engine-sized scoring batches: a request waits at most -coalesce-window
// for companions (an uncontended request never waits), batches cap at
// -coalesce-batch instances, and scores are bit-identical to scoring each
// request alone. See dimboost_serve_coalesce_* metrics.
//
// With -reload, POST /model/reload or SIGHUP re-reads the model file and
// swaps it in through the validated registry: the incoming model must
// compile and, when -probe-set is given, score the probe set finitely
// (and under -probe-max-loss when set) — otherwise the previous version
// keeps serving (auto-rollback, visible as
// dimboost_serve_rollbacks_total and the retained version on /model).
//
// SIGINT/SIGTERM drain gracefully: /healthz flips to 503, new /predict
// work is refused immediately, queued and in-flight requests finish
// (bounded by -drain-timeout, after which remaining connections are
// force-closed), then the process exits.
//
// Example request:
//
//	curl -s localhost:8080/predict -d '{"instances":[{"indices":[3,17],"values":[1.5,0.2]}]}'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dimboost"
	"dimboost/internal/core"
	"dimboost/internal/dataset"
	"dimboost/internal/serve"
)

func main() {
	var (
		modelPath    = flag.String("model", "model.bin", "trained model file")
		listen       = flag.String("listen", "127.0.0.1:8080", "listen address")
		reload       = flag.Bool("reload", false, "enable POST /model/reload and SIGHUP model reloading")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "max wait for in-flight requests on shutdown")

		maxConcurrent = flag.Int("max-concurrent", 0, "max concurrent /predict requests (0 = 4×GOMAXPROCS, -1 = unlimited)")
		queueDepth    = flag.Int("queue-depth", 0, "admission wait-queue depth (0 = 4×max-concurrent)")
		queueTimeout  = flag.Duration("queue-timeout", 250*time.Millisecond, "max time a request may wait for admission")

		coalesce       = flag.Bool("coalesce", false, "merge concurrent /predict requests into engine-sized scoring batches")
		coalesceWindow = flag.Duration("coalesce-window", 500*time.Microsecond, "max time a request lingers waiting for batch companions")
		coalesceBatch  = flag.Int("coalesce-batch", 0, "max instances per coalesced batch (0 = engine-preferred)")

		quotaRate      = flag.Float64("quota-rate", 0, "default per-tenant quota, requests/sec (0 = quotas disabled)")
		quotaBurst     = flag.Float64("quota-burst", 0, "default per-tenant burst (0 = same as -quota-rate)")
		quotaOverrides = flag.String("quota-overrides", "", "per-tenant buckets, e.g. 'teamA=500:1000,teamB=5:5' (rate:burst)")

		probeSet     = flag.String("probe-set", "", "LibSVM file scored to validate every reloaded model before swap")
		probeMaxLoss = flag.Float64("probe-max-loss", 0, "reject reloaded models whose probe mean loss exceeds this (0 = finiteness check only)")
	)
	flag.Parse()

	m, err := dimboost.LoadModelFile(*modelPath)
	if err != nil {
		log.Fatal(err)
	}
	internal, leaves := m.NumNodes()
	fmt.Printf("serving %s model: %d trees, %d internal nodes, %d leaves\n",
		m.Loss, len(m.Trees), internal, leaves)

	h := serve.New(m)
	if *reload {
		h.OnReload = func() (*core.Model, error) { return dimboost.LoadModelFile(*modelPath) }
	}

	if *maxConcurrent >= 0 {
		mc := *maxConcurrent
		if mc == 0 {
			mc = 4 * runtime.GOMAXPROCS(0)
		}
		qd := *queueDepth
		if qd == 0 {
			qd = 4 * mc
		}
		h.Limiter = serve.NewLimiter(serve.AdmissionConfig{
			MaxConcurrent: mc, QueueDepth: qd, QueueTimeout: *queueTimeout,
		})
		fmt.Printf("admission: %d concurrent, queue %d deep, %s queue timeout\n", mc, qd, *queueTimeout)
	}

	if *quotaRate > 0 || *quotaOverrides != "" {
		burst := *quotaBurst
		if burst <= 0 {
			burst = *quotaRate
		}
		q := serve.NewQuotas(serve.QuotaConfig{Rate: *quotaRate, Burst: burst})
		overrides, err := parseQuotaOverrides(*quotaOverrides)
		if err != nil {
			log.Fatalf("-quota-overrides: %v", err)
		}
		for tenant, cfg := range overrides {
			q.SetTenant(tenant, cfg)
		}
		h.Quota = q
		fmt.Printf("quotas: default %g req/s burst %g, %d overrides (X-Tenant header)\n",
			*quotaRate, burst, len(overrides))
	}

	if *coalesce {
		c := h.EnableCoalescing(serve.CoalesceConfig{Window: *coalesceWindow, MaxBatch: *coalesceBatch})
		fmt.Printf("coalescing: window %s, batch cap %d\n", *coalesceWindow, c.Config().MaxBatch)
	}

	if *probeSet != "" {
		probe, err := dataset.ReadLibSVMFile(*probeSet, 0)
		if err != nil {
			log.Fatalf("-probe-set: %v", err)
		}
		h.Registry().Validate = serve.ProbeValidator(probe, *probeMaxLoss)
		fmt.Printf("reload validation: %d-row probe set", probe.NumRows())
		if *probeMaxLoss > 0 {
			fmt.Printf(", mean loss limit %g", *probeMaxLoss)
		}
		fmt.Println()
	}

	// Listen before announcing, so the printed address is the bound one
	// (-listen 127.0.0.1:0 picks a free port).
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for sig := range sigs {
			if sig == syscall.SIGHUP {
				if h.OnReload == nil {
					log.Print("SIGHUP ignored: run with -reload to enable model reloading")
					continue
				}
				nm, err := h.OnReload()
				if err != nil {
					log.Printf("SIGHUP reload failed: %v", err)
					continue
				}
				if err := h.Swap(nm); err != nil {
					log.Printf("SIGHUP reload rejected: %v", err)
					continue
				}
				log.Printf("SIGHUP reload: %d trees", len(nm.Trees))
				continue
			}
			// SIGINT/SIGTERM: stop advertising health, drain, exit. If the
			// drain deadline passes with connections still open, force-close
			// them — a stuck client must not hold the process past
			// -drain-timeout.
			log.Printf("%s: draining (up to %s)", sig, *drainTimeout)
			h.SetDraining(true)
			ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
			if err := srv.Shutdown(ctx); err != nil {
				log.Printf("shutdown: %v; force-closing remaining connections", err)
				srv.Close() //nolint:errcheck
			}
			cancel()
			// With HTTP fully stopped, flush any requests still parked in
			// the coalescer (each belongs to an in-flight handler).
			h.Close()
			return
		}
	}()

	fmt.Printf("listening on http://%s\n", ln.Addr())
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-done
}

// parseQuotaOverrides parses 'tenant=rate:burst,...' into per-tenant
// bucket shapes.
func parseQuotaOverrides(s string) (map[string]serve.QuotaConfig, error) {
	out := map[string]serve.QuotaConfig{}
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		name, spec, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad entry %q (want tenant=rate:burst)", part)
		}
		rateStr, burstStr, ok := strings.Cut(spec, ":")
		if !ok {
			return nil, fmt.Errorf("bad entry %q (want tenant=rate:burst)", part)
		}
		rate, err := strconv.ParseFloat(rateStr, 64)
		if err != nil {
			return nil, fmt.Errorf("bad rate in %q: %v", part, err)
		}
		burst, err := strconv.ParseFloat(burstStr, 64)
		if err != nil {
			return nil, fmt.Errorf("bad burst in %q: %v", part, err)
		}
		out[name] = serve.QuotaConfig{Rate: rate, Burst: burst}
	}
	return out, nil
}
