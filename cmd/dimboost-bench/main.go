// Command dimboost-bench regenerates the paper's tables and figures at
// laptop scale. Each subcommand corresponds to one table or figure of the
// evaluation section; `all` runs everything in paper order. It records no
// performance numbers: `bash bench/run.sh` (BENCHMARK.json) is the one
// place that does.
//
// Usage:
//
//	dimboost-bench table1
//	dimboost-bench fig12 -dataset gender
//	dimboost-bench all -scale 0.5
//	dimboost-bench -cpuprofile cpu.pprof table3 -scale 0.1
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"dimboost/internal/cluster"
	"dimboost/internal/experiments"
	"dimboost/internal/faultinject"
	"dimboost/internal/transport"
)

// options is the one flag set of the command; flags are accepted before
// and after the experiment name.
type options struct {
	scale       float64
	parallelism int
	dataset     string
	faultSpec   string
	cpuProfile  string
	memProfile  string
}

func define(fs *flag.FlagSet) *options {
	o := &options{}
	fs.Float64Var(&o.scale, "scale", 1.0, "dataset row-count multiplier (smaller = quicker)")
	fs.IntVar(&o.parallelism, "parallelism", 0, "training pool workers for every experiment (0 = per-experiment default); models stay bit-identical")
	fs.StringVar(&o.dataset, "dataset", "rcv1", "fig12 dataset: rcv1 | synthesis | gender")
	fs.StringVar(&o.faultSpec, "fault-spec", "", "fault-injection spec for distributed runs, e.g. 'seed=7;server-*:err=0.02'")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file at exit")
	return o
}

func main() {
	fs := flag.NewFlagSet("dimboost-bench", flag.ExitOnError)
	fs.Usage = func() { usage(fs) }
	o := define(fs)
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError
	if fs.NArg() < 1 {
		fs.Usage()
		os.Exit(2)
	}
	cmd := fs.Arg(0)
	// Flags may follow the experiment name as well: the same set parses
	// the remainder, so a later value overrides an earlier one.
	fs.Parse(fs.Args()[1:]) //nolint:errcheck // ExitOnError
	if fs.NArg() > 0 {
		fs.Usage()
		os.Exit(2)
	}
	s := experiments.Scale(o.scale)
	experiments.Parallelism = o.parallelism
	out := os.Stdout

	type experiment struct {
		name string
		run  func() error
	}
	fig12 := func(ds string) experiment {
		return experiment{"fig12-" + ds, func() error {
			_, err := experiments.Fig12(out, experiments.Fig12Dataset(ds), s)
			return err
		}}
	}
	// Paper order; `all` runs the list top to bottom.
	index := []experiment{
		{"fig1", func() error { _, err := experiments.Fig1(out, s); return err }},
		{"table1", func() error { experiments.Table1(out); return nil }},
		{"table3", func() error { _, err := experiments.Table3(out, s); return err }},
		fig12("rcv1"), fig12("synthesis"), fig12("gender"),
		{"table4", func() error { _, err := experiments.Table4(out, s); return err }},
		{"table5", func() error { _, err := experiments.Table5(out, s); return err }},
		{"table6", func() error { _, err := experiments.Table6(out, s); return err }},
		{"fig13", func() error { _, err := experiments.Fig13(out, s); return err }},
		{"fig14", func() error { _, err := experiments.Fig14(out, s); return err }},
		{"a1", func() error { experiments.A1(out); return nil }},
	}
	var selected []experiment
	switch cmd {
	case "all":
		selected = index
	case "fig12":
		selected = []experiment{fig12(o.dataset)}
	default:
		for _, e := range index {
			if e.name == cmd {
				selected = []experiment{e}
			}
		}
	}
	if len(selected) == 0 {
		fs.Usage()
		os.Exit(2)
	}

	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if o.memProfile != "" {
		defer func() {
			f, err := os.Create(o.memProfile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC() // materialize only live allocations
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	if o.faultSpec != "" {
		spec, err := faultinject.ParseSpec(o.faultSpec)
		if err != nil {
			log.Fatal(err)
		}
		// Every distributed run trains over a fault-injecting network with
		// retries enabled, so the benchmarks double as a soak test of the
		// fault-tolerance machinery.
		var mu sync.Mutex
		var nets []*faultinject.Network
		cluster.TrainHooks.WrapNetwork = func(inner transport.Network) transport.Network {
			fn := faultinject.New(inner, spec)
			mu.Lock()
			nets = append(nets, fn)
			mu.Unlock()
			return fn
		}
		cluster.TrainHooks.Config = func(c *cluster.Config) {
			if c.Retry == nil {
				p := transport.DefaultRetryPolicy()
				c.Retry = &p
			}
		}
		defer func() {
			var total faultinject.Stats
			mu.Lock()
			for _, fn := range nets {
				st := fn.Stats()
				total.Errors += st.Errors
				total.RespLosses += st.RespLosses
				total.Delays += st.Delays
				total.Partitions += st.Partitions
			}
			mu.Unlock()
			fmt.Fprintf(out, "[fault injection: %d errors, %d lost responses, %d delays, %d partition refusals]\n",
				total.Errors, total.RespLosses, total.Delays, total.Partitions)
		}()
	}

	for _, e := range selected {
		start := time.Now()
		if err := e.run(); err != nil {
			log.Fatalf("%s: %v", e.name, err)
		}
		fmt.Fprintf(out, "[%s completed in %s]\n", e.name, time.Since(start).Round(time.Millisecond))
	}
}

func usage(fs *flag.FlagSet) {
	fmt.Fprintln(os.Stderr, `usage: dimboost-bench [flags] <experiment> [flags]

experiments:
  fig1     run time vs #features, XGBoost vs DimBoost
  table1   communication cost model of the four aggregation strategies
  table3   ablation of the six proposed optimizations
  fig12    end-to-end five-system comparison (-dataset rcv1|synthesis|gender)
  table4   impact of the parameter-server count
  table5   test error vs feature dimension
  table6   PCA dimension reduction vs direct training
  fig13    scalability with time breakdown (load/compute/comm)
  fig14    comparison on a low-dimensional dataset
  a1       unbiasedness of low-precision histograms
  all      everything, in paper order

flags:`)
	fs.PrintDefaults()
}
