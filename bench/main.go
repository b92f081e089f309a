// Command bench is the repository's benchmark: four workloads that each run
// the whole path (dataset on disk → model file → HTTP scores), the
// end-to-end metrics BENCHMARK.json declares, and — in a separate traced
// run — per-layer numbers for every module under them. See README.md.
//
//	bash bench/run.sh --workload train_sparse --seed 1 --seconds 20 --trace 0
//	go -C bench run . aa -sets 2 -runs 5
//	go -C bench run . compare old.json new.json
package main

import (
	"errors"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: bench run|aa|compare [flags]   (gen and exec are run's children)")
		os.Exit(2)
	}
	// Every path the harness uses is relative to the checkout root; `go -C
	// bench run .` starts one level below it.
	if _, err := os.Stat(contractFile); err != nil {
		if _, err := os.Stat("../" + contractFile); err == nil {
			if err := os.Chdir(".."); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(2)
			}
		}
	}
	var err error
	switch cmd, args := os.Args[1], os.Args[2:]; cmd {
	case "run":
		err = cmdRun(args, os.Stdout)
	case "gen":
		err = cmdGen(args)
	case "exec":
		err = cmdExec(args)
	case "aa":
		err = cmdAA(args, os.Stdout)
	case "compare":
		err = cmdCompare(args, os.Stdout)
	default:
		err = fmt.Errorf("unknown command %q", cmd)
	}
	switch {
	case err == nil:
	case errors.Is(err, errIncorrect), errors.Is(err, errWorse):
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
}
