// Command figures regenerates the paper's tables and figures.
//
// Usage:
//
//	figures                     # every experiment, default workload sizes
//	figures -experiment fig5    # one experiment
//	figures -scale 0.25         # quarter-size workloads (fast smoke run)
//	figures -list               # list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
)

func main() {
	experiment := flag.String("experiment", "", "experiment id (default: all); see -list")
	scale := flag.Float64("scale", 1.0, "workload size multiplier")
	seed := flag.Uint64("seed", 1, "workload input seed")
	parallel := flag.Int("parallel", 4, "concurrent model runs during precompute; with -tracedir, concurrent fused passes, each holding one workload's full observer set in memory")
	traceDir := flag.String("tracedir", "", "stream pre-generated <name>.dpg trace files from this directory instead of regenerating workloads in memory; every experiment shares one decode per trace (fused observer fan-out)")
	workers := flag.Int("workers", 0, "concurrent decode workers per streamed trace file with -tracedir (0 = all cores)")
	paper := flag.Bool("paper", false, "restrict to the source paper's corpus: 12 SPEC95-modeled workloads x 3 predictors (default: extended corpus with graph workloads and tage/ldbp)")
	verbose := flag.Bool("v", false, "print progress while running")
	list := flag.Bool("list", false, "list experiment ids and exit")
	jsonPath := flag.String("json", "", "also dump every raw model result as JSON to this file")
	flag.Parse()

	if *list {
		for _, id := range core.ExperimentIDs() {
			fmt.Printf("%-8s %s\n", id, core.Experiments()[id])
		}
		return
	}

	cfg := core.SuiteConfig{Scale: *scale, Seed: *seed, Parallel: *parallel, PaperCorpus: *paper}
	if *traceDir != "" {
		cfg.TraceFile = core.TraceDir(*traceDir)
		cfg.Workers = *workers
	}
	if *verbose {
		cfg.Progress = os.Stderr
	}
	suite := core.NewSuite(cfg)

	var err error
	if *experiment == "" {
		err = suite.RunAll(os.Stdout)
	} else {
		err = suite.Run(*experiment, os.Stdout)
	}
	if err == nil && *jsonPath != "" {
		var f *os.File
		f, err = os.Create(*jsonPath)
		if err == nil {
			err = suite.DumpJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}
