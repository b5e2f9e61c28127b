// Command dpgrun runs the predictability model over traces — a trace file
// produced by cmd/tracegen (or any external producer of the format), a
// whole directory or glob of trace files, or a built-in workload — and
// prints the classification summary.
//
// Usage:
//
//	dpgrun -trace gcc.dpg -predictor context
//	dpgrun -trace traces/            # every *.dpg in the directory
//	dpgrun -trace 'traces/*.dpg' -all -parallel 4
//	dpgrun -workload m88 -predictor stride
//	dpgrun -workload gcc -all          # all three predictors
//	dpgrun -trace damaged.dpg -strict=false   # resync past corrupt blocks
//	dpgrun -trace gcc.dpg -workers 8          # 8 concurrent decode workers
//
// Trace files are streamed from disk through the pass pipeline — static
// counts from the footer probe or a sharded pre-pass over decoded blocks
// (the first predictor run, whose header reports the pre-pass, and
// -strict=false always take the pre-pass), then the sequential model
// pass — so peak memory stays O(block·workers) regardless of trace size.
// When -trace names a directory or matches several files, the files fan
// out across a bounded worker pool (-parallel) with a per-file summary
// line per predictor; the exit status is non-zero if any file failed.
//
// By default a corrupt or truncated trace file is rejected with a typed
// error and a non-zero exit. With -strict=false the reader resynchronises
// past damaged blocks, analyses the surviving events, and prints a
// corruption summary (blocks skipped, bytes lost, truncation) to stderr,
// prefixed with the damaged file's path in directory and -merge modes.
//
// When influence sets overflowed the tracking cap, the path statistics
// (paper Figs. 9 and 11) are inexact; dpgrun says so on stderr, one line
// per predictor, so stdout stays the plain report.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dpg"
	"repro/internal/predictor"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	tracePat := flag.String("trace", "", "trace file, directory, or glob to analyse")
	workload := flag.String("workload", "", "built-in workload to trace and analyse")
	rounds := flag.Int("rounds", 0, "rounds parameter for -workload (0 = default)")
	pred := flag.String("predictor", "context", "last-value | stride | context | tage | ldbp")
	all := flag.Bool("all", false, "run every predictor (last-value, stride, context, tage, ldbp)")
	graph := flag.Int("graph", 0, "print the labeled DPG fragment for the first N instructions (paper Fig. 3)")
	strict := flag.Bool("strict", true, "reject corrupt traces; -strict=false resyncs past damage and summarises it")
	workers := flag.Int("workers", 0, "concurrent trace-decode workers per file (0 = all cores, 1 = sequential)")
	parallel := flag.Int("parallel", 0, "concurrent files in directory/glob mode (0 = all cores)")
	merge := flag.Bool("merge", false, "directory mode: merge every file's Result into one exact aggregate report instead of per-file summaries")
	flag.Parse()

	// SIGINT/SIGTERM cancels the analysis through the streaming decode
	// loops: whatever finished is reported, the run exits cleanly with a
	// partial-results summary and status 130 (128+SIGINT by convention).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	kinds := predictor.AllKinds
	if !*all {
		k, ok := kindByName(*pred)
		if !ok {
			fail(fmt.Sprintf("unknown predictor %q", *pred))
		}
		kinds = []predictor.Kind{k}
	}

	switch {
	case *tracePat != "" && *workload != "":
		fail("use either -trace or -workload, not both")
	case *merge && *tracePat == "":
		fail("-merge needs -trace naming a directory of .dpg files")
	case *merge:
		runMerged(ctx, *tracePat, kinds, *strict, *workers, *parallel)
	case *tracePat != "":
		paths := expandTraces(*tracePat)
		if len(paths) == 1 {
			runFile(ctx, paths[0], kinds, *graph, *strict, *workers)
			return
		}
		runFiles(ctx, paths, kinds, *strict, *workers, *parallel)
	case *workload != "":
		runWorkload(ctx, *workload, *rounds, kinds, *graph)
	default:
		fail("missing -trace or -workload")
	}
}

// expandTraces resolves -trace into file paths: a directory becomes every
// *.dpg inside it, a glob pattern expands, and a plain path passes through.
// Matches that are not regular files (symlinks followed) are dropped, so a
// directory yields the same set as -merge's core.AnalyzeDir.
func expandTraces(pat string) []string {
	if st, err := os.Stat(pat); err == nil && st.IsDir() {
		pat = filepath.Join(pat, "*.dpg")
	}
	matches, err := filepath.Glob(pat)
	if err != nil {
		fail(fmt.Sprintf("bad -trace pattern %q: %v", pat, err))
	}
	var paths []string
	for _, p := range matches {
		if st, err := os.Stat(p); err == nil && st.Mode().IsRegular() {
			paths = append(paths, p)
		}
	}
	if len(paths) == 0 {
		fail(fmt.Sprintf("no trace files match %q", pat))
	}
	sort.Strings(paths)
	return paths
}

// fileOpts assembles the streaming options shared by both file modes.
func fileOpts(ctx context.Context, k predictor.Kind, graph int, strict bool, workers int) []core.Option {
	opts := []core.Option{core.WithKind(k), core.WithWorkers(workers), core.WithContext(ctx)}
	if graph > 0 {
		opts = append(opts, core.WithGraphLimit(graph))
	}
	if !strict {
		opts = append(opts, core.WithLenientTrace())
	}
	return opts
}

// runFile streams one trace file through the pass pipeline, once per
// predictor, printing the same header and per-predictor report as the
// workload mode.
func runFile(ctx context.Context, path string, kinds []predictor.Kind, graph int, strict bool, workers int) {
	for i, k := range kinds {
		var ps dpg.PreStats
		var st trace.Stats
		opts := fileOpts(ctx, k, graph, strict, workers)
		if i == 0 {
			// Only the first run prints the header, so only it pays for the
			// pre-pass statistics (which force a decoding pre-pass); later
			// runs take their counts from the footer probe when it answers.
			opts = append(opts, core.WithPreStats(&ps), core.WithTraceStats(&st))
		}
		r, err := core.AnalyzeFile(path, opts...)
		if errors.Is(err, core.ErrAborted) {
			failInterrupted(i, len(kinds))
		}
		if err != nil {
			fail(err.Error())
		}
		if i == 0 {
			fmt.Printf("trace %s: %d dynamic instructions, %d static\n\n", r.Name, ps.Events, len(ps.StaticCount))
			if !strict {
				printCorruption("", st)
			}
		}
		printResult(r)
		if graph > 0 {
			report.WriteFragment(os.Stdout, r.Graph, nil)
		}
	}
}

// runFiles fans several trace files out across a worker pool, one
// AnalyzeFiles sweep per predictor, and prints per-file summary lines in
// file-major order. Any per-file failure turns into a non-zero exit after
// every file has been reported.
func runFiles(ctx context.Context, paths []string, kinds []predictor.Kind, strict bool, workers, parallel int) {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	byKind := make([][]core.FileResult, len(kinds))
	for i, k := range kinds {
		byKind[i] = core.AnalyzeFiles(paths, parallel, fileOpts(ctx, k, 0, strict, workers)...)
	}
	failed, interrupted := 0, 0
	for fi, path := range paths {
		fmt.Printf("== %s ==\n", path)
		for ki, k := range kinds {
			fr := byKind[ki][fi]
			if errors.Is(fr.Err, core.ErrAborted) {
				interrupted++
				fmt.Printf("  %-10s INTERRUPTED\n", k)
				continue
			}
			if fr.Err != nil {
				failed++
				fmt.Fprintf(os.Stderr, "dpgrun: %s (%s): %v\n", path, k, fr.Err)
				fmt.Printf("  %-10s ERROR (see stderr)\n", k)
				continue
			}
			row := analysis.Overall(fr.Res)
			fmt.Printf("  %-10s %12d events   gen %5.1f%%   prop %5.1f%%   term %5.1f%%   unpred %5.1f%%\n",
				k, fr.Res.Nodes, row.NodeGen+row.ArcGen, row.NodeProp+row.ArcProp,
				row.NodeTerm+row.ArcTerm, row.UnpredPct)
			if !strict && damaged(fr.Stats) {
				printCorruption(path+": ", fr.Stats)
			}
		}
	}
	total := len(paths) * len(kinds)
	if interrupted > 0 {
		fmt.Printf("\ninterrupted: %d of %d predictor run(s) completed, %d failure(s), %d cancelled\n",
			total-failed-interrupted, total, failed, interrupted)
		os.Exit(130)
	}
	fmt.Printf("\n%d file(s), %d predictor run(s), %d failure(s)\n", len(paths), total, failed)
	if failed > 0 {
		os.Exit(1)
	}
}

// runMerged analyzes every .dpg file in a directory and reports one exact
// aggregate per predictor (core.AnalyzeDir): the merged Result is
// byte-identical to what a single analysis of the concatenated populations
// would report, regardless of fan-out or decode configuration. Under
// -strict=false each damaged file's corruption summary goes to stderr once.
func runMerged(ctx context.Context, dir string, kinds []predictor.Kind, strict bool, workers, parallel int) {
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		fail(fmt.Sprintf("-merge needs a directory of .dpg files; %q is not one", dir))
	}
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	headerDone := false
	for i, k := range kinds {
		res, files, err := core.AnalyzeDir(dir, parallel, fileOpts(ctx, k, 0, strict, workers)...)
		if errors.Is(err, core.ErrAborted) {
			failInterrupted(i, len(kinds))
		}
		if err != nil {
			fail(err.Error())
		}
		if !headerDone {
			headerDone = true
			fmt.Printf("merged %d trace file(s) from %s: %d dynamic instructions\n\n",
				len(files), dir, res.Nodes)
			for _, fr := range files {
				if !strict && damaged(fr.Stats) {
					printCorruption(fr.Path+": ", fr.Stats)
				}
			}
		}
		printResult(res)
	}
}

// runWorkload traces a built-in workload in memory and runs the model —
// the only dpgrun mode that materializes a trace (the generator produces
// one directly).
func runWorkload(ctx context.Context, name string, rounds int, kinds []predictor.Kind, graph int) {
	w, ok := workloads.ByName(name)
	if !ok {
		fail(fmt.Sprintf("unknown workload %q; known: %v", name, workloads.Names()))
	}
	r := rounds
	if r == 0 {
		r = w.Rounds
	}
	t, err := w.TraceRounds(r, 1)
	if err != nil {
		fail(err.Error())
	}
	fmt.Printf("trace %s: %d dynamic instructions, %d static\n\n", t.Name, t.Len(), t.NumStatic)
	for i, k := range kinds {
		// The in-memory model pass has no cancellation probes; honor the
		// signal between predictor runs.
		if ctx.Err() != nil {
			failInterrupted(i, len(kinds))
		}
		res, err := core.RunTrace(t, core.WithKind(k), core.WithGraphLimit(graph))
		if err != nil {
			fail(err.Error())
		}
		printResult(res)
		if graph > 0 {
			var disasm func(pc uint32) string
			if prog, err := w.Program(); err == nil {
				disasm = func(pc uint32) string {
					if int(pc) < len(prog.Instrs) {
						return prog.Instrs[pc].String()
					}
					return "?"
				}
			}
			report.WriteFragment(os.Stdout, res.Graph, disasm)
		}
	}
}

func kindByName(name string) (predictor.Kind, bool) {
	return predictor.KindByName(name)
}

// printResult writes one predictor's report to stdout, and flags inexact
// path statistics on stderr.
func printResult(r *dpg.Result) {
	if over := r.Path.NumGenHist[dpg.MaxTrackedGens+1]; over > 0 {
		fmt.Fprintf(os.Stderr, "dpgrun: %s: path statistics inexact: %d of %d propagating elements (%.1f%%) overflowed the %d-generator influence cap\n",
			r.Predictor, over, r.Path.Elems, 100*float64(over)/float64(r.Path.Elems), dpg.MaxTrackedGens)
	}
	fmt.Printf("== predictor: %s ==\n", r.Predictor)
	report.WriteTable1(os.Stdout, analysis.Table1([]*dpg.Result{r}))
	report.WriteOverall(os.Stdout, []analysis.OverallRow{analysis.Overall(r)})
	report.WriteGeneration(os.Stdout, []analysis.GenRow{analysis.Generation(r)})
	report.WritePropagation(os.Stdout, []analysis.PropRow{analysis.Propagation(r)})
	report.WriteTermination(os.Stdout, []analysis.TermRow{analysis.Termination(r)})
	report.WriteBranches(os.Stdout, []analysis.BranchRow{analysis.BranchClasses(r)})
}

// damaged reports whether the lenient reader skipped or lost anything.
func damaged(st trace.Stats) bool {
	return st.BlocksSkipped > 0 || st.Truncated || st.FooterLost
}

// printCorruption summarises what the lenient reader recovered (and lost)
// on stderr; label names the file in multi-file modes ("path: ").
func printCorruption(label string, st trace.Stats) {
	if !damaged(st) {
		compressed := ""
		if st.BlocksCompressed > 0 {
			compressed = fmt.Sprintf(", %d compressed", st.BlocksCompressed)
		}
		fmt.Fprintf(os.Stderr, "dpgrun: %strace intact (v%d, %d blocks%s, %d events)\n",
			label, st.Version, st.Blocks, compressed, st.Events)
		return
	}
	fmt.Fprintf(os.Stderr, "dpgrun: %scorruption summary (v%d): recovered %d events from %d blocks; skipped %d damaged region(s), %d bytes",
		label, st.Version, st.Events, st.Blocks, st.BlocksSkipped, st.BytesSkipped)
	if st.Truncated {
		fmt.Fprint(os.Stderr, "; stream truncated")
	}
	if st.FooterLost {
		fmt.Fprint(os.Stderr, "; footer lost (static counts rebuilt from surviving events)")
	}
	if st.EventsDeclared > 0 && st.EventsDeclared != st.Events {
		fmt.Fprintf(os.Stderr, "; footer declared %d events (%d lost)",
			st.EventsDeclared, st.EventsDeclared-st.Events)
	}
	fmt.Fprintln(os.Stderr)
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "dpgrun:", msg)
	os.Exit(1)
}

// failInterrupted reports a signal-driven partial run: done of total
// predictor runs finished before the interrupt. Exit 130 follows the
// 128+SIGINT shell convention for a clean signal exit.
func failInterrupted(done, total int) {
	fmt.Fprintf(os.Stderr, "dpgrun: interrupted; partial results: %d of %d predictor run(s) completed\n", done, total)
	os.Exit(130)
}
