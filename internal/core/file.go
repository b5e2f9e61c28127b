package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"repro/internal/analysis"
	"repro/internal/dpg"
	"repro/internal/trace"
)

// AnalyzeFile runs the model over a trace file without ever loading the
// whole trace into memory: peak usage is O(block · workers), not O(trace).
// The static execution counts the model needs up front (write-once
// classification) come from the trace footer via a frame-walk probe that
// decodes no events; only when the probe cannot answer — a v1 stream, a
// damaged file, lenient mode, or a WithPreStats request — does a first
// streaming pass run the shardable pre-pass (dpg.PrePass) over the
// parallel reader's decoded blocks, concurrently across WithWorkers
// shards. The event pass then streams the file exactly once through the
// observer fan-out (analysis.RunObservers): the model first, then every
// WithObservers observer, on the same decoded blocks.
//
// WithWorkers decodes with the concurrent block decoder and shards the
// pre-pass; WithLenientTrace analyses whatever survives a damaged file
// instead of failing; WithTraceStats surfaces the decode summary;
// WithPreStats surfaces the pre-pass summary.
//
// Decode failures surface as "core: streaming <path>: ..." with the trace
// taxonomy folded into the core sentinels; a model or observer failure is
// a typed *analysis.ObserverError (joined when several fire).
func AnalyzeFile(path string, opts ...Option) (*dpg.Result, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	if err := cfg.ctxErr(); err != nil {
		return nil, wrapAbort(err)
	}

	// Pass 1: static execution counts — from the footer probe when the
	// frame structure is intact (no event decode at all), falling back to
	// the sharded pre-pass over per-block batches.
	counts, name, err := scanCounts(path, &cfg)
	if err != nil {
		return nil, err
	}

	// Pass 2: one decode fanned out to the model and every observer.
	mo, err := newModelObserver(name, counts, cfg.model)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	_, ropts := cfg.blockReaderOpts()
	pr, err := trace.NewParallelReader(f, ropts...)
	if err != nil {
		return nil, wrapTraceErr(err)
	}
	defer pr.Close()
	noteDecode(path)
	obs := append([]analysis.Observer{mo}, cfg.observers...)
	if err := analysis.RunObservers(pr, obs...); err != nil {
		return nil, fmt.Errorf("core: streaming %s: %w", path, wrapTraceErr(err))
	}
	if cfg.statsOut != nil {
		*cfg.statsOut = pr.Stats()
	}
	return mo.res, nil
}

// scanCounts obtains the static execution counts and workload name the
// model needs before its event pass. The fast path is the footer probe —
// a frame walk that reads no events, so the model pass that follows is
// the file's only decode. The probe cannot answer for v1 streams (no
// framed footer), damaged files (the established "core: scanning"
// error contract must come from a real decode), lenient mode (the
// surviving-events counts may legitimately differ from the footer), or
// when the caller asked for pre-pass statistics; all of those fall back
// to the sharded pre-pass.
func scanCounts(path string, cfg *config) ([]uint64, string, error) {
	if !cfg.lenient && cfg.preStats == nil {
		if fi, err := trace.ScanFooterFile(path); err == nil {
			return fi.Counts, fi.Name, nil
		}
	}
	return scanPrePass(path, cfg)
}

// blockReaderOpts translates the ingestion half of the config into
// parallel-reader options, and resolves the effective worker count:
// Workers(1) by default — each block decoded inline, no pipeline — or the
// WithWorkers count, where 0 means all cores.
func (c *config) blockReaderOpts() (workers int, ropts []trace.ReaderOption) {
	workers = c.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ropts = []trace.ReaderOption{trace.Workers(c.workers)}
	if c.lenient {
		ropts = append(ropts, trace.Lenient())
	}
	if c.ctx != nil {
		ropts = append(ropts, trace.WithContext(c.ctx))
	}
	return workers, ropts
}

// scanPrePass runs the shardable pre-pass over a trace file's decoded
// blocks and returns the static execution counts plus the workload name.
// The counts come from the footer when present (byte-identical to what a
// materializing reader would report); a footer lost to damage in lenient
// mode falls back to the pre-pass's own counts, which rebuild the same
// totals from the surviving events.
func scanPrePass(path string, cfg *config) ([]uint64, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()

	workers, ropts := cfg.blockReaderOpts()
	pr, err := trace.NewParallelReader(f, ropts...)
	if err != nil {
		return nil, "", wrapTraceErr(err)
	}
	defer pr.Close()
	noteDecode(path)

	pre := dpg.NewPrePass(pr.NumStatic())
	if err := dpg.RunSharded(pre, workers, pr.ForEachBlock); err != nil {
		return nil, "", fmt.Errorf("core: scanning %s: %w", path, wrapTraceErr(err))
	}
	if cfg.preStats != nil {
		*cfg.preStats = pre.Stats()
	}
	counts := pr.StaticCounts()
	if counts == nil {
		counts = pre.StaticCounts()
	}
	return counts, pr.Name(), nil
}

// FileResult is one file's outcome in a multi-file analysis.
type FileResult struct {
	Path  string
	Res   *dpg.Result
	Stats trace.Stats
	Err   error
}

// AnalyzeFiles fans AnalyzeFile out over several trace files with up to
// parallel concurrent analyses (0 or 1 = sequential), the same bounded
// worker-pool shape Suite.Precompute uses for model runs. Results keep the
// input order; per-file failures land in FileResult.Err without stopping
// the other files. Under WithContext, cancellation both aborts in-flight
// analyses and prevents new ones from starting.
func AnalyzeFiles(paths []string, parallel int, opts ...Option) []FileResult {
	out := make([]FileResult, len(paths))
	if parallel < 1 {
		parallel = 1
	}
	if parallel > len(paths) {
		parallel = len(paths)
	}
	// The context lives in the same option set as the per-file
	// configuration; resolve it once here. An invalid option set is left
	// for the per-file AnalyzeFile calls to report, preserving the
	// per-file error contract.
	cfg, _ := buildConfig(opts)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fr := &out[i]
				fr.Path = paths[i]
				if err := cfg.ctxErr(); err != nil {
					fr.Err = wrapAbort(err)
					continue
				}
				perFile := append(append([]Option{}, opts...), WithTraceStats(&fr.Stats))
				fr.Res, fr.Err = AnalyzeFile(paths[i], perFile...)
			}
		}()
	}
	for i := range paths {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// TraceDir returns a SuiteConfig.TraceFile lookup mapping each workload
// name to dir/<name>.dpg when that file exists, so a suite can stream
// pre-generated traces from disk instead of regenerating (and holding)
// them in memory.
func TraceDir(dir string) func(name string) (string, bool) {
	return func(name string) (string, bool) {
		p := filepath.Join(dir, name+".dpg")
		if _, err := os.Stat(p); err != nil {
			return "", false
		}
		return p, true
	}
}

// DumpJSON precomputes every (workload, predictor) model result and writes
// them as a JSON object keyed "workload/predictor" — the machine-readable
// companion to the text figures, for plotting or downstream analysis.
// Array fields are indexed by the dpg enums (NodeClass, ArcUse, ArcLabel,
// GenClass, OpGroup) in declaration order.
func (s *Suite) DumpJSON(w io.Writer) error {
	if err := s.Precompute(); err != nil {
		return err
	}
	all := make(map[string]*dpg.Result)
	for _, name := range s.suiteNames() {
		for _, k := range s.suiteKinds() {
			r, err := s.Result(name, k)
			if err != nil {
				return err
			}
			all[name+"/"+k.String()] = r
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(all)
}
