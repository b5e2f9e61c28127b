package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/dpg"
)

// dirBatch is how many directory entries one ReadDir call pulls during
// AnalyzeDir's streaming walk. A var so tests can shrink it to force
// multi-batch walks over small fixtures.
var dirBatch = 64

// dirBatchHook, when set, runs after each batch of directory entries has
// been dispatched (test seam: lets a test grow the directory mid-walk at a
// deterministic point).
var dirBatchHook func(batch int)

// maxDirPasses caps AnalyzeDir's catch-up rescans over a growing
// directory: the walk repeats until a pass finds nothing new or this many
// passes have run, whichever comes first.
const maxDirPasses = 8

// AnalyzeDir analyzes every trace file in a directory and merges the
// per-trace Results into one exact aggregate. The directory is walked as a
// stream — entries are read in batches and each *.dpg file is dispatched
// to the bounded worker pool (up to parallel concurrent analyses, each of
// which may itself run speculative chains under WithSpeculation) as soon
// as its batch arrives, so analysis overlaps the walk and the full
// listing is never materialized. Files that appear while the walk is in
// progress are picked up by catch-up rescans that repeat until a full
// pass discovers nothing new (bounded by maxDirPasses), each file analysed
// exactly once. The partial Results are combined with dpg.MergeResults; merging is
// exact summation — every count and histogram of the aggregate equals what
// a single Result over the concatenated populations would hold — and the
// merge folds in sorted path order, so the aggregate is independent of
// discovery order and of the parallel/speculation configuration.
//
// The per-file outcomes are always returned (in sorted path order) for
// inspection alongside the aggregate. Any per-file failure fails the whole
// merge: a partial aggregate would silently misweight the surviving files,
// so the error names the failing files instead. The merged Result is named
// after the directory unless every trace in it reports the same workload
// name.
func AnalyzeDir(dir string, parallel int, opts ...Option) (*dpg.Result, []FileResult, error) {
	if parallel < 1 {
		parallel = 1
	}
	// The fan-out policy knobs (fail-fast, context) live in the same option
	// set as the per-file configuration; resolve them once here. An invalid
	// option set is left for the per-file AnalyzeFile calls to report,
	// preserving the per-file error contract.
	cfg, _ := buildConfig(opts)

	paths := make(chan string)
	results := make(chan FileResult)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range paths {
				fr := FileResult{Path: p}
				if err := cfg.ctxErr(); err != nil {
					fr.Err = wrapAbort(err)
				} else if cfg.failFast && failed.Load() {
					fr.Err = fmt.Errorf("%w: fail-fast: an earlier file failed", ErrAborted)
				} else {
					perFile := append(append([]Option{}, opts...), WithTraceStats(&fr.Stats))
					fr.Res, fr.Err = AnalyzeFile(p, perFile...)
					if fr.Err != nil && !errors.Is(fr.Err, ErrAborted) {
						failed.Store(true)
					}
				}
				results <- fr
			}
		}()
	}
	collected := make(chan []FileResult)
	go func() {
		var all []FileResult
		for fr := range results {
			all = append(all, fr)
		}
		collected <- all
	}()

	// The streaming walk: read entries in batches, dispatch matches
	// immediately, and — because a directory stream only reflects the
	// directory as the kernel buffered it — rescan after each pass until a
	// full pass discovers nothing new, so files landing mid-walk are still
	// analysed. seen keeps it to one analysis per name no matter how many
	// passes surface an entry; maxDirPasses bounds a pathological producer
	// that never stops writing.
	seen := make(map[string]bool)
	var walkErr error
	batch := 0
	for pass, added := 0, 1; (pass == 0 || added > 0) && pass < maxDirPasses && walkErr == nil; pass++ {
		added = 0
		d, err := os.Open(dir)
		if err != nil {
			walkErr = err
			break
		}
		for {
			ents, rerr := d.ReadDir(dirBatch)
			for _, e := range ents {
				if e.IsDir() || !strings.HasSuffix(e.Name(), ".dpg") || seen[e.Name()] {
					continue
				}
				seen[e.Name()] = true
				added++
				paths <- filepath.Join(dir, e.Name())
			}
			if dirBatchHook != nil {
				dirBatchHook(batch)
			}
			batch++
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				walkErr = rerr
				break
			}
		}
		d.Close()
	}
	close(paths)
	wg.Wait()
	close(results)
	files := <-collected
	sort.Slice(files, func(i, j int) bool { return files[i].Path < files[j].Path })

	if walkErr != nil {
		return nil, files, fmt.Errorf("core: walking %s: %w", dir, walkErr)
	}
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("%w: no .dpg trace files in %s", ErrConfig, dir)
	}

	var errs []error
	merge := make([]*dpg.Result, 0, len(files))
	for i := range files {
		if files[i].Err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", files[i].Path, files[i].Err))
			continue
		}
		merge = append(merge, files[i].Res)
	}
	if len(errs) > 0 {
		return nil, files, errors.Join(errs...)
	}

	merged, err := dpg.MergeResults(merge...)
	if err != nil {
		return nil, files, err
	}
	if merged.Name == "" {
		merged.Name = filepath.Base(dir)
	}
	return merged, files, nil
}
