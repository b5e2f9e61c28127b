package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dpg"
	"repro/internal/predictor"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// outcome is what one job produced, as the benchmark sees it.
type outcome struct {
	events   uint64 // trace events the job answered
	err      error  // the job failed (error, 429, 5xx)
	mismatch bool   // the job answered, but not what the reference says
}

// workload is one named traffic mix. Job i is a pure function of the
// workload's seed, so the traced run can replay exactly the jobs an
// untraced run executed.
type workload interface {
	// clients is how many closed-loop callers drive the mix.
	clients() int
	// round is how many consecutive jobs make one balanced mix; a
	// measured loop always runs whole rounds.
	round() int
	// width is how many layer calls one job runs at once (the directory
	// fan-out), the divisor closure sets summed self time against.
	width() int
	// references computes every expected answer from the in-memory traces,
	// without the file reader or the server.
	references() error
	// run executes job i through the entry point a user calls.
	run(i int) outcome
	// replay executes job i again as a sequence of calls into the layers'
	// public functions, each recorded as a span under parent.
	replay(t *tracer, job, parent, i int) outcome
	// batteryTraces are the traces the per-layer battery measures on.
	batteryTraces() []*trace.Trace
	// release drops the in-memory traces once the references are built,
	// so the heap a run measures is the program's, not the benchmark's.
	release()
	// serverLoad returns what the servers of the untraced jobs saw, or nil
	// when the mix runs no server.
	serverLoad() (*serverLoad, error)
	close()
}

// setupFunc generates a workload's inputs from seed under dir: trace
// generation, encoding, and server start. It is what setup_s times.
type setupFunc func(dir string, seed uint64) (workload, error)

var setups = map[string]setupFunc{
	"file-full": setupFileFull,
	"dpgd-mix":  setupDpgdMix,
	"dir-short": setupDirShort,
}

var kinds = predictor.AllKinds

func kindConfig(k predictor.Kind) dpg.Config {
	return dpg.Config{Predictor: k.Factory(), PredictorName: k.String()}
}

// fullEvents fixes the length of the full-size traces whose length depends
// on the seed (the graph programs walk a seeded random graph). They run
// at twice their default rounds and are cut at this many events, so the
// seed changes what a trace holds but not how long it is.
var fullEvents = map[string]uint64{"pgr": 421_000, "bfs": 171_000}

// genTrace runs a built-in workload with the given rounds (0 for its
// full size) and input seed.
func genTrace(name string, rounds int, seed uint64) (*trace.Trace, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	n, sized := fullEvents[name]
	if rounds > 0 || !sized {
		if rounds <= 0 {
			rounds = w.Rounds
		}
		return w.TraceRounds(rounds, seed)
	}
	prog, err := w.Program()
	if err != nil {
		return nil, err
	}
	t, err := vm.Trace(prog, vm.SliceInput(w.Input(2*w.Rounds, seed)), n)
	if _, limit := err.(vm.ErrLimit); err != nil && !limit {
		return nil, err
	}
	if uint64(t.Len()) != n {
		return nil, fmt.Errorf("%s: seed %d gives %d events, want %d", name, seed, t.Len(), n)
	}
	return t, nil
}

// subSeed derives the input seed of the j-th trace of a run.
func subSeed(seed uint64, j int) uint64 { return seed*1_000_003 + uint64(j)*7919 + 1 }

// encodeRef runs the model on an in-memory trace and returns the canonical
// wire bytes the benchmark compares every answer against.
func encodeRef(t *trace.Trace, k predictor.Kind) (*dpg.Result, []byte, error) {
	r, err := dpg.RunWith(t, kindConfig(k))
	if err != nil {
		return nil, nil, err
	}
	b, err := dpg.EncodeResult(r, server.ModelVersion)
	return r, b, err
}

// sameAs reports whether r encodes to exactly the reference bytes.
func sameAs(r *dpg.Result, ref []byte) bool {
	b, err := dpg.EncodeResult(r, server.ModelVersion)
	return err == nil && bytes.Equal(b, ref)
}

// parallel runs fn(0..n-1) on GOMAXPROCS goroutines and joins the errors.
func parallel(n int, fn func(i int) error) error {
	return parallelN(runtime.GOMAXPROCS(0), n, fn)
}

// inputs is a workload's generated traces, kept in memory for the
// references and the battery, and their event counts, which outlive them.
type inputs struct {
	traces []*trace.Trace
	events []uint64
}

func (in *inputs) add(t *trace.Trace) {
	in.traces = append(in.traces, t)
	in.events = append(in.events, uint64(t.Len()))
}

func (in *inputs) release() { in.traces = nil }

// batteryTraces returns the leading traces whose events first reach
// batteryEvents.
func (in *inputs) batteryTraces() []*trace.Trace {
	n := 0
	for i, t := range in.traces {
		n += t.Len()
		if n >= batteryEvents {
			return in.traces[:i+1]
		}
	}
	return in.traces
}

// --- file-full -------------------------------------------------------------

// fileFull is the CLI user's path: `dpgrun -trace F -predictor K` over
// full-size traces under every codec, one caller.
type fileFull struct {
	inputs
	seed  uint64
	paths [][]string // [trace][codec]
	refs  [][][]byte // [trace][kind]
}

var fileFullTraces = []string{"gcc", "mgr", "pgr"}

func setupFileFull(dir string, seed uint64) (workload, error) {
	f := &fileFull{seed: seed}
	for j, name := range fileFullTraces {
		t, err := genTrace(name, 0, subSeed(seed, j))
		if err != nil {
			return nil, err
		}
		var ps []string
		for _, c := range trace.Codecs() {
			p := filepath.Join(dir, fmt.Sprintf("%s.%s.dpg", name, c))
			if err := trace.WriteFile(p, t, trace.Compression(c)); err != nil {
				return nil, err
			}
			ps = append(ps, p)
		}
		f.add(t)
		f.paths = append(f.paths, ps)
	}
	return f, nil
}

func (f *fileFull) clients() int { return 1 }
func (f *fileFull) width() int   { return 1 }
func (f *fileFull) round() int   { return len(f.events) * len(kinds) }

func (f *fileFull) references() error {
	f.refs = make([][][]byte, len(f.events))
	for i := range f.refs {
		f.refs[i] = make([][]byte, len(kinds))
	}
	return parallel(len(f.events)*len(kinds), func(i int) error {
		t, k := i/len(kinds), i%len(kinds)
		_, b, err := encodeRef(f.traces[t], kinds[k])
		f.refs[t][k] = b
		return err
	})
}

// job maps index i onto (trace, codec, kind). Trace and kind both step
// every job, so each round of 15 consecutive jobs covers every (trace,
// kind) pair once; the codec steps every 5 jobs and shifts by one each
// round, so a round holds five jobs per codec and three rounds cover all
// 45 combinations. The seed relabels all three.
func (f *fileFull) job(i int) (t, c, k int) {
	nt, nc, nk := len(f.events), len(trace.Codecs()), len(kinds)
	rng := rand.New(rand.NewSource(int64(f.seed)*7907 + 1))
	tp, cp, kp := rng.Perm(nt), rng.Perm(nc), rng.Perm(nk)
	round := i / f.round()
	return tp[i%nt], cp[(i%f.round()/nk+round)%nc], kp[i%nk]
}

func (f *fileFull) run(i int) outcome {
	t, c, k := f.job(i)
	var ps dpg.PreStats
	var st trace.Stats
	r, err := core.AnalyzeFile(f.paths[t][c], core.WithKind(kinds[k]), core.WithWorkers(0),
		core.WithContext(context.Background()), core.WithPreStats(&ps), core.WithTraceStats(&st))
	if err != nil {
		return outcome{err: err}
	}
	return outcome{events: f.events[t], mismatch: !sameAs(r, f.refs[t][k])}
}

// replay splits AnalyzeFile's WithPreStats path into its layers: the
// sharded pre-pass, the parallel decode, predictor setup, the model pass.
func (f *fileFull) replay(tr *tracer, job, parent, i int) outcome {
	t, c, k := f.job(i)
	path := f.paths[t][c]
	var counts []uint64
	var name string
	err := tr.do(job, parent, "trace.prepass", func() error {
		var err error
		counts, name, err = prePass(path)
		return err
	})
	if err != nil {
		return outcome{err: err}
	}
	r, err := decodeAndModel(tr, job, parent, path, name, counts, kinds[k])
	if err != nil {
		return outcome{err: err}
	}
	return outcome{events: f.events[t], mismatch: !sameAs(r, f.refs[t][k])}
}

func (f *fileFull) serverLoad() (*serverLoad, error) { return nil, nil }
func (f *fileFull) close()                           {}

// prePass is core's scanPrePass from outside: the sharded dpg.PrePass over
// the parallel reader's blocks at GOMAXPROCS workers.
func prePass(path string) ([]uint64, string, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer fh.Close()
	pr, err := trace.NewParallelReader(fh, trace.Workers(0))
	if err != nil {
		return nil, "", err
	}
	defer pr.Close()
	pre := dpg.NewPrePass(pr.NumStatic())
	if err := dpg.RunSharded(pre, runtime.GOMAXPROCS(0), pr.ForEachBlock); err != nil {
		return nil, "", err
	}
	counts := pr.StaticCounts()
	if counts == nil {
		counts = pre.StaticCounts()
	}
	return counts, pr.Name(), nil
}

// decodeAndModel is the rest of a file job: decode at GOMAXPROCS workers,
// then build the predictors and run the model pass, one span each.
func decodeAndModel(tr *tracer, job, parent int, path, name string, counts []uint64, k predictor.Kind) (*dpg.Result, error) {
	var t *trace.Trace
	err := tr.do(job, parent, "trace.pdecode", func() error {
		fh, err := os.Open(path)
		if err != nil {
			return err
		}
		defer fh.Close()
		t, _, err = trace.ParallelReadAll(fh, trace.Workers(0))
		return err
	})
	if err != nil {
		return nil, err
	}
	var b *dpg.Builder
	if err := tr.do(job, parent, "dpg.setup", func() error {
		b, err = dpg.NewBuilder(name, counts, kindConfig(k))
		return err
	}); err != nil {
		return nil, err
	}
	var r *dpg.Result
	err = tr.do(job, parent, "dpg.model", func() error {
		pl := dpg.NewPipeline(b)
		for i := range t.Events {
			if err := pl.Observe(&t.Events[i]); err != nil {
				return err
			}
		}
		r, err = b.Finish()
		return err
	})
	return r, err
}

// --- dir-short -------------------------------------------------------------

// dirShort is `dpgrun -merge` over a directory of short traces: every
// workload at a tenth of its rounds, two seeds each, codecs mixed.
type dirShort struct {
	inputs // parallel to files
	seed   uint64
	dir    string
	files  []string // sorted, as AnalyzeDir merges them
	total  uint64   // events in the directory
	refs   [][]byte // [kind] merged reference
}

func setupDirShort(dir string, seed uint64) (workload, error) {
	d := &dirShort{seed: seed, dir: filepath.Join(dir, "traces")}
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return nil, err
	}
	type entry struct {
		w    *workloads.Workload
		n    int // position in workload order: picks the seed and codec
		path string
	}
	var entries []entry
	for _, w := range workloads.All() {
		for s := 0; s < 2; s++ {
			entries = append(entries, entry{w, len(entries), filepath.Join(d.dir, fmt.Sprintf("%s-s%d.dpg", w.Name, s))})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].path < entries[j].path })
	codecs := trace.Codecs()
	for _, e := range entries {
		t, err := genTrace(e.w.Name, max(1, e.w.Rounds/10), subSeed(seed, e.n))
		if err != nil {
			return nil, err
		}
		if err := trace.WriteFile(e.path, t, trace.Compression(codecs[e.n%len(codecs)])); err != nil {
			return nil, err
		}
		d.files = append(d.files, e.path)
		d.add(t)
		d.total += uint64(t.Len())
	}
	return d, nil
}

func (d *dirShort) clients() int { return 1 }
func (d *dirShort) width() int   { return dirParallel }
func (d *dirShort) round() int   { return len(kinds) }

// dirParallel is AnalyzeDir's fan-out width in dir-short.
const dirParallel = 2

func (d *dirShort) references() error {
	per := make([][]*dpg.Result, len(kinds))
	for k := range per {
		per[k] = make([]*dpg.Result, len(d.files))
	}
	err := parallel(len(kinds)*len(d.files), func(i int) error {
		k, f := i/len(d.files), i%len(d.files)
		r, err := dpg.RunWith(d.traces[f], kindConfig(kinds[k]))
		per[k][f] = r
		return err
	})
	if err != nil {
		return err
	}
	d.refs = make([][]byte, len(kinds))
	for k := range kinds {
		m, err := dpg.MergeResults(per[k]...)
		if err != nil {
			return err
		}
		if m.Name == "" {
			m.Name = filepath.Base(d.dir)
		}
		if d.refs[k], err = dpg.EncodeResult(m, server.ModelVersion); err != nil {
			return err
		}
	}
	return nil
}

func (d *dirShort) kind(i int) int { return (i + int(d.seed%uint64(len(kinds)))) % len(kinds) }

func (d *dirShort) run(i int) outcome {
	k := d.kind(i)
	r, _, err := core.AnalyzeDir(d.dir, dirParallel, core.WithKind(kinds[k]), core.WithWorkers(0),
		core.WithContext(context.Background()))
	if err != nil {
		return outcome{err: err}
	}
	return outcome{events: d.total, mismatch: !sameAs(r, d.refs[k])}
}

func (d *dirShort) replay(tr *tracer, job, parent, i int) outcome {
	k := d.kind(i)
	r, _, err := dirJob(tr, job, parent, d.dir, d.files, kinds[k])
	if err != nil {
		return outcome{err: err}
	}
	return outcome{events: d.total, mismatch: !sameAs(r, d.refs[k])}
}

func (d *dirShort) serverLoad() (*serverLoad, error) { return nil, nil }
func (d *dirShort) close()                           {}

// dirJob is AnalyzeDir's non-speculative path split into layers: files fan
// out over dirParallel workers, each file is a footer probe, a parallel
// decode, predictor setup and the model pass (under one core.file span),
// and the results merge in sorted path order. It returns the merged Result
// and the summed core.file time.
func dirJob(tr *tracer, job, parent int, dir string, files []string, k predictor.Kind) (*dpg.Result, time.Duration, error) {
	results := make([]*dpg.Result, len(files))
	var busy atomic.Int64
	err := parallelN(dirParallel, len(files), func(i int) error {
		start := time.Now()
		id := tr.begin(job, parent, "core.file")
		defer func() {
			tr.end(id)
			busy.Add(int64(time.Since(start)))
		}()
		var fi trace.FooterInfo
		if err := tr.do(job, id, "trace.probe", func() error {
			var err error
			fi, err = trace.ScanFooterFile(files[i])
			return err
		}); err != nil {
			return err
		}
		r, err := decodeAndModel(tr, job, id, files[i], fi.Name, fi.Counts, k)
		results[i] = r
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	var merged *dpg.Result
	err = tr.do(job, parent, "dpg.merge", func() error {
		merged, err = dpg.MergeResults(results...)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	if merged.Name == "" {
		merged.Name = filepath.Base(dir)
	}
	return merged, time.Duration(busy.Load()), nil
}

// parallelN runs fn(0..n-1) on up to width goroutines and joins the errors.
func parallelN(width, n int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(width, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
