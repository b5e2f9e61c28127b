package core

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dpg"
	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func smallSuite() *Suite {
	return NewSuite(SuiteConfig{Scale: 0.05})
}

// mustRunTrace runs RunTrace and fails the test on error.
func mustRunTrace(t *testing.T, tr *trace.Trace, opts ...Option) *dpg.Result {
	t.Helper()
	res, err := RunTrace(tr, opts...)
	if err != nil {
		t.Fatalf("RunTrace: %v", err)
	}
	return res
}

func TestRunTraceDefaults(t *testing.T) {
	w, _ := workloads.ByName("fig1")
	tr, err := w.TraceRounds(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRunTrace(t, tr)
	if res.Predictor != "context" {
		t.Errorf("default predictor = %q, want context", res.Predictor)
	}
	if res.Nodes != uint64(tr.Len()) {
		t.Error("node count mismatch")
	}
}

func TestRunTraceOptions(t *testing.T) {
	w, _ := workloads.ByName("fig1")
	tr, err := w.TraceRounds(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRunTrace(t, tr, WithKind(predictor.KindStride))
	if res.Predictor != "stride" {
		t.Errorf("WithKind predictor = %q", res.Predictor)
	}
	res = mustRunTrace(t, tr, WithPredictor("mine", predictor.KindLast.Factory()))
	if res.Predictor != "mine" {
		t.Errorf("WithPredictor name = %q", res.Predictor)
	}
}

func TestRunTraceRejectsBadInput(t *testing.T) {
	if _, err := RunTrace(nil); !errors.Is(err, ErrConfig) {
		t.Errorf("nil trace: err = %v, want ErrConfig", err)
	}
	w, _ := workloads.ByName("fig1")
	tr, err := w.TraceRounds(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// An option whose factory-backed constructor panics becomes ErrConfig.
	if _, err := RunTrace(tr, WithPredictor("bad", func() predictor.Predictor {
		panic("constructor rejects parameters")
	})); !errors.Is(err, ErrConfig) {
		t.Errorf("panicking factory: err = %v, want ErrConfig", err)
	}
	// A hostile event is ErrMalformedEvent, not a panic.
	bad := *tr
	bad.Events = append([]trace.Event(nil), tr.Events...)
	bad.Events[1].SrcReg[0] = 200
	bad.Events[1].NSrc = 1
	if _, err := RunTrace(&bad); !errors.Is(err, ErrMalformedEvent) {
		t.Errorf("hostile event: err = %v, want ErrMalformedEvent", err)
	}
}

func TestSuiteCachesResults(t *testing.T) {
	s := smallSuite()
	r1, err := s.Result("fig1", predictor.KindLast)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Result("fig1", predictor.KindLast)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("results not cached")
	}
	if _, err := s.Result("nope", predictor.KindLast); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestSuiteFreesTraces(t *testing.T) {
	s := smallSuite()
	for _, k := range predictor.AllKinds {
		if _, err := s.Result("fig1", k); err != nil {
			t.Fatal(err)
		}
	}
	if cached(&s.traces, "fig1") {
		t.Error("trace not released after all predictors ran")
	}
}

func TestExperimentIDs(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 19 {
		t.Fatalf("got %d experiments, want 19", len(ids))
	}
	if ids[0] != "table1" || ids[1] != "fig5" || ids[9] != "fig13" ||
		ids[10] != "attribution" || ids[11] != "hotspots" || ids[12] != "unpred" ||
		ids[13] != "correlation" || ids[14] != "reuse" || ids[15] != "addresses" ||
		ids[16] != "confidence" || ids[17] != "ilp" || ids[18] != "speculation" {
		t.Errorf("order wrong: %v", ids)
	}
	for _, id := range ids {
		if Experiments()[id] == "" {
			t.Errorf("no description for %s", id)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := smallSuite().Run("fig99", &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunEachExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite in -short mode")
	}
	s := smallSuite()
	wants := map[string]string{
		"table1":      "arcs/node",
		"fig5":        "a-prop",
		"fig6":        "<wl:n,p>",
		"fig7":        "<1:p,p>",
		"fig8":        "p,n->n",
		"fig9":        "combo",
		"fig10":       "aggregate propagation",
		"fig11":       "Distance",
		"fig12":       "fully predictable",
		"fig13":       "gshare-acc",
		"attribution": "branch/compare/logical/shift",
		"hotspots":    "generate points",
		"unpred":      "<n,n>",
		"correlation": "selectively",
		"reuse":       "reuse buffer",
		"addresses":   "a+d-",
		"confidence":  "coverage",
		"ilp":         "dataflow-limit",
		"speculation": "misspec",
	}
	for _, id := range ExperimentIDs() {
		var buf bytes.Buffer
		if err := s.Run(id, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(buf.String(), wants[id]) {
			t.Errorf("%s output missing %q:\n%s", id, wants[id], buf.String())
		}
	}
}

func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite in -short mode")
	}
	var buf bytes.Buffer
	var progress bytes.Buffer
	s := NewSuite(SuiteConfig{Scale: 0.05, Progress: &progress})
	if err := s.RunAll(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "Figure 5", "Figure 13"} {
		if !strings.Contains(out, want) {
			t.Errorf("RunAll output missing %q", want)
		}
	}
	if !strings.Contains(progress.String(), "running") {
		t.Error("progress writer unused")
	}
}

func TestSuiteDefaults(t *testing.T) {
	s := NewSuite(SuiteConfig{})
	if s.cfg.Scale != 1.0 || s.cfg.Seed != 1 {
		t.Errorf("defaults wrong: %+v", s.cfg)
	}
}

func TestPrecomputeParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel suite in -short mode")
	}
	seq := NewSuite(SuiteConfig{Scale: 0.03})
	par := NewSuite(SuiteConfig{Scale: 0.03, Parallel: 8})
	if err := par.Precompute(); err != nil {
		t.Fatal(err)
	}
	for _, name := range allNames() {
		for _, k := range predictor.Kinds {
			a, err := seq.Result(name, k)
			if err != nil {
				t.Fatal(err)
			}
			b, err := par.Result(name, k)
			if err != nil {
				t.Fatal(err)
			}
			if a.NodeCount != b.NodeCount || a.ArcCount != b.ArcCount || a.Path != b.Path {
				t.Errorf("%s/%s: parallel result differs from sequential", name, k)
			}
		}
	}
}

// TestPrecomputeOverlapsTraceFiles checks Precompute honours Parallel
// under TraceFile: with two workers, a second trace file must start
// decoding while the first decode is still running. The hook holds the
// first decode until that happens, failing after a timeout; a schedule
// that queues one workload's predictors back to back puts both workers
// behind the same decode and never gets there.
func TestPrecomputeOverlapsTraceFiles(t *testing.T) {
	const scale = 0.02
	dir := t.TempDir()
	for _, name := range allNames() {
		writeScaledTrace(t, dir, name, scale)
	}
	var (
		mu      sync.Mutex
		first   string
		overlap = make(chan struct{})
		once    sync.Once
	)
	decodeHook = func(path string) {
		mu.Lock()
		if first == "" {
			first = path
			mu.Unlock()
			select {
			case <-overlap:
			case <-time.After(10 * time.Second):
				t.Errorf("no other trace file started decoding while %s decoded", path)
			}
			return
		}
		other := path != first
		mu.Unlock()
		if other {
			once.Do(func() { close(overlap) })
		}
	}
	t.Cleanup(func() { decodeHook = nil })

	s := NewSuite(SuiteConfig{Scale: scale, Parallel: 2, PaperCorpus: true, TraceFile: TraceDir(dir)})
	if err := s.Precompute(); err != nil {
		t.Fatal(err)
	}
	for _, name := range allNames() {
		for _, k := range predictor.Kinds {
			if _, err := s.Result(name, k); err != nil {
				t.Fatalf("%s/%s: %v", name, k, err)
			}
		}
	}
}

func TestConcurrentResultAccess(t *testing.T) {
	s := smallSuite()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := predictor.Kinds[i%len(predictor.Kinds)]
			if _, err := s.Result("fig1", k); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
