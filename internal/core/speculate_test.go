package core

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dpg"
	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestRunTraceSpeculativeParity checks the in-memory public surface:
// RunTrace with WithSpeculation returns a Result identical to the plain
// sequential RunTrace across predictors and worker counts (0 = the
// default), over one unit per predictor category.
func TestRunTraceSpeculativeParity(t *testing.T) {
	w, _ := workloads.ByName("gcc")
	tr, err := w.TraceRounds(max(2, w.Rounds/50), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []predictor.Kind{predictor.KindLast, predictor.KindStride, predictor.KindContext} {
		want, err := RunTrace(tr, WithKind(kind))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 4} {
			var st dpg.SpecStats
			got, err := RunTrace(tr, WithKind(kind), WithSpeculation(workers), WithSpecStats(&st))
			if err != nil {
				t.Fatalf("%s w=%d: %v", kind, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s w=%d: speculative RunTrace differs from sequential", kind, workers)
			}
			if st.Fallback || st.Diverged != 0 || st.Epochs == 0 || st.Units != 4 {
				t.Fatalf("%s w=%d: implausible stats %+v", kind, workers, st)
			}
		}
	}
}

// TestAnalyzeFileSpeculativeParity checks the streaming public surface:
// AnalyzeFile with WithSpeculation (composed with the parallel decoder and
// the default worker count) matches the sequential AnalyzeFile exactly.
func TestAnalyzeFileSpeculativeParity(t *testing.T) {
	w, _ := workloads.ByName("fig1")
	tr, err := w.TraceRounds(30, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fig1.dpg")
	if err := trace.WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	want, err := AnalyzeFile(path, WithKind(predictor.KindStride))
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]Option{
		{WithKind(predictor.KindStride), WithSpeculation(4)},
		{WithKind(predictor.KindStride), WithSpeculation(0)},
		{WithKind(predictor.KindStride), WithSpeculation(4), WithWorkers(4)},
	} {
		var st dpg.SpecStats
		got, err := AnalyzeFile(path, append(opts, WithSpecStats(&st))...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("speculative AnalyzeFile differs from sequential")
		}
		if st.Fallback || st.Diverged != 0 {
			t.Fatalf("implausible stats %+v", st)
		}
	}
}

// TestAnalyzeFileSpeculativeErrorParity checks the streaming error
// contract under speculation: a mid-stream read failure surfaces the same
// "core: streaming" wrap and trace taxonomy as the sequential path, and
// the abandoned run leaks nothing (the leak test in internal/dpg covers
// the goroutines; here we check the error surface). Model-rejected events
// are unreachable through AnalyzeFile — the hardened decoder validates
// the same fields — so that half of the contract is proven at the dpg
// layer (TestSpecRunStreamingErrors).
func TestAnalyzeFileSpeculativeErrorParity(t *testing.T) {
	w, _ := workloads.ByName("fig1")
	tr, err := w.TraceRounds(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Read error mid-stream: truncated file in strict mode.
	good := filepath.Join(t.TempDir(), "good.dpg")
	if err := trace.WriteFile(good, tr); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "cut.dpg")
	if err := os.WriteFile(cut, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	_, seqErr := AnalyzeFile(cut, WithKind(predictor.KindLast))
	_, specErr := AnalyzeFile(cut, WithKind(predictor.KindLast), WithSpeculation(2))
	if seqErr == nil || specErr == nil {
		t.Fatalf("truncated file accepted: seq=%v spec=%v", seqErr, specErr)
	}
	if seqErr.Error() != specErr.Error() {
		t.Fatalf("read-error contract mismatch:\n  seq:  %v\n  spec: %v", seqErr, specErr)
	}
	// The truncation surfaces in the pre-pass scan, before the model pass
	// choice even matters — the point is both paths report it identically,
	// with the core prefix and the trace taxonomy intact.
	if !strings.Contains(specErr.Error(), "core: ") {
		t.Fatalf("speculative read error missing core prefix: %v", specErr)
	}
}

// TestAnalyzeFileSpeculativeFallback checks that a non-checkpointable
// predictor still analyzes correctly through the speculative entry points.
func TestAnalyzeFileSpeculativeFallback(t *testing.T) {
	w, _ := workloads.ByName("fig1")
	tr, err := w.TraceRounds(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fig1.dpg")
	if err := trace.WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	delayed := func() predictor.Predictor {
		return predictor.NewDelayed(predictor.NewLastValue(predictor.DefaultTableBits), 2)
	}
	want, err := AnalyzeFile(path, WithPredictor("delayed", delayed))
	if err != nil {
		t.Fatal(err)
	}
	var st dpg.SpecStats
	got, err := AnalyzeFile(path, WithPredictor("delayed", delayed), WithSpeculation(4), WithSpecStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("fallback Result differs from sequential")
	}
	if !st.Fallback {
		t.Fatalf("Fallback stat not set: %+v", st)
	}
}
