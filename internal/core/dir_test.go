package core

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/dpg"
	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// writeTraceDir materializes several workloads as .dpg files in a fresh
// temp directory and returns the directory and the sorted file paths.
func writeTraceDir(t *testing.T, names ...string) (string, []string) {
	t.Helper()
	dir := t.TempDir()
	var paths []string
	for _, name := range names {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		tr, err := w.TraceRounds(max(2, w.Rounds/60), 1)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".dpg")
		if err := trace.WriteFile(path, tr); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	sort.Strings(paths) // AnalyzeDir reports files in sorted path order
	return dir, paths
}

// TestAnalyzeDirMergeParity is the directory-merge differential: the
// aggregate AnalyzeDir computes — under any mix of fan-out parallelism
// and decode workers — must be byte-identical to
// merging sequential per-file analyses by hand.
func TestAnalyzeDirMergeParity(t *testing.T) {
	dir, paths := writeTraceDir(t, "fig1", "gcc", "com")
	base := []Option{WithKind(predictor.KindStride)}

	var partials []*dpg.Result
	for _, p := range paths {
		r, err := AnalyzeFile(p, base...)
		if err != nil {
			t.Fatal(err)
		}
		partials = append(partials, r)
	}
	want, err := dpg.MergeResults(partials...)
	if err != nil {
		t.Fatal(err)
	}
	want.Name = filepath.Base(dir) // distinct workload names merge to the dir name

	configs := map[string][]Option{
		"sequential":        base,
		"parallel-decode":   append([]Option{WithWorkers(2)}, base...),
		"parallel-decode-4": append([]Option{WithWorkers(4)}, base...),
		"parallel-auto":     append([]Option{WithWorkers(0)}, base...),
	}
	for name, opts := range configs {
		for _, parallel := range []int{1, 3} {
			got, files, err := AnalyzeDir(dir, parallel, opts...)
			if err != nil {
				t.Fatalf("%s parallel=%d: %v", name, parallel, err)
			}
			if len(files) != len(paths) {
				t.Fatalf("%s: %d file results, want %d", name, len(files), len(paths))
			}
			for i, fr := range files {
				if fr.Path != paths[i] {
					t.Fatalf("%s: file order %v", name, files)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s parallel=%d: merged Result differs from hand-merged sequential analyses", name, parallel)
			}
		}
	}
}

// TestAnalyzeDirSingleFile checks a one-file directory: the aggregate is
// exactly that file's Result, keeping its workload name.
func TestAnalyzeDirSingleFile(t *testing.T) {
	dir, paths := writeTraceDir(t, "fig1")
	want, err := AnalyzeFile(paths[0], WithKind(predictor.KindLast))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := AnalyzeDir(dir, 1, WithKind(predictor.KindLast))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("single-file aggregate differs from AnalyzeFile")
	}
	if got.Name != want.Name {
		t.Fatalf("single-file aggregate renamed %q to %q", want.Name, got.Name)
	}
}

// TestAnalyzeDirErrors pins the coordinator's error contract: missing
// directory, no trace files, and a corrupt member all fail loudly — a
// partial aggregate is never returned.
func TestAnalyzeDirErrors(t *testing.T) {
	if _, _, err := AnalyzeDir(filepath.Join(t.TempDir(), "absent"), 1); err == nil {
		t.Fatal("missing directory: no error")
	}
	if _, _, err := AnalyzeDir(t.TempDir(), 1); !errors.Is(err, ErrConfig) {
		t.Fatalf("empty directory: err = %v, want ErrConfig", err)
	}

	dir, _ := writeTraceDir(t, "fig1", "com")
	bad := filepath.Join(dir, "broken.dpg")
	if err := os.WriteFile(bad, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, files, err := AnalyzeDir(dir, 2)
	if err == nil || res != nil {
		t.Fatalf("corrupt member: res=%v err=%v, want nil result and error", res, err)
	}
	if !strings.Contains(err.Error(), "broken.dpg") {
		t.Fatalf("error does not name the corrupt file: %v", err)
	}
	if len(files) != 3 {
		t.Fatalf("%d file results, want 3 (including the failure)", len(files))
	}
	healthy := 0
	for _, fr := range files {
		if fr.Err == nil && fr.Res != nil {
			healthy++
		}
	}
	if healthy != 2 {
		t.Fatalf("%d healthy per-file results, want 2", healthy)
	}
}
