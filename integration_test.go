package repro

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dpg"
	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// buildTools compiles the command binaries once into a shared temp dir.
func buildTools(t *testing.T, names ...string) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range names {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Env = os.Environ()
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, msg)
		}
	}
	return dir
}

// TestCLIPipeline exercises the deliverable binaries end to end: generate a
// trace with tracegen, analyse it with dpgrun, regenerate a figure with
// figures, and compile-and-run a mini-C program with mcc.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline in -short mode")
	}
	bin := buildTools(t, "tracegen", "dpgrun", "figures", "mcc", "objdump")
	work := t.TempDir()
	run := func(name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, name), args...)
		cmd.Dir = work
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	// tracegen -> trace file.
	tracePath := filepath.Join(work, "fig1.dpg")
	out := run("tracegen", "-workload", "fig1", "-rounds", "20", "-o", tracePath)
	if !strings.Contains(out, "dynamic instructions") {
		t.Errorf("tracegen output: %q", out)
	}

	// dpgrun consumes the trace.
	out = run("dpgrun", "-trace", tracePath, "-predictor", "stride")
	for _, want := range []string{"Table 1", "Figure 5", "predictor: stride"} {
		if !strings.Contains(out, want) {
			t.Errorf("dpgrun output missing %q", want)
		}
	}

	// dpgrun -speculate produces byte-identical stdout (the stats line
	// goes to stderr, which CombinedOutput folds in — so compare stdout
	// only via a fresh invocation capturing it alone).
	seqCmd := exec.Command(filepath.Join(bin, "dpgrun"), "-trace", tracePath, "-predictor", "stride")
	seqOut, err := seqCmd.Output()
	if err != nil {
		t.Fatalf("dpgrun sequential: %v", err)
	}
	specCmd := exec.Command(filepath.Join(bin, "dpgrun"), "-trace", tracePath, "-predictor", "stride", "-speculate", "2")
	var specErr bytes.Buffer
	specCmd.Stderr = &specErr
	specOut, err := specCmd.Output()
	if err != nil {
		t.Fatalf("dpgrun -speculate: %v\n%s", err, specErr.String())
	}
	if !bytes.Equal(seqOut, specOut) {
		t.Errorf("dpgrun -speculate stdout differs from sequential run")
	}
	if !strings.Contains(specErr.String(), "speculation:") {
		t.Errorf("dpgrun -speculate stderr missing stats line: %q", specErr.String())
	}

	// tracegen -compress: the compressed file is smaller, reports its codec,
	// and dpgrun consumes it with no special flags (readers auto-detect).
	plainInfo, err := os.Stat(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	lzPath := filepath.Join(work, "fig1-lz.dpg")
	out = run("tracegen", "-workload", "fig1", "-rounds", "20", "-compress", "lz", "-o", lzPath)
	if !strings.Contains(out, "codec lz") {
		t.Errorf("tracegen -compress output missing codec: %q", out)
	}
	lzInfo, err := os.Stat(lzPath)
	if err != nil {
		t.Fatal(err)
	}
	if lzInfo.Size() >= plainInfo.Size() {
		t.Errorf("compressed trace not smaller: %d vs %d bytes", lzInfo.Size(), plainInfo.Size())
	}
	out = run("dpgrun", "-trace", lzPath, "-predictor", "stride")
	if !strings.Contains(out, "predictor: stride") {
		t.Errorf("dpgrun on compressed trace: %q", out)
	}

	// dpgrun -merge aggregates the directory (one plain + one compressed
	// trace at this point) into a single exact report. Neither a
	// subdirectory named like a trace nor a file without the .dpg suffix
	// is a trace: -merge and the plain directory mode both skip them and
	// analyse the same two files.
	if err := os.Mkdir(filepath.Join(work, "sub.dpg"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(work, "notes.txt"), []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	out = run("dpgrun", "-merge", "-trace", work, "-predictor", "stride", "-speculate", "2")
	for _, want := range []string{"merged 2 trace file(s)", "predictor: stride", "Table 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("dpgrun -merge output missing %q:\n%s", want, out)
		}
	}
	out = run("dpgrun", "-trace", work, "-predictor", "stride")
	if !strings.Contains(out, "2 file(s), 2 predictor run(s), 0 failure(s)") {
		t.Errorf("dpgrun directory mode did not analyse the same 2 files as -merge:\n%s", out)
	}

	// dpgrun -graph prints the Fig. 3 fragment.
	out = run("dpgrun", "-workload", "fig1", "-rounds", "2", "-predictor", "stride", "-graph", "8")
	if !strings.Contains(out, "DPG fragment") || !strings.Contains(out, "<n,n>") {
		t.Errorf("dpgrun -graph output missing fragment:\n%s", out)
	}

	// figures regenerates one experiment.
	out = run("figures", "-scale", "0.05", "-experiment", "table1")
	if !strings.Contains(out, "arcs/node") {
		t.Errorf("figures output missing table: %q", out)
	}

	// mcc compiles and runs a program.
	mcPath := filepath.Join(work, "p.mc")
	if err := os.WriteFile(mcPath, []byte("func main() { out(6 * 7); }"), 0o644); err != nil {
		t.Fatal(err)
	}
	out = run("mcc", mcPath)
	if strings.TrimSpace(out) != "42" {
		t.Errorf("mcc run output = %q, want 42", out)
	}
	out = run("mcc", "-s", mcPath)
	if !strings.Contains(out, "fn_main:") {
		t.Errorf("mcc -s output missing function label: %q", out)
	}

	// objdump lists a workload.
	out = run("objdump", "-workload", "m88")
	for _, want := range []string{"simprog", "static instruction mix", "memory"} {
		if !strings.Contains(out, want) {
			t.Errorf("objdump output missing %q", want)
		}
	}
}

// TestCompressionDifferentialWorkloads is the acceptance differential for
// per-block compression: across real workloads × every codec × sequential
// and parallel readers at several worker counts, the decoded event stream
// of a compressed trace must be identical to the original, and the
// transforming codecs must actually shrink real traces.
func TestCompressionDifferentialWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("workload sweep in -short mode")
	}
	for _, name := range []string{"fig1", "com", "gcc"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		orig, err := w.TraceRounds(w.Rounds/20+1, 1)
		if err != nil {
			t.Fatal(err)
		}
		var plain bytes.Buffer
		if err := trace.WriteAll(&plain, orig); err != nil {
			t.Fatal(err)
		}
		for _, codec := range trace.Codecs() {
			var buf bytes.Buffer
			if err := trace.WriteAll(&buf, orig, trace.Compression(codec)); err != nil {
				t.Fatalf("%s/%s: %v", name, codec, err)
			}
			if codec != trace.CodecNone && buf.Len() >= plain.Len() {
				t.Errorf("%s/%s: compressed stream not smaller: %d vs %d", name, codec, buf.Len(), plain.Len())
			}
			check := func(label string, got *trace.Trace, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", name, codec, label, err)
				}
				if len(got.Events) != len(orig.Events) {
					t.Fatalf("%s/%s/%s: %d events, want %d", name, codec, label, len(got.Events), len(orig.Events))
				}
				for i := range got.Events {
					if got.Events[i] != orig.Events[i] {
						t.Fatalf("%s/%s/%s: event %d differs", name, codec, label, i)
					}
				}
				for i, c := range got.StaticCount {
					if c != orig.StaticCount[i] {
						t.Fatalf("%s/%s/%s: static count %d differs", name, codec, label, i)
					}
				}
			}
			got, err := trace.ReadAll(bytes.NewReader(buf.Bytes()))
			check("sequential", got, err)
			for _, workers := range []int{1, 2, 8} {
				pgot, _, perr := trace.ParallelReadAll(bytes.NewReader(buf.Bytes()), trace.Workers(workers))
				check(fmt.Sprintf("parallel-%d", workers), pgot, perr)
			}
		}
	}
}

// TestSpeculationIntegrationSweep is the acceptance differential for the
// epoch-speculative pass at the file level: across real workloads × codecs
// × decode worker counts × speculation chain counts, the full AnalyzeFile result under WithSpeculation must equal the sequential
// analysis of the same file exactly — compression, parallel decode and
// speculative execution composing freely.
func TestSpeculationIntegrationSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("speculation sweep in -short mode")
	}
	dir := t.TempDir()
	for _, name := range []string{"fig1", "com", "gcc"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		orig, err := w.TraceRounds(w.Rounds/20+1, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, codec := range []trace.Codec{trace.CodecNone, trace.CodecLZ} {
			path := filepath.Join(dir, fmt.Sprintf("%s-%s.dpg", name, codec))
			if err := trace.WriteFile(path, orig, trace.Compression(codec), trace.BlockBytes(8<<10)); err != nil {
				t.Fatalf("%s/%s: %v", name, codec, err)
			}
			want, err := core.AnalyzeFile(path, core.WithKind(predictor.KindContext))
			if err != nil {
				t.Fatalf("%s/%s baseline: %v", name, codec, err)
			}
			for _, decode := range []int{0, 2} {
				for _, chains := range []int{0, 1, 2, 4} {
					label := fmt.Sprintf("%s/%s/decode%d/chains%d", name, codec, decode, chains)
					opts := []core.Option{core.WithKind(predictor.KindContext), core.WithSpeculation(chains)}
					if decode > 0 {
						opts = append(opts, core.WithWorkers(decode))
					}
					var st dpg.SpecStats
					got, err := core.AnalyzeFile(path, append(opts, core.WithSpecStats(&st))...)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: speculative result differs from sequential", label)
					}
					if st.Fallback || st.Diverged != 0 || st.Epochs == 0 {
						t.Fatalf("%s: implausible stats %+v", label, st)
					}
				}
			}
		}
	}

	// Capstone: the directory-merge coordinator over the full mixed-codec
	// spread (three workloads × two codecs) equals hand-merging the
	// sequential per-file analyses — speculation and fan-out included.
	paths, err := filepath.Glob(filepath.Join(dir, "*.dpg"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("globbing sweep traces: %v (%d files)", err, len(paths))
	}
	sort.Strings(paths)
	var partials []*dpg.Result
	for _, p := range paths {
		r, err := core.AnalyzeFile(p, core.WithKind(predictor.KindContext))
		if err != nil {
			t.Fatal(err)
		}
		partials = append(partials, r)
	}
	want, err := dpg.MergeResults(partials...)
	if err != nil {
		t.Fatal(err)
	}
	want.Name = filepath.Base(dir)
	got, files, err := core.AnalyzeDir(dir, 3,
		core.WithKind(predictor.KindContext), core.WithSpeculation(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(paths) {
		t.Fatalf("merge capstone: %d file results, want %d", len(files), len(paths))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("merge capstone: AnalyzeDir aggregate differs from hand-merged sequential analyses")
	}
}
