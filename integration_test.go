package repro

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

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

	// runSplit runs a tool with stdout and stderr captured apart, for
	// checks on what goes to which stream.
	runSplit := func(name string, args ...string) (stdout, stderr string) {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, name), args...)
		cmd.Dir = work
		var errBuf bytes.Buffer
		cmd.Stderr = &errBuf
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, errBuf.String())
		}
		return string(out), errBuf.String()
	}

	// Influence sets overflowing the tracking cap make the path statistics
	// inexact: dpgrun flags it on stderr only, one line per predictor.
	stdout, stderr := runSplit("dpgrun", "-workload", "m88", "-rounds", "2", "-predictor", "context")
	if !strings.Contains(stderr, "dpgrun: context: path statistics inexact: ") ||
		!strings.Contains(stderr, "propagating elements") || strings.Count(stderr, "\n") != 1 {
		t.Errorf("dpgrun inexact-path flag missing or repeated on stderr: %q", stderr)
	}
	if strings.Contains(stdout, "inexact") {
		t.Errorf("dpgrun inexact-path flag leaked into stdout")
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
	out = run("dpgrun", "-merge", "-trace", work, "-predictor", "stride")
	for _, want := range []string{"merged 2 trace file(s)", "predictor: stride", "Table 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("dpgrun -merge output missing %q:\n%s", want, out)
		}
	}
	out = run("dpgrun", "-trace", work, "-predictor", "stride")
	if !strings.Contains(out, "2 file(s), 2 predictor run(s), 0 failure(s)") {
		t.Errorf("dpgrun directory mode did not analyse the same 2 files as -merge:\n%s", out)
	}

	// A directory holding an intact trace and a truncated copy: under
	// -strict=false both directory modes report the damaged file's
	// recovery once on stderr, under its path and with one "dpgrun:"
	// prefix, while the intact file goes unmentioned.
	damagedDir := filepath.Join(work, "damaged")
	if err := os.Mkdir(damagedDir, 0o755); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	cutPath := filepath.Join(damagedDir, "cut.dpg")
	if err := os.WriteFile(filepath.Join(damagedDir, "full.dpg"), full, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cutPath, full[:len(full)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range [][]string{{"-merge"}, nil} {
		args := append(mode, "-trace", damagedDir, "-strict=false", "-predictor", "stride")
		_, stderr := runSplit("dpgrun", args...)
		want := "dpgrun: " + cutPath + ": corruption summary"
		if strings.Count(stderr, want) != 1 || !strings.Contains(stderr, "stream truncated") {
			t.Errorf("dpgrun %v: want one %q line reporting the truncation, stderr:\n%s", args, want, stderr)
		}
		if strings.Contains(stderr, "full.dpg") || strings.Contains(stderr, "dpgrun: dpgrun:") {
			t.Errorf("dpgrun %v: stray or doubled-prefix stderr:\n%s", args, stderr)
		}
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
