package trace

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/isa"
)

// decodeRun captures everything observable about one decode of a byte
// stream — the material the differential tests hold equal between the
// sequential and parallel readers.
type decodeRun struct {
	ctorErr   string // constructor failure ("" = header parsed)
	name      string
	numStatic int
	version   int
	events    []Event
	stats     Stats
	finalErr  string // terminal Next error ("" = clean io.EOF)
	truncated bool   // errors.Is(finalErr, ErrTruncated)
	malformed bool
	checksum  bool
	counts    []uint64
}

// eventReader is the surface shared by Reader and ParallelReader that the
// differential harness drives.
type eventReader interface {
	Next(*Event) error
	Name() string
	NumStatic() int
	Version() int
	Stats() Stats
	StaticCounts() []uint64
	Close() error
}

// capture drains r to exhaustion and records the full observable outcome.
func capture(t *testing.T, r eventReader, ctorErr error) decodeRun {
	t.Helper()
	if ctorErr != nil {
		return decodeRun{ctorErr: ctorErr.Error()}
	}
	defer r.Close()
	run := decodeRun{name: r.Name(), numStatic: r.NumStatic(), version: r.Version()}
	var e Event
	for i := 0; ; i++ {
		if i > 1_000_000 {
			t.Fatal("reader failed to terminate")
		}
		err := r.Next(&e)
		if err == io.EOF {
			break
		}
		if err != nil {
			run.finalErr = err.Error()
			run.truncated = errors.Is(err, ErrTruncated)
			run.malformed = errors.Is(err, ErrMalformed)
			run.checksum = errors.Is(err, ErrChecksum)
			break
		}
		run.events = append(run.events, e)
	}
	run.stats = r.Stats()
	run.counts = r.StaticCounts()
	return run
}

func captureSequential(t *testing.T, data []byte, opts ...ReaderOption) decodeRun {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data), opts...)
	if err != nil {
		return capture(t, nil, err)
	}
	return capture(t, r, nil)
}

func captureParallel(t *testing.T, data []byte, opts ...ReaderOption) decodeRun {
	t.Helper()
	r, err := NewParallelReader(bytes.NewReader(data), opts...)
	if err != nil {
		return capture(t, nil, err)
	}
	return capture(t, r, nil)
}

// diffRuns asserts two decode runs are observably identical: same header,
// same event sequence, same Stats, same terminal error (string and typed
// kinds), same static counts.
func diffRuns(t *testing.T, label string, seq, par decodeRun) {
	t.Helper()
	if seq.ctorErr != par.ctorErr {
		t.Fatalf("%s: constructor error mismatch:\n  seq: %q\n  par: %q", label, seq.ctorErr, par.ctorErr)
	}
	if seq.ctorErr != "" {
		return
	}
	if seq.name != par.name || seq.numStatic != par.numStatic || seq.version != par.version {
		t.Fatalf("%s: header mismatch: seq (%q,%d,v%d) vs par (%q,%d,v%d)", label,
			seq.name, seq.numStatic, seq.version, par.name, par.numStatic, par.version)
	}
	if len(seq.events) != len(par.events) {
		t.Fatalf("%s: event count mismatch: seq %d vs par %d", label, len(seq.events), len(par.events))
	}
	for i := range seq.events {
		if seq.events[i] != par.events[i] {
			t.Fatalf("%s: event %d differs:\n  seq: %+v\n  par: %+v", label, i, seq.events[i], par.events[i])
		}
	}
	if seq.stats != par.stats {
		t.Fatalf("%s: stats mismatch:\n  seq: %+v\n  par: %+v", label, seq.stats, par.stats)
	}
	if seq.finalErr != par.finalErr {
		t.Fatalf("%s: terminal error mismatch:\n  seq: %q\n  par: %q", label, seq.finalErr, par.finalErr)
	}
	if seq.truncated != par.truncated || seq.malformed != par.malformed || seq.checksum != par.checksum {
		t.Fatalf("%s: error kind mismatch: seq (trunc=%v mal=%v crc=%v) vs par (trunc=%v mal=%v crc=%v)",
			label, seq.truncated, seq.malformed, seq.checksum, par.truncated, par.malformed, par.checksum)
	}
	if (seq.counts == nil) != (par.counts == nil) || len(seq.counts) != len(par.counts) {
		t.Fatalf("%s: counts presence mismatch: seq %d (nil=%v) vs par %d (nil=%v)", label,
			len(seq.counts), seq.counts == nil, len(par.counts), par.counts == nil)
	}
	for i := range seq.counts {
		if seq.counts[i] != par.counts[i] {
			t.Fatalf("%s: static count %d differs: seq %d vs par %d", label, i, seq.counts[i], par.counts[i])
		}
	}
}

// diffBoth runs the strict and lenient differential for data under a given
// worker count.
func diffBoth(t *testing.T, label string, data []byte, workers int) {
	t.Helper()
	diffRuns(t, label+"/strict",
		captureSequential(t, data),
		captureParallel(t, data, Workers(workers)))
	diffRuns(t, label+"/lenient",
		captureSequential(t, data, Lenient()),
		captureParallel(t, data, Lenient(), Workers(workers)))
}

// encodeCorpus builds the differential corpus: every framing shape the
// format can produce.
func encodeCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	corpus := map[string][]byte{}

	encode := func(tr *Trace, shape func(*Writer)) []byte {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, tr.Name, tr.NumStatic)
		if err != nil {
			t.Fatal(err)
		}
		if shape != nil {
			shape(w)
		}
		for i := range tr.Events {
			if err := w.Write(&tr.Events[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	_, small := smallV2Stream(t, 64)
	corpus["one-block"] = encode(small, nil) // default 64 KiB threshold: single block
	corpus["many-block"], _ = smallV2Stream(t, 64)
	corpus["tiny-blocks"] = encode(small, func(w *Writer) { w.SetBlockEvents(1) })
	corpus["empty"] = encode(New("empty", 4), nil)
	corpus["lz"] = encode(small, func(w *Writer) { w.SetBlockSize(64); w.SetCompression(CodecLZ) })
	corpus["flate"] = encode(small, func(w *Writer) { w.SetBlockSize(64); w.SetCompression(CodecFlate) })
	// Tiny per-event blocks sit below the compression threshold, so these
	// frames are "BLKC" with codec none — the stored-raw fallback shape.
	corpus["lz-stored"] = encode(small, func(w *Writer) { w.SetBlockEvents(1); w.SetCompression(CodecLZ) })

	var v1 bytes.Buffer
	if err := WriteAllV1(&v1, small); err != nil {
		t.Fatal(err)
	}
	corpus["v1"] = v1.Bytes()
	corpus["no-bytes"] = nil
	corpus["magic-only"] = []byte(headerMagic)
	return corpus
}

// TestParallelDifferentialCorpus holds the parallel reader equal to the
// sequential one over every corpus shape, across worker counts (including
// Workers(1), which decodes inline with no pipeline, and Workers(0) =
// GOMAXPROCS).
func TestParallelDifferentialCorpus(t *testing.T) {
	corpus := encodeCorpus(t)
	for name, data := range corpus {
		for _, workers := range []int{0, 1, 2, 4, 8} {
			diffBoth(t, name, data, workers)
		}
	}
}

// TestParallelDifferentialFlipMatrix replays the full corruption matrix
// (every single-byte flip of a multi-block stream) through the parallel
// path and requires byte-identical observable behavior to the sequential
// reader in both modes.
func TestParallelDifferentialFlipMatrix(t *testing.T) {
	stream, _ := smallV2Stream(t, 64)
	for off := range stream {
		data := append([]byte(nil), stream...)
		data[off] ^= 0xFF
		diffBoth(t, "flip", data, 4)
	}
}

// TestParallelDifferentialTruncationMatrix replays every truncation point
// through the parallel path, same equality contract.
func TestParallelDifferentialTruncationMatrix(t *testing.T) {
	stream, _ := smallV2Stream(t, 64)
	for n := 0; n <= len(stream); n++ {
		diffBoth(t, "cut", stream[:n], 4)
	}
}

// TestParallelDifferentialTinyBlockDamage runs the flip matrix over a
// per-event-block stream, the shape with the densest framing (worst case
// for resync equivalence).
func TestParallelDifferentialTinyBlockDamage(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix test")
	}
	corpus := encodeCorpus(t)
	stream := corpus["tiny-blocks"]
	for off := range stream {
		data := append([]byte(nil), stream...)
		data[off] ^= 0x55
		diffBoth(t, "tinyflip", data, 4)
	}
}

// TestParallelInjectedIOError asserts a mid-stream I/O failure surfaces
// through the parallel pipeline untyped and unconverted, like the
// sequential reader's.
func TestParallelInjectedIOError(t *testing.T) {
	stream, _ := smallV2Stream(t, 64)
	boom := errors.New("io boom")
	for _, opts := range [][]ReaderOption{
		{Workers(4)},
		{Workers(4), Lenient()},
	} {
		r, err := NewParallelReader(faultinject.ErrAfter(bytes.NewReader(stream), int64(len(stream)/2), boom), opts...)
		if err != nil {
			t.Fatal(err)
		}
		var e Event
		for err == nil {
			err = r.Next(&e)
		}
		if !errors.Is(err, boom) {
			t.Errorf("injected I/O error lost through parallel pipeline: %v", err)
		}
		r.Close()
	}
}

// waitNoExtraGoroutines polls until the goroutine count returns to the
// baseline (pipeline goroutines exit asynchronously after quit/EOF).
func waitNoExtraGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d live, baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}

// TestParallelNoGoroutineLeaks checks the pipeline drains completely in
// the three lifecycle shapes: normal EOF, a mid-stream decode error, and
// early consumer abandonment via Close.
func TestParallelNoGoroutineLeaks(t *testing.T) {
	clean, _ := smallV2Stream(t, 64)

	// A CRC flip inside the second block payload fails strict mid-stream.
	corrupt := append([]byte(nil), clean...)
	first := bytes.Index(corrupt, []byte(blockMarker))
	second := bytes.Index(corrupt[first+4:], []byte(blockMarker))
	if second < 0 {
		t.Fatal("need a multi-block stream")
	}
	corrupt[first+4+second+12] ^= 0xFF

	scenarios := map[string]func(t *testing.T){
		"normal-eof": func(t *testing.T) {
			r, err := NewParallelReader(bytes.NewReader(clean), Workers(4))
			if err != nil {
				t.Fatal(err)
			}
			var e Event
			for err == nil {
				err = r.Next(&e)
			}
			if err != io.EOF {
				t.Fatalf("want io.EOF, got %v", err)
			}
			r.Close()
		},
		"crc-error": func(t *testing.T) {
			r, err := NewParallelReader(bytes.NewReader(corrupt), Workers(4))
			if err != nil {
				t.Fatal(err)
			}
			var e Event
			for err == nil {
				err = r.Next(&e)
			}
			if err == io.EOF || !typedErr(err) {
				t.Fatalf("want typed decode error, got %v", err)
			}
			r.Close()
		},
		"abandoned": func(t *testing.T) {
			r, err := NewParallelReader(bytes.NewReader(clean), Workers(4))
			if err != nil {
				t.Fatal(err)
			}
			var e Event
			for i := 0; i < 3; i++ {
				if err := r.Next(&e); err != nil {
					t.Fatalf("event %d: %v", i, err)
				}
			}
			r.Close() // abandon with most of the stream unread
			if err := r.Next(&e); err == nil || err == io.EOF {
				t.Fatalf("Next after Close: want closed error, got %v", err)
			}
		},
	}
	for name, fn := range scenarios {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			for i := 0; i < 10; i++ {
				fn(t)
			}
			waitNoExtraGoroutines(t, base)
		})
	}
}

// TestParallelConcurrentConsumers runs many parallel readers at once over
// the same stream; with -race this shakes out sharing bugs in the
// pipeline (the race CI step runs this package).
func TestParallelConcurrentConsumers(t *testing.T) {
	stream, orig := smallV2Stream(t, 64)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, stats, err := ParallelReadAll(bytes.NewReader(stream), Workers(4))
			if err != nil {
				t.Errorf("ParallelReadAll: %v", err)
				return
			}
			if len(got.Events) != len(orig.Events) {
				t.Errorf("decoded %d events, want %d", len(got.Events), len(orig.Events))
			}
			if stats.Events != uint64(len(orig.Events)) || stats.Blocks == 0 {
				t.Errorf("implausible stats %+v", stats)
			}
		}()
	}
	wg.Wait()
}

// TestParallelReadAllMatchesReadAll checks the whole-stream helpers agree,
// including the truncated-prefix contract.
func TestParallelReadAllMatchesReadAll(t *testing.T) {
	stream, orig := smallV2Stream(t, 64)

	got, stats, err := ParallelReadAll(bytes.NewReader(stream), Workers(4))
	if err != nil {
		t.Fatalf("clean stream: %v", err)
	}
	if len(got.Events) != len(orig.Events) || stats.Truncated {
		t.Fatalf("clean stream: %d events (want %d), stats %+v", len(got.Events), len(orig.Events), stats)
	}
	for i, c := range got.StaticCount {
		if c != orig.StaticCount[i] {
			t.Fatalf("static count %d: got %d want %d", i, c, orig.StaticCount[i])
		}
	}

	cut := stream[:len(stream)-10] // inside the footer: truncated prefix case
	seqT, seqErr := ReadAll(bytes.NewReader(cut))
	parT, _, parErr := ParallelReadAll(bytes.NewReader(cut), Workers(4))
	if (seqErr == nil) != (parErr == nil) || (seqErr != nil && seqErr.Error() != parErr.Error()) {
		t.Fatalf("truncated error mismatch: seq %v vs par %v", seqErr, parErr)
	}
	if !errors.Is(parErr, ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", parErr)
	}
	if seqT == nil || parT == nil || len(seqT.Events) != len(parT.Events) {
		t.Fatalf("truncated prefix mismatch: seq %v vs par %v", seqT, parT)
	}
}

// TestTinyBlockRoundTrip round-trips a per-event-block stream through both
// decoders (the shape cmd/tracegen -blocklen=1 produces).
func TestTinyBlockRoundTrip(t *testing.T) {
	tr := New("tiny", 3)
	tr.Append(Event{PC: 0, Op: isa.OpLi, DstReg: 8, DstVal: 7, HasImm: true})
	tr.Append(Event{PC: 1, Op: isa.OpAddi, NSrc: 1, SrcReg: [2]uint8{8}, SrcVal: [2]uint32{7}, DstReg: 8, DstVal: 8, HasImm: true})
	tr.Append(Event{PC: 2, Op: isa.OpBne, NSrc: 2, DstReg: isa.NoReg, Taken: true})

	var buf bytes.Buffer
	w, err := NewWriter(&buf, tr.Name, tr.NumStatic)
	if err != nil {
		t.Fatal(err)
	}
	w.SetBlockEvents(1)
	for i := range tr.Events {
		if err := w.Write(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// One block per event on the wire.
	if n := bytes.Count(buf.Bytes(), []byte(blockMarker)); n != len(tr.Events) {
		t.Fatalf("wrote %d blocks for %d events", n, len(tr.Events))
	}
	for name, decode := range map[string]func() (*Trace, error){
		"sequential": func() (*Trace, error) { return ReadAll(bytes.NewReader(buf.Bytes())) },
		"parallel": func() (*Trace, error) {
			tr, _, err := ParallelReadAll(bytes.NewReader(buf.Bytes()), Workers(4))
			return tr, err
		},
	} {
		got, err := decode()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got.Events) != len(tr.Events) {
			t.Fatalf("%s: %d events, want %d", name, len(got.Events), len(tr.Events))
		}
		for i := range got.Events {
			if got.Events[i] != tr.Events[i] {
				t.Fatalf("%s: event %d differs", name, i)
			}
		}
	}
}

// FuzzParallelReader mirrors FuzzReader for the parallel pipeline and
// additionally holds it differentially equal to the sequential reader on
// every fuzzer-generated input.
func FuzzParallelReader(f *testing.F) {
	stream, _ := smallV2Stream(f, 64)
	f.Add(stream)
	f.Add(stream[:len(stream)/2])
	f.Add([]byte("DPGT"))
	f.Add([]byte{})
	mutated := append([]byte(nil), stream...)
	if len(mutated) > 20 {
		mutated[19] ^= 0xff
	}
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		diffRuns(t, "fuzz/strict",
			captureSequential(t, data),
			captureParallel(t, data, Workers(4)))
		diffRuns(t, "fuzz/lenient",
			captureSequential(t, data, Lenient()),
			captureParallel(t, data, Lenient(), Workers(4)))
	})
}
