package dpg

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// specTraces returns the differential workloads: every event shape (loads,
// stores, branches, `in` D nodes, neutral ops) across small and large PC
// universes, plus a graph workload whose branches test loaded values (the
// hard-to-predict scenario the tage/ldbp predictors target).
func specTraces(t *testing.T) map[string]*trace.Trace {
	t.Helper()
	out := map[string]*trace.Trace{}
	for _, name := range []string{"fig1", "gcc", "com", "bfs"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		tr, err := w.TraceRounds(max(2, w.Rounds/50), 1)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = tr
	}
	return out
}

// mustEqualResults asserts two Results are identical in every field.
func mustEqualResults(t *testing.T, ctx string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: speculative Result differs from sequential Result", ctx)
	}
}

// TestSpeculativeDifferential is the headline differential suite: across
// workloads × predictors × epoch counts × worker counts, RunSpeculative
// must produce a Result identical to the seed sequential builder's, with
// zero divergence, over exactly one unit per predictor category.
func TestSpeculativeDifferential(t *testing.T) {
	traces := specTraces(t)
	kinds := predictor.AllKinds
	epochCounts := []int{1, 2, 3, 8, 32}
	workerCounts := []int{1, 2, 4}
	for name, tr := range traces {
		for _, kind := range kinds {
			cfg := Config{Predictor: kind.Factory(), PredictorName: kind.String()}
			want, err := RunWith(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, epochs := range epochCounts {
				for _, workers := range workerCounts {
					var st SpecStats
					got, err := RunSpeculative(tr, cfg, SpecConfig{
						Workers: workers, Epochs: epochs, Stats: &st,
					})
					if err != nil {
						t.Fatalf("%s/%s e=%d w=%d: %v", name, kind, epochs, workers, err)
					}
					ctx := name + "/" + kind.String()
					mustEqualResults(t, ctx, got, want)
					if st.Fallback {
						t.Fatalf("%s: unexpected fallback", ctx)
					}
					if st.Diverged != 0 || st.Replayed != 0 || st.Abandoned != 0 {
						t.Fatalf("%s e=%d w=%d: spurious divergence: %+v", ctx, epochs, workers, st)
					}
					if st.Epochs == 0 || st.Units != 4 || st.Chains != workers {
						t.Fatalf("%s e=%d w=%d: implausible stats: %+v", ctx, epochs, workers, st)
					}
				}
			}
		}
	}
}

// TestSpeculativeMetamorphicEpochInvariance is the metamorphic suite:
// epoch size and checkpoint interval are execution details and must never
// change any figure of the Result.
func TestSpeculativeMetamorphicEpochInvariance(t *testing.T) {
	tr := specTraces(t)["gcc"]
	cfg := Config{Predictor: predictor.KindContext.Factory()}
	want, err := RunWith(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, epochs := range []int{1, 2, 5, 7, 16, 64, 1000} {
		for _, checkpoint := range []int{1, 2, 3, 100} {
			got, err := RunSpeculative(tr, cfg, SpecConfig{Epochs: epochs, Checkpoint: checkpoint})
			if err != nil {
				t.Fatalf("e=%d ck=%d: %v", epochs, checkpoint, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("epochs=%d checkpoint=%d changed the Result", epochs, checkpoint)
			}
		}
	}
}

// TestSpeculativeConfigMatrix covers the configuration corners that change
// which predictor calls happen: shared input/output instance, correlated
// output keys, disabled path tracking, graph recording, and a small branch
// predictor.
func TestSpeculativeConfigMatrix(t *testing.T) {
	tr := specTraces(t)["fig1"]
	configs := map[string]Config{
		"shared":     {Predictor: predictor.KindStride.Factory(), SharedInputOutput: true},
		"correlated": {Predictor: predictor.KindContext.Factory(), CorrelateOutputs: true},
		"nopaths":    {Predictor: predictor.KindLast.Factory(), DisablePaths: true},
		"graph":      {Predictor: predictor.KindContext.Factory(), GraphLimit: 500},
		"smallbr":    {Predictor: predictor.KindLast.Factory(), GShareBits: 4},
		"sharedcorr": {Predictor: predictor.KindContext.Factory(), SharedInputOutput: true, CorrelateOutputs: true},
	}
	for name, cfg := range configs {
		want, err := RunWith(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantUnits := 4
		if cfg.SharedInputOutput {
			wantUnits = 3
		}
		for _, workers := range []int{1, 3, 8} {
			var st SpecStats
			got, err := RunSpeculative(tr, cfg, SpecConfig{Workers: workers, Epochs: 6, Stats: &st})
			if err != nil {
				t.Fatalf("%s w=%d: %v", name, workers, err)
			}
			mustEqualResults(t, name, got, want)
			if st.Diverged != 0 {
				t.Fatalf("%s: spurious divergence: %+v", name, st)
			}
			if st.Units != wantUnits || st.Chains != min(workers, wantUnits) {
				t.Fatalf("%s w=%d: %d units on %d chains, want %d units", name, workers, st.Units, st.Chains, wantUnits)
			}
		}
	}
}

// TestSpeculativeFallback checks that a predictor without checkpoint
// support degrades to the sequential pass with identical output and the
// Fallback stat set.
func TestSpeculativeFallback(t *testing.T) {
	tr := specTraces(t)["fig1"]
	cfg := Config{
		Predictor: func() predictor.Predictor {
			return predictor.NewDelayed(predictor.NewLastValue(predictor.DefaultTableBits), 4)
		},
		PredictorName: "delayed-last",
	}
	want, err := RunWith(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var st SpecStats
	got, err := RunSpeculative(tr, cfg, SpecConfig{Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "fallback", got, want)
	if !st.Fallback {
		t.Fatal("Fallback stat not set for non-checkpointable predictor")
	}
}

// TestSpeculativeAdversarialDivergence is the adversarial suite: the chaos
// hook corrupts chain state so epochs mispredict, up to 100% of them. The
// Result must stay byte-identical, recovery must stay within the
// checkpoint replay bound, and under total corruption every unit must be
// abandoned — graceful degradation to sequential cost instead of replay
// thrash.
func TestSpeculativeAdversarialDivergence(t *testing.T) {
	tr := specTraces(t)["gcc"]
	cfg := Config{Predictor: predictor.KindContext.Factory()}
	want, err := RunWith(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}

	hooks := map[string]func(u unitKind, epoch int) bool{
		"all":         func(unitKind, int) bool { return true },
		"input-only":  func(u unitKind, _ int) bool { return u == unitInput },
		"addr-only":   func(u unitKind, _ int) bool { return u == unitAddr },
		"every-third": func(_ unitKind, e int) bool { return e%3 == 0 },
		"one-epoch":   func(_ unitKind, e int) bool { return e == 2 },
	}
	const epochs, checkpoint = 12, 3
	for name, hook := range hooks {
		for _, workers := range []int{1, 4} {
			var st SpecStats
			spec := SpecConfig{Workers: workers, Epochs: epochs, Checkpoint: checkpoint, Stats: &st}
			spec.corrupt = hook
			got, err := RunSpeculative(tr, cfg, spec)
			if err != nil {
				t.Fatalf("%s w=%d: %v", name, workers, err)
			}
			mustEqualResults(t, name, got, want)
			if st.Diverged == 0 {
				t.Fatalf("%s: chaos hook induced no divergence: %+v", name, st)
			}
			// Each recovery replays at most Checkpoint-1 committed epochs.
			if st.ReplayEpochs > st.Diverged*(checkpoint-1) {
				t.Fatalf("%s: replay bound exceeded: %+v", name, st)
			}
			if name == "all" {
				if st.Abandoned != st.Units {
					t.Fatalf("100%% corruption: abandoned %d of %d units: %+v", st.Abandoned, st.Units, st)
				}
			}
			// Recovery is per unit: poisoning one unit abandons only it.
			if (name == "input-only" || name == "addr-only") && st.Abandoned != 1 {
				t.Fatalf("%s: corruption of one unit abandoned %d units: %+v", name, st.Abandoned, st)
			}
			if name == "one-epoch" && st.Abandoned != 0 {
				t.Fatalf("single diverged epoch must not abandon a unit: %+v", st)
			}
		}
	}
}

// TestSpeculativeMalformedEvent checks error-contract parity with the
// sequential pass: same error, same global event index, regardless of
// where in the epoch structure the bad event lands.
func TestSpeculativeMalformedEvent(t *testing.T) {
	base := specTraces(t)["fig1"]
	positions := []int{0, 1, len(base.Events) / 2, len(base.Events) - 1}
	for _, pos := range positions {
		tr := &trace.Trace{
			Name:        base.Name,
			NumStatic:   base.NumStatic,
			StaticCount: base.StaticCount,
			Events:      append([]trace.Event(nil), base.Events...),
		}
		tr.Events[pos].NSrc = 3
		_, wantErr := RunWith(tr, Config{Predictor: predictor.KindLast.Factory()})
		if wantErr == nil {
			t.Fatalf("pos %d: sequential pass accepted malformed event", pos)
		}
		for _, workers := range []int{1, 4} {
			_, gotErr := RunSpeculative(tr, Config{Predictor: predictor.KindLast.Factory()},
				SpecConfig{Workers: workers, Epochs: 7})
			if gotErr == nil {
				t.Fatalf("pos %d w=%d: speculative pass accepted malformed event", pos, workers)
			}
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("pos %d w=%d: error mismatch:\n  speculative: %v\n  sequential:  %v",
					pos, workers, gotErr, wantErr)
			}
			if !errors.Is(gotErr, ErrMalformedEvent) {
				t.Fatalf("pos %d: error does not match ErrMalformedEvent: %v", pos, gotErr)
			}
		}
	}
}

// TestSpeculativeConfigErrors checks the ErrConfig taxonomy parity.
func TestSpeculativeConfigErrors(t *testing.T) {
	tr := specTraces(t)["fig1"]
	if _, err := RunSpeculative(nil, Config{Predictor: predictor.KindLast.Factory()}, SpecConfig{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("nil trace: err = %v, want ErrConfig", err)
	}
	if _, err := RunSpeculative(tr, Config{}, SpecConfig{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("nil factory: err = %v, want ErrConfig", err)
	}
	bad := Config{Predictor: func() predictor.Predictor { return predictor.NewLastValue(-1) }}
	if _, err := RunSpeculative(tr, bad, SpecConfig{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("panicking factory: err = %v, want ErrConfig", err)
	}
	if _, err := NewSpecRun("x", nil, Config{}, SpecConfig{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("NewSpecRun nil factory: err = %v, want ErrConfig", err)
	}
}

// TestSpeculativeEmptyTrace runs the degenerate cases: zero events, and
// fewer events than requested epochs.
func TestSpeculativeEmptyTrace(t *testing.T) {
	empty := &trace.Trace{Name: "empty"}
	cfg := Config{Predictor: predictor.KindLast.Factory()}
	want, err := RunWith(empty, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunSpeculative(empty, cfg, SpecConfig{Epochs: 16})
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "empty", got, want)

	tiny := specTraces(t)["fig1"]
	tiny = &trace.Trace{
		Name: tiny.Name, NumStatic: tiny.NumStatic,
		StaticCount: tiny.StaticCount, Events: tiny.Events[:3],
	}
	want, err = RunWith(tiny, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err = RunSpeculative(tiny, cfg, SpecConfig{Epochs: 1000, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "tiny", got, want)
}

// feedSpecRun streams a trace into a SpecRun in blocks of the given size.
func feedSpecRun(t *testing.T, s *SpecRun, tr *trace.Trace, blockSize int) {
	t.Helper()
	idx := uint64(0)
	for lo := 0; lo < len(tr.Events); lo += blockSize {
		hi := min(lo+blockSize, len(tr.Events))
		if err := s.ObserveBlock(idx, tr.Events[lo:hi]); err != nil {
			t.Fatalf("ObserveBlock %d: %v", idx, err)
		}
		idx++
	}
}

// TestSpecRunStreamingDifferential checks the streaming façade: blocks in,
// identical Result out, across epoch sizes that divide blocks unevenly.
func TestSpecRunStreamingDifferential(t *testing.T) {
	for name, tr := range specTraces(t) {
		cfg := Config{Predictor: predictor.KindStride.Factory()}
		want, err := RunWith(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, epochEvents := range []int{97, 1024, 1 << 20} {
			for _, workers := range []int{1, 4} {
				var st SpecStats
				s, err := NewSpecRun(tr.Name, tr.StaticCount, cfg,
					SpecConfig{Workers: workers, EpochEvents: epochEvents, Checkpoint: 2, Stats: &st})
				if err != nil {
					t.Fatal(err)
				}
				feedSpecRun(t, s, tr, 333)
				got, err := s.Finish()
				if err != nil {
					t.Fatalf("%s epoch=%d w=%d: %v", name, epochEvents, workers, err)
				}
				mustEqualResults(t, name, got, want)
				if st.Diverged != 0 || st.Fallback {
					t.Fatalf("%s: unexpected stats %+v", name, st)
				}
			}
		}
	}
}

// TestSpecRunStreamingChaos drives the chaos hook through the streaming
// façade, with the bounded retention window in play.
func TestSpecRunStreamingChaos(t *testing.T) {
	tr := specTraces(t)["gcc"]
	cfg := Config{Predictor: predictor.KindContext.Factory()}
	want, err := RunWith(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var st SpecStats
	spec := SpecConfig{Workers: 4, EpochEvents: len(tr.Events)/9 + 1, Checkpoint: 2, Stats: &st}
	spec.corrupt = func(_ unitKind, e int) bool { return e%2 == 1 }
	s, err := NewSpecRun(tr.Name, tr.StaticCount, cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	feedSpecRun(t, s, tr, 1000)
	got, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "streaming-chaos", got, want)
	if st.Diverged == 0 {
		t.Fatalf("chaos hook induced no divergence: %+v", st)
	}
}

// TestSpecRunStreamingErrors checks the streaming error contract: a
// malformed event surfaces the bare model error (no event index — the
// caller owns stream position), block reordering is rejected, and Close
// abandons a half-fed run cleanly.
func TestSpecRunStreamingErrors(t *testing.T) {
	tr := specTraces(t)["fig1"]
	cfg := Config{Predictor: predictor.KindLast.Factory()}

	bad := append([]trace.Event(nil), tr.Events...)
	bad[len(bad)/2].NSrc = 3
	s, err := NewSpecRun(tr.Name, tr.StaticCount, cfg, SpecConfig{EpochEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	var feedErr error
	for lo, idx := 0, uint64(0); lo < len(bad); lo, idx = lo+100, idx+1 {
		if feedErr = s.ObserveBlock(idx, bad[lo:min(lo+100, len(bad))]); feedErr != nil {
			break
		}
	}
	if feedErr == nil {
		_, feedErr = s.Finish()
	} else {
		s.Close()
	}
	if !errors.Is(feedErr, ErrMalformedEvent) {
		t.Fatalf("streaming malformed event: err = %v, want ErrMalformedEvent", feedErr)
	}

	s2, err := NewSpecRun(tr.Name, tr.StaticCount, cfg, SpecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.ObserveBlock(0, tr.Events[:10]); err != nil {
		t.Fatal(err)
	}
	if err := s2.ObserveBlock(5, tr.Events[10:20]); !errors.Is(err, ErrConfig) {
		t.Fatalf("out-of-order block: err = %v, want ErrConfig", err)
	}
	s2.Close()

	// Close with no feed at all.
	s3, err := NewSpecRun(tr.Name, tr.StaticCount, cfg, SpecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s3.Close()
}

// TestSpecRunCloseWhileCommitterWaits pins Close against a committer
// blocked on a record its chain will never send: one chain holds every
// unit, the input unit stalls inside epoch 1 until the store is aborted,
// and the chain then exits at its next epoch fetch, leaving the committer
// waiting for the output unit's epoch-1 record. Close must still return.
func TestSpecRunCloseWhileCommitterWaits(t *testing.T) {
	tr := specTraces(t)["fig1"]
	cfg := Config{Predictor: predictor.KindLast.Factory()}
	release := make(chan struct{})
	spec := SpecConfig{Workers: 1, EpochEvents: 64, Checkpoint: 1}
	spec.corrupt = func(u unitKind, e int) bool {
		if u == unitInput && e == 1 {
			<-release
		}
		return false
	}
	s, err := NewSpecRun(tr.Name, tr.StaticCount, cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ObserveBlock(0, tr.Events[:3*64]); err != nil {
		t.Fatal(err)
	}
	// With a checkpoint every epoch, the committer releases epoch 0 once
	// it has settled it; the pause lets it reach the epoch-1 wait. Correct
	// code passes however the two race; the pause only makes the stall
	// this test guards against reachable.
	for base := 0; base < 1; {
		s.r.store.mu.Lock()
		base = s.r.store.base
		s.r.store.mu.Unlock()
		runtime.Gosched()
	}
	time.Sleep(20 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	for aborted := false; !aborted; {
		s.r.store.mu.Lock()
		aborted = s.r.store.aborted
		s.r.store.mu.Unlock()
		runtime.Gosched()
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung with the committer waiting on an exited chain")
	}
}

// TestSpeculativeNoGoroutineLeak verifies every path — success, fallback,
// error, and abandoned stream — reclaims its chain goroutines.
func TestSpeculativeNoGoroutineLeak(t *testing.T) {
	tr := specTraces(t)["fig1"]
	cfg := Config{Predictor: predictor.KindLast.Factory()}
	base := runtime.NumGoroutine()

	if _, err := RunSpeculative(tr, cfg, SpecConfig{Workers: 4, Epochs: 8}); err != nil {
		t.Fatal(err)
	}
	bad := &trace.Trace{
		Name: tr.Name, NumStatic: tr.NumStatic, StaticCount: tr.StaticCount,
		Events: append([]trace.Event(nil), tr.Events...),
	}
	bad.Events[7].NSrc = 3
	if _, err := RunSpeculative(bad, cfg, SpecConfig{Workers: 4}); err == nil {
		t.Fatal("expected error")
	}
	s, err := NewSpecRun(tr.Name, tr.StaticCount, cfg, SpecConfig{EpochEvents: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ObserveBlock(0, tr.Events[:200]); err != nil {
		t.Fatal(err)
	}
	s.Close()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutine leak: %d live, baseline %d\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}
