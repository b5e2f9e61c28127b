package dpg

import (
	"runtime"
	"testing"

	"repro/internal/predictor"
	"repro/internal/workloads"
)

// TestModelPassAllocationsFlat checks that the model pass allocates in
// proportion to its live state, not to the number of events: doubling a
// workload's rounds must add less than 10% to the heap objects one
// RunWith makes. Trace generation happens outside the measured window.
func TestModelPassAllocationsFlat(t *testing.T) {
	for _, name := range []string{"gcc", "mgr"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		var objs [2]uint64
		for i, rounds := range []int{w.Rounds, 2 * w.Rounds} {
			tr, err := w.TraceRounds(rounds, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Predictor: predictor.KindContext.Factory(), PredictorName: "context"}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := RunWith(tr, cfg); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			objs[i] = after.Mallocs - before.Mallocs
		}
		t.Logf("%s: %d heap objects at 1x rounds, %d at 2x", name, objs[0], objs[1])
		if float64(objs[1]) >= 1.1*float64(objs[0]) {
			t.Errorf("%s: 2x rounds made %d heap objects, 1x made %d: allocations grow with trace length",
				name, objs[1], objs[0])
		}
	}
}
