package core

import (
	"repro/internal/dpg"
	"repro/internal/trace"
)

// modelObserver adapts the model pass pipeline to analysis.Observer, so
// the model can ride the observer fan-out next to experiment simulators.
// A pipeline error (a malformed event) sticks: subsequent events are
// ignored and Finish reports the error, which RunObservers wraps in a
// typed *analysis.ObserverError.
type modelObserver struct {
	pl  *dpg.Pipeline
	b   *dpg.Builder
	err error
	res *dpg.Result
}

// newModelObserver builds the model pipeline for one predictor
// configuration over pre-scanned static counts.
func newModelObserver(name string, counts []uint64, mcfg dpg.Config) (*modelObserver, error) {
	b, err := dpg.NewBuilder(name, counts, mcfg)
	if err != nil {
		return nil, err
	}
	return &modelObserver{pl: dpg.NewPipeline(b), b: b}, nil
}

// Observe feeds one event through the model pass.
func (m *modelObserver) Observe(e *trace.Event) {
	if m.err != nil {
		return
	}
	m.err = m.pl.Observe(e)
}

// Finish finalises the model and stores its result.
func (m *modelObserver) Finish() error {
	if m.err != nil {
		return m.err
	}
	m.res, m.err = m.b.Finish()
	return m.err
}

// decodeHook, when non-nil, is told about every full event decode of a
// trace file this package starts (the footer probe, which reads only
// frame headers, is not a decode). Tests install it — with their own
// synchronisation inside the hook — to assert the one-decode-per-trace
// contract of the fused engine.
var decodeHook func(path string)

// noteDecode reports one event decode of path to the test seam.
func noteDecode(path string) {
	if decodeHook != nil {
		decodeHook(path)
	}
}
