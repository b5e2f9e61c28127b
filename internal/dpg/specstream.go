package dpg

import (
	"errors"
	"fmt"

	"repro/internal/trace"
)

// SpecRun is the streaming façade of the speculative model pass: a
// BlockPass-shaped sink the streaming pipeline can feed decoded blocks
// into while the predictor chains and the committer run concurrently.
//
// Unlike shardable pre-passes, the model pass is order-dependent, so
// SpecRun requires blocks in stream order from a single goroutine —
// consecutive indices starting at the first index fed. Call Finish exactly
// once after the last block, or Close to abandon the run (e.g. on a read
// error) without a result.
//
// When the configured predictor lacks checkpoint support, SpecRun degrades
// transparently to the plain sequential pass and reports it via
// SpecStats.Fallback.
type SpecRun struct {
	r    *specRun
	seq  *Builder // fallback path
	spec SpecConfig

	epochEvents int
	buf         []trace.Event
	nextBlock   uint64
	seenBlock   bool

	res        *Result
	err        error
	commitDone chan struct{}
}

// NewSpecRun prepares a streaming speculative run for the named workload.
// staticCount must cover the whole trace (from a pre-pass), exactly as for
// NewBuilder.
func NewSpecRun(name string, staticCount []uint64, cfg Config, spec SpecConfig) (*SpecRun, error) {
	s := &SpecRun{spec: spec, epochEvents: spec.EpochEvents}
	if s.epochEvents <= 0 {
		s.epochEvents = DefaultSpecEpochEvents
	}
	r, fallback, err := newSpecRun(name, staticCount, cfg, spec, true)
	if err != nil {
		return nil, err
	}
	if fallback {
		b, err := NewBuilder(name, staticCount, cfg)
		if err != nil {
			return nil, err
		}
		s.seq = b
		return s, nil
	}
	s.r = r
	s.buf = make([]trace.Event, 0, s.epochEvents)
	s.commitDone = make(chan struct{})
	go func() {
		defer close(s.commitDone)
		res, err := r.commit()
		if err != nil {
			// Streaming error contract: surface the bare model error (the
			// caller has no event indices), matching the sequential
			// streaming path; unblock a feeder stuck in put.
			var ee *specEventError
			if errors.As(err, &ee) {
				err = ee.err
			}
			s.err = err
			r.store.abort()
			return
		}
		s.res = res
	}()
	return s, nil
}

// ObserveBlock feeds one decoded block. Blocks must arrive in stream order
// (consecutive indices) from a single goroutine; events are copied, so the
// caller may reuse the block's backing array.
func (s *SpecRun) ObserveBlock(index uint64, events []trace.Event) error {
	if s.seq != nil {
		for i := range events {
			if err := s.seq.Observe(&events[i]); err != nil {
				return err
			}
		}
		return nil
	}
	if s.seenBlock && index != s.nextBlock {
		return fmt.Errorf("%w: speculative pass requires blocks in stream order (got %d, want %d)",
			ErrConfig, index, s.nextBlock)
	}
	s.seenBlock = true
	s.nextBlock = index + 1
	for len(events) > 0 {
		n := min(s.epochEvents-len(s.buf), len(events))
		s.buf = append(s.buf, events[:n]...)
		events = events[n:]
		if len(s.buf) == s.epochEvents {
			if !s.r.store.put(s.buf) {
				return s.abortedErr()
			}
			s.buf = make([]trace.Event, 0, s.epochEvents)
		}
	}
	return nil
}

// Finish flushes the final partial epoch, waits for the committer, and
// returns the Result — byte-identical to the sequential pass's. Must be
// called exactly once.
func (s *SpecRun) Finish() (*Result, error) {
	if s.seq != nil {
		res, err := s.seq.Finish()
		if err == nil && s.spec.Stats != nil {
			*s.spec.Stats = SpecStats{Fallback: true}
		}
		return res, err
	}
	if len(s.buf) > 0 {
		s.r.store.put(s.buf)
		s.buf = nil
	}
	s.r.store.finish()
	<-s.commitDone
	s.r.shutdown()
	if s.err != nil {
		return nil, s.err
	}
	if s.spec.Stats != nil {
		*s.spec.Stats = s.r.stats
	}
	return s.res, nil
}

// Close abandons the run without a result, reclaiming its goroutines. Safe
// after Finish; needed only when the feed fails before Finish. The chains
// are stopped before waiting for the committer, which may be blocked on a
// record they will now never send.
func (s *SpecRun) Close() {
	if s.r == nil {
		return
	}
	s.r.shutdown()
	<-s.commitDone
}

// abortedErr reports why the store rejected a feed: the committer's error
// if it failed, otherwise an explicit abort.
func (s *SpecRun) abortedErr() error {
	<-s.commitDone
	if s.err != nil {
		return s.err
	}
	return fmt.Errorf("%w: run aborted", ErrSpeculation)
}
