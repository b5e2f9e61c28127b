// Package server implements dpgd: a long-running, fault-tolerant
// predictability-analysis service over the streaming core. Untrusted BLKC
// trace uploads stream straight into the trace store (never buffering a
// whole trace in memory), jobs run through a bounded queue with explicit
// backpressure, every job carries a deadline and a cancellation context
// plumbed down to the decode workers, panics are isolated per job,
// identical requests are de-duplicated through a content-addressed result
// cache with singleflight, and overload degrades work (parallel decode)
// before it sheds jobs.
package server

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/trace"
)

// Admission errors — failures before a job ever runs.
var (
	// ErrQueueFull reports the bounded job queue rejecting an admission;
	// the HTTP layer maps it to 429 + Retry-After.
	ErrQueueFull = errors.New("server: job queue full")
	// ErrDraining reports the server refusing new work during shutdown.
	ErrDraining = errors.New("server: draining")
	// ErrTooLarge reports an upload exceeding the configured size limit.
	ErrTooLarge = errors.New("server: upload exceeds size limit")
)

// Job failure kinds. Every failed analysis surfaces as a *JobError tagged
// with exactly one of these, so clients and metrics can branch on kind
// without parsing messages.
const (
	// KindTrace: the uploaded trace was rejected by the typed decode
	// taxonomy (malformed, truncated, checksum mismatch).
	KindTrace = "trace"
	// KindDeadline: the per-job deadline expired mid-analysis.
	KindDeadline = "deadline"
	// KindCanceled: the job's context ended for a reason other than its
	// deadline — client disconnect or server shutdown.
	KindCanceled = "canceled"
	// KindPanic: the analysis panicked; the escape was contained to the
	// job and converted into this error.
	KindPanic = "panic"
	// KindStore: trace-store I/O failed beyond the retry budget.
	KindStore = "store"
)

// JobError is the typed failure of one analysis job.
type JobError struct {
	// Kind is one of the Kind* constants.
	Kind string
	// Err is the underlying cause.
	Err error
}

func (e *JobError) Error() string {
	return fmt.Sprintf("server: job failed (%s): %v", e.Kind, e.Err)
}

func (e *JobError) Unwrap() error { return e.Err }

// classifyJobErr folds an analysis failure into the job-error taxonomy.
func classifyJobErr(err error) *JobError {
	var je *JobError
	if errors.As(err, &je) {
		return je
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return &JobError{Kind: KindDeadline, Err: err}
	case errors.Is(err, core.ErrAborted), errors.Is(err, context.Canceled):
		return &JobError{Kind: KindCanceled, Err: err}
	case errors.Is(err, core.ErrMalformedEvent), errors.Is(err, trace.ErrMalformed),
		errors.Is(err, core.ErrTruncated), errors.Is(err, core.ErrChecksum),
		errors.Is(err, core.ErrConfig):
		return &JobError{Kind: KindTrace, Err: err}
	default:
		return &JobError{Kind: KindStore, Err: err}
	}
}

// httpStatus maps a job-error kind to the response status.
func (e *JobError) httpStatus() int {
	switch e.Kind {
	case KindTrace:
		return 422 // unprocessable content: the bytes, not the server
	case KindDeadline:
		return 504
	case KindCanceled:
		return 503
	default: // KindPanic, KindStore
		return 500
	}
}
