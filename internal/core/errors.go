package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/dpg"
	"repro/internal/trace"
)

// The package's error taxonomy. Every failure out of the public API wraps
// exactly one of these sentinels, so callers can branch on kind with
// errors.Is instead of parsing messages:
//
//   - ErrConfig: the caller's configuration is invalid — nil trace, bad
//     predictor parameters, unknown workload or experiment id. Includes
//     predictor/analysis constructor panics, which are converted to
//     errors at this boundary.
//   - ErrMalformedEvent: a trace event carries out-of-range fields.
//   - ErrTruncated: a trace stream ended before its footer.
//   - ErrChecksum: a CRC-protected trace region failed verification.
//   - ErrAborted: the analysis was cut short by the caller — a cancelled
//     or expired WithContext — rather than by anything wrong with the
//     trace. Aborts also match the context's own error (context.Canceled /
//     context.DeadlineExceeded) through errors.Is.
var (
	// ErrConfig reports invalid configuration or API misuse.
	ErrConfig = dpg.ErrConfig
	// ErrMalformedEvent reports structurally invalid trace events.
	ErrMalformedEvent = dpg.ErrMalformedEvent
	// ErrTruncated reports a trace stream that ended early.
	ErrTruncated = trace.ErrTruncated
	// ErrChecksum reports trace data failing its checksum.
	ErrChecksum = trace.ErrChecksum
	// ErrAborted reports an analysis stopped by cancellation, not by trace
	// damage.
	ErrAborted = errors.New("core: analysis aborted")
)

// wrapTraceErr folds trace-level decode failures into the core taxonomy:
// structural corruption becomes ErrMalformedEvent (truncation and checksum
// kinds already are the shared sentinels and pass through unchanged), and
// context-driven decode aborts become ErrAborted.
func wrapTraceErr(err error) error {
	if err == nil {
		return nil
	}
	if isCancel(err) {
		return wrapAbort(err)
	}
	if errors.Is(err, trace.ErrMalformed) && !errors.Is(err, ErrMalformedEvent) {
		return fmt.Errorf("%w: %w", ErrMalformedEvent, err)
	}
	return err
}

// isCancel reports whether err stems from a cancelled or expired context.
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// wrapAbort stamps an abort cause with the ErrAborted sentinel (idempotent
// so double-wrapped paths stay clean).
func wrapAbort(err error) error {
	if errors.Is(err, ErrAborted) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrAborted, err)
}
