package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The trace package classifies every decode failure into one of three
// sentinel kinds, so consumers (internal/core, cmd/dpgrun) can react by
// taxonomy rather than by message text:
//
//   - ErrMalformed: the bytes violate the format — bad magic, out-of-range
//     field, impossible frame length, unknown version. The producer is
//     buggy or hostile.
//   - ErrTruncated: the stream ended before its footer. The prefix that
//     decoded cleanly is trustworthy (ReadAll returns it).
//   - ErrChecksum: a CRC32C-protected region does not match its checksum.
//     The bytes were damaged in storage or transit.
//
// All three are delivered wrapped in a *FormatError carrying the byte
// offset where the problem was detected; match with errors.Is.
var (
	// ErrMalformed reports structurally invalid trace bytes.
	ErrMalformed = errors.New("malformed trace")
	// ErrTruncated reports a stream that ended before its footer.
	ErrTruncated = errors.New("truncated trace")
	// ErrChecksum reports a CRC32C mismatch on a protected region.
	ErrChecksum = errors.New("trace checksum mismatch")
)

// FormatError is the concrete error type for every decode failure. Err is
// one of the sentinel kinds above (or an underlying I/O error for reads
// that failed for reasons other than end-of-stream); Offset is the byte
// position in the stream where the failure was detected.
type FormatError struct {
	// Offset is the byte offset into the stream at the point of failure.
	Offset int64
	// Err is the error kind: ErrMalformed, ErrTruncated, ErrChecksum, or a
	// passed-through I/O error.
	Err error
	// Detail describes the specific failure.
	Detail string
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("trace: offset %d: %s: %v", e.Offset, e.Detail, e.Err)
}

// Unwrap exposes the error kind for errors.Is / errors.As matching.
func (e *FormatError) Unwrap() error { return e.Err }

// formatErr builds a FormatError of the given kind at offset off.
func formatErr(off int64, kind error, format string, args ...any) error {
	return &FormatError{Offset: off, Err: kind, Detail: fmt.Sprintf(format, args...)}
}

// errVarintOverflow is the error binary.ReadUvarint returns for a varint
// longer than 64 bits; encoding/binary does not export it.
var errVarintOverflow = func() error {
	_, err := binary.ReadUvarint(bytes.NewReader(bytes.Repeat([]byte{0xff}, binary.MaxVarintLen64)))
	return err
}()

// ioErr classifies a read failure at offset off: end-of-stream conditions
// become ErrTruncated, an overlong varint is ErrMalformed (the bytes were
// read fine; they violate the format), and any other I/O error passes
// through as the kind so callers can still match the underlying error.
func ioErr(off int64, err error, format string, args ...any) error {
	kind, detail := err, fmt.Sprintf(format, args...)
	switch err {
	case io.EOF, io.ErrUnexpectedEOF:
		kind = ErrTruncated
	case errVarintOverflow:
		kind, detail = ErrMalformed, detail+": varint overflows 64 bits"
	}
	return &FormatError{Offset: off, Err: kind, Detail: detail}
}
