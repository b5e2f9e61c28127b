package trace

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/isa"
)

// Stats summarises what a Reader saw, including the damage a lenient
// reader recovered from. BlocksSkipped counts damage regions, which can
// differ from the number of producer blocks lost when corruption
// misaligns the frame stream.
type Stats struct {
	// Version is the negotiated format version (1 or 2).
	Version int
	// Blocks counts v2 event blocks decoded successfully.
	Blocks uint64
	// BlocksCompressed counts decoded blocks whose payload was stored
	// compressed (codec lz or flate); raw-stored blocks are not counted.
	BlocksCompressed uint64
	// BlocksSkipped counts corrupt regions skipped in lenient mode.
	BlocksSkipped uint64
	// BytesSkipped counts bytes discarded while resynchronising.
	BytesSkipped int64
	// Events counts events delivered to the caller.
	Events uint64
	// EventsDeclared is the total event count from the footer (0 if the
	// footer was lost).
	EventsDeclared uint64
	// Truncated reports that the stream ended before its trailer.
	Truncated bool
	// FooterLost reports that the static-count footer was unreadable; the
	// per-PC counts were reconstructed from the recovered events.
	FooterLost bool
}

// readerConfig collects the knobs shared by NewReader and
// NewParallelReader.
type readerConfig struct {
	lenient bool
	workers int
	ctx     context.Context
}

// ReaderOption configures NewReader or NewParallelReader.
type ReaderOption func(*readerConfig)

// Lenient switches the reader into recovery mode: instead of failing on
// the first corrupt v2 block it resynchronises at the next frame marker,
// and a truncated stream ends with a clean io.EOF plus Stats describing
// the damage. Header corruption is never recoverable. For v1 streams,
// recovery is limited to keeping the prefix that decoded cleanly.
func Lenient() ReaderOption {
	return func(c *readerConfig) { c.lenient = true }
}

// Workers sets the number of concurrent block decoders used by
// NewParallelReader: 0 (the default) means runtime.GOMAXPROCS(0), and 1
// decodes each block inline on the consumer's goroutine, with no
// pipeline. NewReader ignores the option.
func Workers(n int) ReaderOption {
	return func(c *readerConfig) { c.workers = n }
}

// WithContext binds the reader to ctx: once ctx is cancelled (or its
// deadline passes), Next stops decoding promptly — within the current
// block — and fails sticky with an error matching ctx.Err(). The parallel
// decoder additionally interrupts its wait on in-flight workers, so a
// consumer blocked behind a slow source regains control as soon as the
// context ends. A nil ctx (the default) disables the checks entirely.
func WithContext(ctx context.Context) ReaderOption {
	return func(c *readerConfig) { c.ctx = ctx }
}

// canceledErr wraps a context's termination so it surfaces from Next as a
// sticky decode failure while still matching context.Canceled /
// context.DeadlineExceeded via errors.Is.
func canceledErr(ctx context.Context) error {
	return fmt.Errorf("trace: decode canceled: %w", context.Cause(ctx))
}

// countingReader tracks the byte offset of everything consumed, so decode
// errors can report where in the stream they happened.
type countingReader struct {
	br *bufio.Reader
	n  int64
}

func (c *countingReader) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.br.Read(p)
	c.n += int64(n)
	return n, err
}

// Reader decodes a trace stream of either format version. Events stream
// via Next; the static-count footer becomes available after Next returns
// io.EOF. A v2 stream is decoded one whole block at a time — frame walk,
// decodeBlockFrame, accounting fold — on the caller's goroutine, and Next
// serves events from the decoded block.
type Reader struct {
	cr        *countingReader
	version   int
	name      string
	numStatic int
	lenient   bool
	ctx       context.Context // nil unless WithContext
	stats     Stats
	counts    []uint64
	done      bool
	sticky    error

	// walk is the v2 frame walk, stepped by pull unless pipe is set, in
	// which case a ParallelReader's splitter goroutine owns it and pull
	// receives its decoded items from the pipeline instead.
	walk frameWalker
	pipe *pipeline

	// cur is the decoded block being served and curIdx the next event in
	// it. curHandedOff marks cur.events as escaped to a NextBlock caller,
	// so advance must not recycle the slice into the event pool.
	cur          blockResult
	curIdx       int
	curHandedOff bool
}

// NewReader parses the stream header and negotiates the format version.
func NewReader(r io.Reader, opts ...ReaderOption) (*Reader, error) {
	var cfg readerConfig
	for _, o := range opts {
		o(&cfg)
	}
	tr := &Reader{cr: &countingReader{br: bufio.NewReaderSize(r, 1<<16)}, lenient: cfg.lenient, ctx: cfg.ctx}
	magic := make([]byte, 4)
	if _, err := io.ReadFull(tr.cr, magic); err != nil {
		return nil, ioErr(tr.cr.n, err, "reading magic")
	}
	if string(magic) != headerMagic {
		return nil, formatErr(0, ErrMalformed, "bad magic %q", magic)
	}
	ver, err := tr.cr.ReadByte()
	if err != nil {
		return nil, ioErr(tr.cr.n, err, "reading version")
	}
	tr.version = int(ver)
	tr.stats.Version = tr.version
	switch tr.version {
	case Version1:
		err = tr.readHeaderV1()
	case Version2:
		err = tr.readHeaderV2()
	default:
		return nil, formatErr(4, ErrMalformed, "unsupported version %d", ver)
	}
	if err != nil {
		return nil, err
	}
	tr.walk = frameWalker{cr: tr.cr, numStatic: tr.numStatic, lenient: tr.lenient}
	return tr, nil
}

// readUvarint reads a varint, labelling failures with what is being read.
func readUvarint(cr *countingReader, what string) (uint64, error) {
	off := cr.n
	v, err := binary.ReadUvarint(cr)
	if err != nil {
		return 0, ioErr(off, err, "reading %s", what)
	}
	return v, nil
}

// readUvarint is the method form of the standalone helper.
func (tr *Reader) readUvarint(what string) (uint64, error) {
	return readUvarint(tr.cr, what)
}

func (tr *Reader) readHeaderV1() error {
	nameLen, err := tr.readUvarint("name length")
	if err != nil {
		return err
	}
	if nameLen > maxNameLen {
		return formatErr(tr.cr.n, ErrMalformed, "unreasonable name length %d", nameLen)
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(tr.cr, nameBuf); err != nil {
		return ioErr(tr.cr.n, err, "reading name")
	}
	numStatic, err := tr.readUvarint("program length")
	if err != nil {
		return err
	}
	if numStatic > maxNumStatic {
		return formatErr(tr.cr.n, ErrMalformed, "unreasonable program length %d", numStatic)
	}
	tr.name = string(nameBuf)
	tr.numStatic = int(numStatic)
	return nil
}

func (tr *Reader) readHeaderV2() error {
	hdrOff := tr.cr.n
	hdrLen, err := tr.readUvarint("header length")
	if err != nil {
		return err
	}
	if hdrLen > maxNameLen+2*binary.MaxVarintLen64 {
		return formatErr(tr.cr.n, ErrMalformed, "unreasonable header length %d", hdrLen)
	}
	want, err := tr.readCRC("header")
	if err != nil {
		return err
	}
	payload, err := tr.readPayload(int(hdrLen), "header")
	if err != nil {
		return err
	}
	if crc32.Checksum(payload, castagnoli) != want {
		return formatErr(hdrOff, ErrChecksum, "header checksum")
	}
	off := 0
	nameLen, err := bufUvarint(payload, &off)
	if err != nil || nameLen > uint64(len(payload)-off) {
		return formatErr(hdrOff, ErrMalformed, "bad name length in header")
	}
	name := string(payload[off : off+int(nameLen)])
	off += int(nameLen)
	numStatic, err := bufUvarint(payload, &off)
	if err != nil || numStatic > maxNumStatic {
		return formatErr(hdrOff, ErrMalformed, "bad program length in header")
	}
	if off != len(payload) {
		return formatErr(hdrOff, ErrMalformed, "%d trailing header bytes", len(payload)-off)
	}
	tr.name = name
	tr.numStatic = int(numStatic)
	return nil
}

// readCRC reads a little-endian CRC32C field.
func readCRC(cr *countingReader, what string) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(cr, buf[:]); err != nil {
		return 0, ioErr(cr.n, err, "reading %s checksum", what)
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

// readCRC is the method form of the standalone helper.
func (tr *Reader) readCRC(what string) (uint32, error) {
	return readCRC(tr.cr, what)
}

// readPayload reads n declared bytes in bounded chunks, so a hostile
// length field costs at most the bytes actually present in the stream.
func readPayload(cr *countingReader, n int, what string) ([]byte, error) {
	const chunk = 1 << 16
	buf := make([]byte, 0, min(n, chunk))
	for len(buf) < n {
		step := min(n-len(buf), chunk)
		start := len(buf)
		buf = append(buf, make([]byte, step)...)
		if _, err := io.ReadFull(cr, buf[start:]); err != nil {
			return nil, ioErr(cr.n, err, "reading %s payload", what)
		}
	}
	return buf, nil
}

// readPayloadPooled is readPayload for block payloads, drawing the buffer
// from payloadPool (decodeBlockFrame returns it once the block is decoded).
// The first chunk stays bounded so a hostile length field still costs at
// most the bytes actually present in the stream.
func readPayloadPooled(cr *countingReader, n int) ([]byte, error) {
	const chunk = 1 << 16
	buf := getPayloadBuf(min(n, chunk))
	for len(buf) < n {
		step := min(n-len(buf), chunk)
		start := len(buf)
		if cap(buf) >= start+step {
			buf = buf[:start+step]
		} else {
			buf = append(buf, make([]byte, step)...)
		}
		if _, err := io.ReadFull(cr, buf[start:]); err != nil {
			return nil, ioErr(cr.n, err, "reading block payload")
		}
	}
	return buf, nil
}

// readPayload is the method form of the standalone helper.
func (tr *Reader) readPayload(n int, what string) ([]byte, error) {
	return readPayload(tr.cr, n, what)
}

// bufUvarint decodes a varint from buf at *off, advancing it.
func bufUvarint(buf []byte, off *int) (uint64, error) {
	v, n := binary.Uvarint(buf[*off:])
	if n <= 0 {
		return 0, errors.New("bad uvarint")
	}
	*off += n
	return v, nil
}

// Name returns the workload name from the header.
func (tr *Reader) Name() string { return tr.name }

// NumStatic returns the static program length from the header.
func (tr *Reader) NumStatic() int { return tr.numStatic }

// Version returns the negotiated format version.
func (tr *Reader) Version() int { return tr.version }

// Stats returns a snapshot of the reader's progress and damage summary.
func (tr *Reader) Stats() Stats { return tr.stats }

// Close exists for symmetry with ParallelReader, so the two readers can be
// used interchangeably; the sequential reader holds no resources.
func (tr *Reader) Close() error { return nil }

// StaticCounts returns the per-PC execution counts; valid only after Next
// has returned io.EOF, and nil if the footer was lost in lenient mode.
func (tr *Reader) StaticCounts() []uint64 { return tr.counts }

// fail records a terminal error and releases any decode pipeline; every
// subsequent Next repeats the error.
func (tr *Reader) fail(err error) error {
	tr.sticky = err
	tr.pipe.shutdown()
	return err
}

// end marks a clean end of stream and releases any decode pipeline.
func (tr *Reader) end() error {
	tr.done = true
	tr.pipe.shutdown()
	return io.EOF
}

// recoverableKind reports whether err is format-level damage a lenient
// reader may skip past, as opposed to an I/O failure that must surface.
func recoverableKind(err error) bool {
	return errors.Is(err, ErrMalformed) || errors.Is(err, ErrTruncated) || errors.Is(err, ErrChecksum)
}

// Next decodes the next event into e. It returns io.EOF at the end of the
// event stream, after which StaticCounts is available. In strict mode
// (the default) the first structural problem is a terminal typed error;
// in lenient mode the reader skips damaged regions and truncation ends
// the stream cleanly with the damage recorded in Stats.
func (tr *Reader) Next(e *Event) error {
	if tr.sticky != nil {
		return tr.sticky
	}
	if tr.done {
		return io.EOF
	}
	// The cancellation probe runs at most once per 1024 events so the
	// per-event fast path stays branch-cheap; a cancelled context is still
	// observed within one block (v2) or one probe window (v1).
	if tr.ctx != nil && tr.stats.Events&1023 == 0 && tr.ctx.Err() != nil {
		return tr.fail(canceledErr(tr.ctx))
	}
	if tr.version == Version1 {
		err := tr.next1(e)
		if err == nil {
			tr.stats.Events++
		}
		return err
	}
	if err := tr.fill(); err != nil {
		return err
	}
	*e = tr.cur.events[tr.curIdx]
	tr.curIdx++
	tr.stats.Events++
	return nil
}

// --- v1 decode path ------------------------------------------------------

func (tr *Reader) next1(e *Event) error {
	err := tr.decodeEventStream(e)
	if err == nil {
		return nil
	}
	if err == errEndOfEvents {
		if ferr := tr.readFooterV1(); ferr != nil {
			if tr.lenient && recoverableKind(ferr) {
				tr.stats.Truncated = true
				tr.stats.FooterLost = true
				tr.counts = nil
				return tr.end()
			}
			return tr.fail(ferr)
		}
		return tr.end()
	}
	if tr.lenient && recoverableKind(err) {
		// v1 has no sync markers: recovery keeps the clean prefix.
		tr.stats.Truncated = true
		tr.stats.FooterLost = true
		return tr.end()
	}
	return tr.fail(err)
}

// errEndOfEvents marks the v1 in-band event terminator.
var errEndOfEvents = errors.New("end of events")

// decodeEventStream reads one v1 event record directly from the stream.
func (tr *Reader) decodeEventStream(e *Event) error {
	opOff := tr.cr.n
	opByte, err := tr.cr.ReadByte()
	if err != nil {
		return ioErr(opOff, err, "reading opcode")
	}
	if opByte == 0 {
		return errEndOfEvents
	}
	op := isa.Op(opByte)
	pc, err := tr.readUvarint("pc")
	if err != nil {
		return err
	}
	flags, err := tr.cr.ReadByte()
	if err != nil {
		return ioErr(tr.cr.n, err, "reading flags")
	}
	*e = Event{PC: uint32(pc), Op: op, NSrc: flags & flagNSrcMask, DstReg: isa.NoReg,
		Taken: flags&flagTaken != 0, HasImm: flags&flagImm != 0}
	if e.NSrc > 2 {
		return formatErr(opOff, ErrMalformed, "corrupt flags: %d source operands", e.NSrc)
	}
	for i := uint8(0); i < e.NSrc; i++ {
		reg, err := tr.cr.ReadByte()
		if err != nil {
			return ioErr(tr.cr.n, err, "reading src reg")
		}
		val, err := tr.readUvarint("src val")
		if err != nil {
			return err
		}
		e.SrcReg[i] = reg
		e.SrcVal[i] = uint32(val)
	}
	if flags&flagDst != 0 {
		reg, err := tr.cr.ReadByte()
		if err != nil {
			return ioErr(tr.cr.n, err, "reading dst reg")
		}
		val, err := tr.readUvarint("dst val")
		if err != nil {
			return err
		}
		e.DstReg = reg
		e.DstVal = uint32(val)
	}
	if flags&flagMem != 0 {
		addr, err := tr.readUvarint("mem addr")
		if err != nil {
			return err
		}
		val, err := tr.readUvarint("mem val")
		if err != nil {
			return err
		}
		e.Addr = uint32(addr)
		e.MemVal = uint32(val)
	}
	if verr := checkEvent(e, tr.numStatic); verr != nil {
		return formatErr(opOff, ErrMalformed, "%v", verr)
	}
	return nil
}

// readFooterV1 parses the unframed v1 count footer. The count slice grows
// incrementally, so a hostile header cannot force a giant allocation from
// a short file.
func (tr *Reader) readFooterV1() error {
	counts := make([]uint64, 0, min(tr.numStatic, 4096))
	for i := 0; i < tr.numStatic; i++ {
		c, err := binary.ReadUvarint(tr.cr)
		if err != nil {
			return ioErr(tr.cr.n, err, "reading static counts")
		}
		counts = append(counts, c)
	}
	magic := make([]byte, 4)
	if _, err := io.ReadFull(tr.cr, magic); err != nil {
		return ioErr(tr.cr.n, err, "reading trailer magic")
	}
	if string(magic) != footerMagic {
		return formatErr(tr.cr.n-4, ErrMalformed, "bad trailer magic %q", magic)
	}
	tr.counts = counts
	return nil
}

// --- v2 decode path ------------------------------------------------------
//
// One decode path serves both readers. The frame walk (frameWalker.next)
// reads frames in stream order and yields one item per step; every block
// frame is decoded whole by decodeBlockFrame; advance folds each item into
// the Reader's Stats and block cursor. A Reader runs all three inline on
// the consumer's goroutine. A ParallelReader runs the walk on a splitter
// goroutine and decodeBlockFrame on a worker pool (parallel.go), then
// feeds the items, still in stream order, into the same fold.

// frameKind classifies one frame-walk item.
type frameKind uint8

const (
	// frameBlock: a block frame as read, to be decoded by decodeBlockFrame.
	frameBlock frameKind = iota
	// frameSkip: lenient damage — a resync's discarded bytes, or a whole
	// frame that could not be read.
	frameSkip
	// frameFooter: the parsed footer frame; the walk ends here.
	frameFooter
	// frameErr: a terminal failure; the walk ends here.
	frameErr
	// frameEOF: a lenient walk ran out of bytes before the footer.
	frameEOF
)

// frameItem is one step of the frame walk. The fields set depend on kind.
type frameItem struct {
	kind       frameKind
	bf         blockFrame  // frameBlock, before decoding
	block      blockResult // frameBlock, after decodeBlockFrame
	footer     footerFrame // frameFooter
	trailerErr error       // frameFooter: problem reading the trailing magic
	skipBytes  int64       // frameSkip
	err        error       // frameErr
}

// last reports whether the walk ends with this item.
func (it *frameItem) last() bool {
	return it.kind == frameFooter || it.kind == frameErr || it.kind == frameEOF
}

// frameWalker is the v2 frame walk's state. It belongs to whoever runs the
// walk: the Reader itself, or a ParallelReader's splitter goroutine.
type frameWalker struct {
	cr        *countingReader
	numStatic int
	lenient   bool
	// marker is a frame marker already scanned but not yet read: a resync
	// yields its skip item first and reads the frame it found on the next
	// step.
	marker string
}

// next is the one frame-walk step: it scans for the next frame marker
// (byte-by-byte resynchronisation in lenient mode), reads the frame the
// marker opens, and yields one item. A block frame comes back as read —
// CRC unchecked, payload undecoded — and a footer frame comes back parsed,
// with the trailer magic already checked. Lenient damage becomes a skip
// item, and running out of bytes ends a lenient walk with an eof item; any
// other failure is an error item. next must not be called after an item
// for which last reports true.
func (w *frameWalker) next() frameItem {
	marker := w.marker
	w.marker = ""
	if marker == "" {
		m, skipped, err := scanMarker(w.cr, w.lenient)
		if err != nil {
			if w.lenient && errors.Is(err, ErrTruncated) {
				return frameItem{kind: frameEOF}
			}
			return frameItem{kind: frameErr, err: err}
		}
		if skipped > 0 {
			w.marker = m
			return frameItem{kind: frameSkip, skipBytes: skipped}
		}
		marker = m
	}
	frameStart := w.cr.n - 4 // marker already consumed
	var it frameItem
	var err error
	if marker == countMarker {
		it.kind = frameFooter
		if it.footer, err = readFooterFrame(w.cr, w.numStatic); err == nil {
			it.trailerErr = readTrailerMagic(w.cr)
		}
	} else {
		it.kind = frameBlock
		it.bf, err = readBlockFrame(w.cr, marker == blockMarkerC)
	}
	if err == nil {
		return it
	}
	if w.lenient && recoverableKind(err) {
		return frameItem{kind: frameSkip, skipBytes: w.cr.n - frameStart}
	}
	return frameItem{kind: frameErr, err: err}
}

// scanMarker reads the next 4-byte frame marker. In strict mode anything
// else is malformed; in lenient mode the stream is scanned byte-by-byte
// until a marker appears, returning how many bytes were discarded. Read
// failures come back classified by ioErr (end-of-stream as ErrTruncated).
func scanMarker(cr *countingReader, lenient bool) (string, int64, error) {
	var win [4]byte
	off := cr.n
	if _, err := io.ReadFull(cr, win[:]); err != nil {
		return "", 0, ioErr(cr.n, err, "reading frame marker")
	}
	skipped := int64(0)
	for {
		m := string(win[:])
		if m == blockMarker || m == blockMarkerC || m == countMarker {
			return m, skipped, nil
		}
		if !lenient {
			return "", 0, formatErr(off, ErrMalformed, "bad frame marker %q", win)
		}
		b, err := cr.ReadByte()
		if err != nil {
			return "", 0, ioErr(cr.n, err, "resynchronising")
		}
		copy(win[:], win[1:])
		win[3] = b
		skipped++
	}
}

// blockFrame is one framed v2 event block as read off the stream, before
// CRC verification, decompression, or event decoding.
type blockFrame struct {
	frameOff   int64  // stream offset of the frame marker
	payloadOff int64  // stream offset of the first stored payload byte
	count      uint64 // declared event count
	crc        uint32 // declared CRC32C of the stored payload
	codec      Codec  // how the payload is stored (CodecNone for "BLK2")
	ulen       int    // declared uncompressed payload length
	payload    []byte // stored (possibly compressed) payload bytes
}

// frameLen is the whole frame's size in bytes, marker through payload.
func (bf *blockFrame) frameLen() int64 {
	return bf.payloadOff + int64(len(bf.payload)) - bf.frameOff
}

// readBlockFrame reads a block frame's codec flag, lengths, checksum
// field, and stored payload; the marker is already consumed (compressed
// reports which of the two block markers it was). The CRC is not verified
// and the payload not decompressed here: that, and event decoding, is
// decodeBlockFrame's work, which a ParallelReader farms out to workers.
//
// Every length is validated against maxBlockLen before any allocation —
// critically the declared *uncompressed* length, so a hostile frame
// cannot claim a huge post-inflate size — and the event count is checked
// as count > len/minEventLen (division, not multiplication, so an
// extreme count cannot wrap the check and drive a giant event-slice
// allocation downstream).
func readBlockFrame(cr *countingReader, compressed bool) (blockFrame, error) {
	bf := blockFrame{frameOff: cr.n - 4}
	if compressed {
		codec, err := cr.ReadByte()
		if err != nil {
			return bf, ioErr(cr.n, err, "reading block codec")
		}
		if Codec(codec) >= numCodecs {
			return bf, formatErr(bf.frameOff, ErrMalformed, "unknown block codec %d", codec)
		}
		bf.codec = Codec(codec)
	}
	ulen, err := readUvarint(cr, "block length")
	if err != nil {
		return bf, err
	}
	if ulen == 0 || ulen > maxBlockLen {
		return bf, formatErr(bf.frameOff, ErrMalformed, "block length %d out of range", ulen)
	}
	bf.ulen = int(ulen)
	count, err := readUvarint(cr, "block event count")
	if err != nil {
		return bf, err
	}
	if count == 0 || count > ulen/minEventLen {
		return bf, formatErr(bf.frameOff, ErrMalformed, "block event count %d impossible for %d bytes", count, ulen)
	}
	plen := ulen
	if compressed {
		clen, err := readUvarint(cr, "block stored length")
		if err != nil {
			return bf, err
		}
		if clen == 0 || clen > ulen || (bf.codec == CodecNone && clen != ulen) {
			return bf, formatErr(bf.frameOff, ErrMalformed, "block stored length %d impossible for %d uncompressed bytes (codec %s)", clen, ulen, bf.codec)
		}
		plen = clen
	}
	crc, err := readCRC(cr, "block")
	if err != nil {
		return bf, err
	}
	payload, err := readPayloadPooled(cr, int(plen))
	if err != nil {
		return bf, err
	}
	bf.count, bf.crc, bf.payload = count, crc, payload
	bf.payloadOff = cr.n - int64(len(payload))
	return bf, nil
}

// blockResult is one block frame's decoded events and accounting.
type blockResult struct {
	events []Event
	// err is the terminal error a strict reader reports after delivering
	// events; always nil in lenient mode, where in-block damage becomes
	// skip accounting instead.
	err error
	// blocks is 1 when the payload was CRC-clean (Stats.Blocks).
	blocks uint64
	// compressed is 1 when the payload was stored compressed
	// (Stats.BlocksCompressed).
	compressed uint64
	// blocksSkipped/bytesSkipped carry lenient damage accounting.
	blocksSkipped uint64
	bytesSkipped  int64
}

// decodeBlockFrame CRC-checks, decompresses, and decodes one block frame;
// it is the only v2 event decoder. In strict mode the first damage is an
// error after the cleanly decoded prefix (a block with trailing junk
// withholds its final event); in lenient mode damage becomes skip
// accounting and every clean event is delivered. The frame's payload
// buffer is recycled before returning.
func decodeBlockFrame(bf blockFrame, numStatic int, lenient bool) blockResult {
	defer putPayloadBuf(bf.payload)
	var r blockResult
	if crc32.Checksum(bf.payload, castagnoli) != bf.crc {
		if lenient {
			r.blocksSkipped = 1
			r.bytesSkipped = bf.frameLen()
		} else {
			r.err = formatErr(bf.frameOff, ErrChecksum, "block checksum")
		}
		return r
	}
	payload := bf.payload
	if bf.codec != CodecNone {
		inflated, err := expandBlock(&bf)
		if err != nil {
			if lenient {
				r.blocksSkipped = 1
				r.bytesSkipped = bf.frameLen()
			} else {
				r.err = err
			}
			return r
		}
		payload = inflated
		defer putPayloadBuf(inflated)
		r.compressed = 1
	}
	r.blocks = 1
	r.events = getEventSlice(int(bf.count))
	off := 0
	for left := bf.count; left > 0; left-- {
		var e Event
		if err := decodeEventBuf(payload, &off, &e, numStatic); err != nil {
			werr := formatErr(bf.payloadOff+int64(off), ErrMalformed, "%v", err)
			if lenient {
				r.blocksSkipped = 1
				r.bytesSkipped = int64(len(payload) - off)
			} else {
				r.err = werr
			}
			return r
		}
		if left == 1 && off != len(payload) {
			// Count and payload disagree; the delivered events were
			// CRC-clean, but the block is damaged.
			junk := formatErr(bf.payloadOff+int64(off), ErrMalformed,
				"%d trailing bytes in block", len(payload)-off)
			if lenient {
				r.events = append(r.events, e)
				r.blocksSkipped = 1
				r.bytesSkipped = int64(len(payload) - off)
			} else {
				r.err = junk
			}
			return r
		}
		r.events = append(r.events, e)
	}
	return r
}

// footerFrame is the parsed v2 static-count footer.
type footerFrame struct {
	frameOff int64    // stream offset of the frame marker
	total    uint64   // declared total event count
	counts   []uint64 // per-PC execution counts
}

// readFooterFrame reads and CRC-verifies the footer frame after its
// marker, parsing the declared event total and static counts. The trailing
// stream magic and the strict declared-vs-delivered check are left to the
// caller (they depend on reader state).
func readFooterFrame(cr *countingReader, numStatic int) (footerFrame, error) {
	ff := footerFrame{frameOff: cr.n - 4}
	plen, err := readUvarint(cr, "footer length")
	if err != nil {
		return ff, err
	}
	// Total events varint plus one varint per static instruction.
	maxFooter := uint64(binary.MaxVarintLen64) * uint64(numStatic+1)
	if plen > maxFooter {
		return ff, formatErr(ff.frameOff, ErrMalformed, "footer length %d out of range", plen)
	}
	want, err := readCRC(cr, "footer")
	if err != nil {
		return ff, err
	}
	payload, err := readPayload(cr, int(plen), "footer")
	if err != nil {
		return ff, err
	}
	if crc32.Checksum(payload, castagnoli) != want {
		return ff, formatErr(ff.frameOff, ErrChecksum, "footer checksum")
	}
	off := 0
	total, uerr := bufUvarint(payload, &off)
	if uerr != nil {
		return ff, formatErr(ff.frameOff, ErrMalformed, "bad footer event count")
	}
	counts := make([]uint64, 0, min(numStatic, 4096))
	for i := 0; i < numStatic; i++ {
		c, uerr := bufUvarint(payload, &off)
		if uerr != nil {
			return ff, formatErr(ff.frameOff, ErrMalformed, "bad static count %d", i)
		}
		counts = append(counts, c)
	}
	if off != len(payload) {
		return ff, formatErr(ff.frameOff, ErrMalformed, "%d trailing footer bytes", len(payload)-off)
	}
	ff.total, ff.counts = total, counts
	return ff, nil
}

// readTrailerMagic consumes the end-of-stream magic that follows the
// footer frame.
func readTrailerMagic(cr *countingReader) error {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(cr, magic); err != nil {
		return ioErr(cr.n, err, "reading trailer magic")
	}
	if string(magic) != footerMagic {
		return formatErr(cr.n-4, ErrMalformed, "bad trailer magic %q", magic)
	}
	return nil
}

// fill makes an event current in the block cursor, advancing past
// exhausted blocks; it fails with the current block's terminal error, a
// fold failure, or io.EOF.
func (tr *Reader) fill() error {
	for tr.curIdx >= len(tr.cur.events) {
		if tr.cur.err != nil {
			return tr.fail(tr.cur.err)
		}
		if err := tr.advance(); err != nil {
			return err
		}
	}
	return nil
}

// advance is the accounting fold both readers share. It pulls frame-walk
// items in stream order and folds them into Stats until a decoded block is
// current (nil), the stream ends (io.EOF: the footer's counts are kept, or
// a lenient stream ran out early), or a terminal error occurs (recorded by
// fail). It is called only with the current block exhausted and
// error-free.
func (tr *Reader) advance() error {
	if tr.cur.events != nil && !tr.curHandedOff {
		putEventSlice(tr.cur.events)
	}
	tr.cur, tr.curIdx, tr.curHandedOff = blockResult{}, 0, false
	for {
		// Per-frame cancellation probe: checking before the pull keeps
		// cancellation deterministic (a ready item never races a done
		// context).
		if tr.ctx != nil && tr.ctx.Err() != nil {
			return tr.fail(canceledErr(tr.ctx))
		}
		it, err := tr.pull()
		if err != nil {
			return tr.fail(err)
		}
		switch it.kind {
		case frameBlock:
			r := it.block
			tr.stats.Blocks += r.blocks
			tr.stats.BlocksCompressed += r.compressed
			tr.stats.BlocksSkipped += r.blocksSkipped
			tr.stats.BytesSkipped += r.bytesSkipped
			tr.cur = r
			return nil
		case frameSkip:
			tr.stats.BlocksSkipped++
			tr.stats.BytesSkipped += it.skipBytes
		case frameFooter:
			tr.stats.EventsDeclared = it.footer.total
			if !tr.lenient && it.footer.total != tr.stats.Events {
				return tr.fail(formatErr(it.footer.frameOff, ErrMalformed,
					"footer declares %d events, stream has %d", it.footer.total, tr.stats.Events))
			}
			if it.trailerErr != nil {
				if !tr.lenient {
					return tr.fail(it.trailerErr)
				}
				// The counts themselves were CRC-clean; keep them but note
				// the missing trailer.
				tr.stats.Truncated = true
			}
			tr.counts = it.footer.counts
			return tr.end()
		case frameEOF:
			tr.stats.Truncated = true
			tr.stats.FooterLost = true
			return tr.end()
		default: // frameErr
			return tr.fail(it.err)
		}
	}
}

// pull yields the next frame-walk item with any block already decoded:
// stepped and decoded inline, or received from a ParallelReader pipeline.
func (tr *Reader) pull() (frameItem, error) {
	if tr.pipe != nil {
		return tr.pipe.next(tr.ctx)
	}
	it := tr.walk.next()
	if it.kind == frameBlock {
		it.block = decodeBlockFrame(it.bf, tr.numStatic, tr.lenient)
	}
	return it, nil
}

// decodeEventBuf decodes one event record from buf at *off.
func decodeEventBuf(buf []byte, off *int, e *Event, numStatic int) error {
	if *off >= len(buf) {
		return errors.New("event record past end of block")
	}
	op := isa.Op(buf[*off])
	*off++
	pc, err := bufUvarint(buf, off)
	if err != nil {
		return errors.New("bad pc varint")
	}
	if *off >= len(buf) {
		return errors.New("flags past end of block")
	}
	flags := buf[*off]
	*off++
	*e = Event{PC: uint32(pc), Op: op, NSrc: flags & flagNSrcMask, DstReg: isa.NoReg,
		Taken: flags&flagTaken != 0, HasImm: flags&flagImm != 0}
	for i := uint8(0); i < e.NSrc && i < 2; i++ {
		if *off >= len(buf) {
			return errors.New("src reg past end of block")
		}
		e.SrcReg[i] = buf[*off]
		*off++
		val, err := bufUvarint(buf, off)
		if err != nil {
			return errors.New("bad src val varint")
		}
		e.SrcVal[i] = uint32(val)
	}
	if flags&flagDst != 0 {
		if *off >= len(buf) {
			return errors.New("dst reg past end of block")
		}
		e.DstReg = buf[*off]
		*off++
		val, err := bufUvarint(buf, off)
		if err != nil {
			return errors.New("bad dst val varint")
		}
		e.DstVal = uint32(val)
	}
	if flags&flagMem != 0 {
		addr, err := bufUvarint(buf, off)
		if err != nil {
			return errors.New("bad mem addr varint")
		}
		val, err := bufUvarint(buf, off)
		if err != nil {
			return errors.New("bad mem val varint")
		}
		e.Addr = uint32(addr)
		e.MemVal = uint32(val)
	}
	return checkEvent(e, numStatic)
}

// --- whole-stream helpers ------------------------------------------------

// drain consumes every event from tr into a Trace (without counts).
func drain(tr *Reader) (*Trace, error) {
	t := &Trace{Name: tr.Name(), NumStatic: tr.NumStatic()}
	var e Event
	for {
		err := tr.Next(&e)
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return t, err
		}
		t.Events = append(t.Events, e)
	}
}

// rebuildCounts reconstructs per-PC execution counts from the events
// themselves (used when the footer is missing or untrustworthy).
func rebuildCounts(t *Trace) []uint64 {
	counts := make([]uint64, t.NumStatic)
	for i := range t.Events {
		if int(t.Events[i].PC) < len(counts) {
			counts[t.Events[i].PC]++
		}
	}
	return counts
}

// ReadAll decodes an entire stream into an in-memory Trace. If the stream
// is truncated (missing footer), the recovered prefix is returned together
// with an error matching ErrTruncated — the prefix decoded cleanly and its
// StaticCount is rebuilt from the recovered events.
func ReadAll(r io.Reader) (*Trace, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	t, err := drain(tr)
	if err != nil {
		if errors.Is(err, ErrTruncated) {
			t.StaticCount = rebuildCounts(t)
			return t, err
		}
		return nil, err
	}
	t.StaticCount = tr.StaticCounts()
	return t, nil
}

// ReadAllLenient decodes a possibly damaged stream, recovering whatever
// events survive and summarising the damage in Stats. The error is non-nil
// only for failures recovery cannot help with: an unreadable header or an
// underlying I/O error. When the footer survived, StaticCount carries the
// producer's true execution counts (which may exceed what the recovered
// events replay); when it was lost, counts are rebuilt from the events.
func ReadAllLenient(r io.Reader) (*Trace, Stats, error) {
	tr, err := NewReader(r, Lenient())
	if err != nil {
		return nil, Stats{}, err
	}
	t, err := drain(tr)
	if counts := tr.StaticCounts(); counts != nil {
		t.StaticCount = counts
	} else {
		t.StaticCount = rebuildCounts(t)
	}
	return t, tr.Stats(), err
}

// ReadFile loads a trace file written by WriteFile or cmd/tracegen.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadAll(f)
}

// ReadFileLenient loads a possibly damaged trace file in recovery mode.
func ReadFileLenient(path string) (*Trace, Stats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, Stats{}, err
	}
	defer f.Close()
	return ReadAllLenient(f)
}

// WriteFile stores a trace to path in the current format version.
func WriteFile(path string, t *Trace, opts ...WriteOption) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteAll(f, t, opts...); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
