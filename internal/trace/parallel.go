package trace

import (
	"context"
	"errors"
	"io"
	"runtime"
	"sync"
)

// This file runs the v2 decode path (decode.go) concurrently. The framed
// trace format was designed for exactly this: blocks are self-delimited
// and independently checksummed, so their expensive work (CRC
// verification, decompression and event decoding) can run in parallel
// while a single splitter goroutine steps the frame walk in stream order.
//
//	splitter ──jobs──▶ worker pool ──(per-block result chans)──▶ consumer
//	    └───────────── in-order item stream ──────────────────────┘
//
// The splitter steps the same frameWalker a Reader steps inline, hands
// each block frame to a bounded worker pool running decodeBlockFrame, and
// forwards every walk item in stream order. Each block item carries a
// one-buffered result channel its worker fills; the consumer's fold
// (Reader.advance) receives items in stream order and waits on each
// block's channel, which re-establishes the original event order no
// matter how workers finish. Because result channels are buffered,
// workers never block on a slow or departed consumer; backpressure comes
// from the bounded jobs and item channels, which also bounds memory to
// O(workers) blocks.
//
// Walk, block decoder and fold are the Reader's own, so the error contract
// is the Reader's by construction: the first failure in stream order is
// reported in strict mode, lenient mode skips damage with the same Stats
// accounting, and errors carry the same types, offsets and messages. The
// differential tests in parallel_test.go check the scheduling: that
// concurrency and reassembly change nothing.

// pjob is one block frame handed to the worker pool.
type pjob struct {
	bf  blockFrame
	res chan blockResult // buffered(1): the worker's send never blocks
}

// pitem is one entry of the in-order item stream: a frame-walk item, plus
// for a block the channel its decoded result arrives on.
type pitem struct {
	it  frameItem
	res chan blockResult
}

// pipeline is the channel plumbing between a ParallelReader's splitter
// and its Reader's fold.
type pipeline struct {
	items chan pitem
	quit  chan struct{}
	stop  sync.Once
}

// ParallelReader decodes a v2 trace stream with a pool of concurrent
// block decoders behind the same streaming interface as Reader. It runs
// the Reader's own frame walk, block decoder and accounting fold, only
// scheduled across goroutines, so it yields the same events, Stats and
// typed errors at the same offsets.
//
// With Workers(1) there is no pipeline: the blocks are decoded inline, as
// a Reader does, and NextBlock hands off each decoded block. Version-1
// streams have no block framing and are decoded sequentially.
//
// A ParallelReader is not safe for concurrent use; one goroutine should
// own it. A consumer that stops before io.EOF must call Close to release
// the decode pipeline.
type ParallelReader struct {
	r *Reader // header, Stats, block cursor and fold
	// blockSeq numbers delivered blocks in stream order (Block.Index).
	blockSeq uint64
}

// NewParallelReader parses the stream header and, for v2 streams, starts
// the decode pipeline. Workers(n) bounds the pool; Workers(0) — the
// default — uses runtime.GOMAXPROCS(0).
func NewParallelReader(r io.Reader, opts ...ReaderOption) (*ParallelReader, error) {
	var cfg readerConfig
	for _, o := range opts {
		o(&cfg)
	}
	tr, err := NewReader(r, opts...)
	if err != nil {
		return nil, err
	}
	workers := cfg.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if tr.version == Version2 && workers > 1 {
		// The item stream buffers two items per worker and the job queue one
		// frame per worker, so the splitter can keep every worker busy while
		// the consumer is still on an earlier block; both bounds cap memory at
		// O(workers) blocks.
		pipe := &pipeline{items: make(chan pitem, 2*workers), quit: make(chan struct{})}
		jobs := make(chan pjob, workers)
		for i := 0; i < workers; i++ {
			go decodeWorker(jobs, tr.numStatic, tr.lenient)
		}
		go pipe.split(&tr.walk, jobs)
		tr.pipe = pipe
	}
	return &ParallelReader{r: tr}, nil
}

// decodeWorker drains the job channel until it closes. Sends never block
// (result channels are buffered), so a worker can always run to
// completion once the splitter stops producing.
func decodeWorker(jobs <-chan pjob, numStatic int, lenient bool) {
	for j := range jobs {
		j.res <- decodeBlockFrame(j.bf, numStatic, lenient)
	}
}

// split is the splitter: it steps the frame walk, dispatches block frames
// to the worker pool, and forwards every item in stream order. It stops
// after the walk's last item, or once the consumer has quit.
func (p *pipeline) split(w *frameWalker, jobs chan<- pjob) {
	defer close(jobs)
	for {
		it := w.next()
		var res chan blockResult
		if it.kind == frameBlock {
			res = make(chan blockResult, 1)
			select {
			case jobs <- pjob{bf: it.bf, res: res}:
			case <-p.quit:
				return
			}
			it.bf = blockFrame{} // the worker owns the payload now
		}
		if !p.emit(pitem{it: it, res: res}) || it.last() {
			return
		}
	}
}

// emit forwards one in-order item, reporting false once the consumer has
// abandoned the stream.
func (p *pipeline) emit(pi pitem) bool {
	select {
	case p.items <- pi:
		return true
	case <-p.quit:
		return false
	}
}

// next receives the next in-order item, with a block item's decoded
// result. Cancellation of ctx interrupts the wait, so a consumer stuck
// behind a stalled source regains control the moment its deadline fires.
func (p *pipeline) next(ctx context.Context) (frameItem, error) {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case pi := <-p.items:
		if pi.res != nil {
			pi.it.block = <-pi.res
		}
		return pi.it, nil
	case <-done:
		return frameItem{}, canceledErr(ctx)
	}
}

// shutdown signals the splitter and workers to drain and exit. It is a
// no-op on a nil pipeline.
func (p *pipeline) shutdown() {
	if p != nil {
		p.stop.Do(func() { close(p.quit) })
	}
}

// Next decodes the next event into e, in original stream order, with
// Reader.Next's contract: io.EOF ends the stream (after which StaticCounts
// is available), strict mode fails sticky on the first structural problem
// in stream order, and lenient mode records skipped damage in Stats.
func (p *ParallelReader) Next(e *Event) error { return p.r.Next(e) }

// Close releases the decode pipeline without reading to io.EOF: the
// splitter and workers drain and exit, and later reads fail. It is safe to
// call at any point (including after EOF or an error, where it is a
// no-op) and is idempotent. Close does not interrupt a Read already in
// flight on the underlying reader. Without a pipeline it does nothing.
func (p *ParallelReader) Close() error {
	tr := p.r
	if tr.pipe == nil {
		return nil
	}
	tr.pipe.shutdown()
	if tr.sticky == nil && !tr.done {
		tr.sticky = errors.New("trace: parallel reader closed")
	}
	return nil
}

// Name returns the workload name from the header.
func (p *ParallelReader) Name() string { return p.r.name }

// NumStatic returns the static program length from the header.
func (p *ParallelReader) NumStatic() int { return p.r.numStatic }

// Version returns the negotiated format version.
func (p *ParallelReader) Version() int { return p.r.version }

// Stats returns the progress and damage summary; the final snapshot
// (after Next has returned io.EOF or an error) matches the sequential
// reader's exactly.
func (p *ParallelReader) Stats() Stats { return p.r.stats }

// StaticCounts returns the per-PC execution counts; valid only after Next
// has returned io.EOF, and nil if the footer was lost in lenient mode.
func (p *ParallelReader) StaticCounts() []uint64 { return p.r.counts }

// ParallelReadAll decodes an entire stream through the parallel decoder.
// Strict mode mirrors ReadAll (a truncated stream returns the recovered
// prefix together with an error matching ErrTruncated); with Lenient()
// it mirrors ReadAllLenient (damage is skipped and summarised in Stats).
func ParallelReadAll(r io.Reader, opts ...ReaderOption) (*Trace, Stats, error) {
	pr, err := NewParallelReader(r, opts...)
	if err != nil {
		return nil, Stats{}, err
	}
	defer pr.Close()
	t := &Trace{Name: pr.Name(), NumStatic: pr.NumStatic()}
	var e Event
	var nerr error
	for {
		nerr = pr.Next(&e)
		if nerr != nil {
			break
		}
		t.Events = append(t.Events, e)
	}
	stats := pr.Stats()
	if nerr != io.EOF {
		if errors.Is(nerr, ErrTruncated) {
			t.StaticCount = rebuildCounts(t)
			return t, stats, nerr
		}
		return nil, stats, nerr
	}
	if counts := pr.StaticCounts(); counts != nil {
		t.StaticCount = counts
	} else {
		t.StaticCount = rebuildCounts(t)
	}
	return t, stats, nil
}
