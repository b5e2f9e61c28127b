package trace

import (
	"io"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file exposes the parallel reader's per-block decoded batches.
// Order-insensitive consumers (the model's shardable pre-pass) take whole
// blocks concurrently via ForEachBlock, and in-order consumers (the
// observer fan-out) take them one at a time via NextBlock, instead of
// paying for the event-by-event copy of Next. Both views drain the same
// block cursor, so Stats, error contracts, and StaticCounts behave
// identically.

// Block is one contiguous in-order run of decoded events. Index is the
// block's position in stream order among delivered blocks (0, 1, 2, …), so
// consumers that shard blocks across workers can still order first-touch
// style discoveries globally.
type Block struct {
	Index  uint64
	Events []Event
}

// seqBlockEvents sizes the synthetic blocks NextBlock produces from a v1
// stream, which has no block framing of its own.
const seqBlockEvents = 4096

// NextBlock decodes the next event block into b, in stream order. The
// error contract is Next's: io.EOF ends the stream (after which
// StaticCounts is available), strict mode fails sticky on the first
// structural problem in stream order — after delivering any cleanly
// decoded prefix of the damaged block — and lenient mode records skipped
// damage in Stats. A v2 block is the decoded frame itself, handed off
// whether it was decoded by the worker pool or, under Workers(1), inline.
//
// Ownership of b.Events transfers to the caller; the reader never reuses
// the slice afterwards. NextBlock and Next may be mixed: NextBlock
// delivers whatever remains of a block partially consumed by Next.
func (p *ParallelReader) NextBlock(b *Block) error {
	tr := p.r
	if tr.version == Version1 {
		return p.nextBlockSeq(b)
	}
	if tr.sticky != nil {
		return tr.sticky
	}
	if tr.done {
		return io.EOF
	}
	if err := tr.fill(); err != nil {
		return err
	}
	b.Index = p.blockSeq
	b.Events = tr.cur.events[tr.curIdx:]
	p.blockSeq++
	tr.stats.Events += uint64(len(b.Events))
	tr.curIdx = len(tr.cur.events)
	tr.curHandedOff = true
	return nil
}

// nextBlockSeq chunks a v1 stream's events into synthetic blocks, so block
// consumers work identically on both format versions. A decode error after
// a non-empty prefix delivers the prefix now; the (sticky) error
// resurfaces on the next call.
func (p *ParallelReader) nextBlockSeq(b *Block) error {
	events := getEventSlice(seqBlockEvents)
	for len(events) < seqBlockEvents {
		var e Event
		err := p.r.Next(&e)
		if err != nil {
			if len(events) == 0 {
				putEventSlice(events)
				return err
			}
			break
		}
		events = append(events, e)
	}
	b.Index = p.blockSeq
	b.Events = events
	p.blockSeq++
	return nil
}

// ReleaseBlock returns a block obtained from NextBlock to the reader's
// event-slice pool. NextBlock transfers slice ownership to the caller and
// never reuses it, so without release every delivered block costs a fresh
// allocation; a consumer that is finished with b.Events before asking for
// the next block can hand the buffer back and keep the whole sweep at
// O(block · workers) allocation, the way ForEachBlock recycles internally.
// After ReleaseBlock, b.Events must not be touched (the slice may be
// reused for a future block at any time). Releasing a block is optional
// and only ever a performance matter.
func (p *ParallelReader) ReleaseBlock(b *Block) {
	if b.Events != nil {
		putEventSlice(b.Events)
		b.Events = nil
	}
}

// ForEachBlock drains the whole stream, delivering decoded blocks to fn
// from a pool of consumer goroutines. workers <= 0 uses all cores. Blocks
// are dispatched in stream order through one FIFO channel, so each worker
// sees its own subset of blocks in increasing Index order — the invariant
// shardable passes rely on for exact first-touch merging. Globally, blocks
// reach different workers concurrently and complete in any order.
//
// b and b.Events are valid only until fn returns; the buffers are recycled
// afterwards. fn must be safe for concurrent calls with distinct worker
// numbers (0 ≤ worker < workers). The first error — from fn, in arbitrary
// order, or from decoding, in stream order — stops the sweep and is
// returned; on success ForEachBlock returns nil after io.EOF, with Stats
// and StaticCounts final.
func (p *ParallelReader) ForEachBlock(workers int, fn func(worker int, b *Block) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ch := make(chan Block, workers)
	var (
		wg       sync.WaitGroup
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
	)
	setErr := func(err error) {
		errOnce.Do(func() { firstErr = err })
		failed.Store(true)
	}
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := range ch {
				if failed.Load() {
					putEventSlice(b.Events)
					continue
				}
				if err := fn(w, &b); err != nil {
					setErr(err)
					continue // fn may retain on error; don't recycle
				}
				putEventSlice(b.Events)
			}
		}(i)
	}
	var readErr error
	for !failed.Load() {
		var b Block
		err := p.NextBlock(&b)
		if err == io.EOF {
			break
		}
		if err != nil {
			readErr = err
			break
		}
		ch <- b
	}
	close(ch)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return readErr
}

// --- buffer pools ---------------------------------------------------------
//
// The v2 decode path's two hot allocations — the raw block payload the
// frame walk reads and the decoded event slice decodeBlockFrame produces —
// both have bounded, well-defined lifetimes, so they recycle through
// sync.Pools: payloads return to the pool as soon as the block is decoded,
// and event slices return once the consumer (Next's cursor, or
// ForEachBlock after fn) has fully handed them off. Slices that escape to
// callers (NextBlock) are recycled only through ReleaseBlock.

var payloadPool sync.Pool

// getPayloadBuf returns an empty byte buffer, reusing pooled capacity.
func getPayloadBuf(capHint int) []byte {
	if v := payloadPool.Get(); v != nil {
		buf := (*v.(*[]byte))[:0]
		if cap(buf) >= capHint {
			return buf
		}
	}
	return make([]byte, 0, capHint)
}

// putPayloadBuf recycles a payload buffer once nothing references it.
func putPayloadBuf(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	payloadPool.Put(&buf)
}

var eventPool sync.Pool

// getEventSlice returns an empty event slice with at least the hinted
// capacity, reusing pooled backing arrays when large enough.
func getEventSlice(capHint int) []Event {
	if v := eventPool.Get(); v != nil {
		s := (*v.(*[]Event))[:0]
		if cap(s) >= capHint {
			return s
		}
	}
	return make([]Event, 0, capHint)
}

// putEventSlice recycles a decoded event slice once nothing references it.
func putEventSlice(s []Event) {
	if cap(s) == 0 {
		return
	}
	eventPool.Put(&s)
}
