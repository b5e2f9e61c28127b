package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"testing"
)

// captureBlocks drains a parallel reader through NextBlock and records the
// same observable outcome as capture, plus the block index sequence — the
// material for holding the block view equal to the event view.
func captureBlocks(t *testing.T, data []byte, opts ...ReaderOption) (decodeRun, []uint64) {
	t.Helper()
	r, err := NewParallelReader(bytes.NewReader(data), opts...)
	if err != nil {
		return decodeRun{ctorErr: err.Error()}, nil
	}
	defer r.Close()
	run := decodeRun{name: r.Name(), numStatic: r.NumStatic(), version: r.Version()}
	var indices []uint64
	for i := 0; ; i++ {
		if i > 1_000_000 {
			t.Fatal("block reader failed to terminate")
		}
		var b Block
		err := r.NextBlock(&b)
		if err == io.EOF {
			break
		}
		if err != nil {
			run.finalErr = err.Error()
			run.truncated = errors.Is(err, ErrTruncated)
			run.malformed = errors.Is(err, ErrMalformed)
			run.checksum = errors.Is(err, ErrChecksum)
			break
		}
		indices = append(indices, b.Index)
		run.events = append(run.events, b.Events...)
	}
	run.stats = r.Stats()
	run.counts = r.StaticCounts()
	return run, indices
}

// TestBlockDifferentialCorpus holds the per-block view equal to the
// sequential event view over every corpus shape and worker count: same
// events in the same order, same Stats, same terminal error, same counts,
// with strictly increasing block indices.
func TestBlockDifferentialCorpus(t *testing.T) {
	corpus := encodeCorpus(t)
	for name, data := range corpus {
		for _, workers := range []int{0, 1, 2, 4} {
			for _, lenient := range []bool{false, true} {
				label := fmt.Sprintf("%s/workers=%d/lenient=%v", name, workers, lenient)
				var opts []ReaderOption
				if lenient {
					opts = append(opts, Lenient())
				}
				seq := captureSequential(t, data, opts...)
				blk, indices := captureBlocks(t, data, append(opts, Workers(workers))...)
				diffRuns(t, label, seq, blk)
				for i := 1; i < len(indices); i++ {
					if indices[i] <= indices[i-1] {
						t.Fatalf("%s: block indices not increasing: %v", label, indices)
					}
				}
			}
		}
	}
}

// TestBlockMixedWithNext interleaves Next and NextBlock on one stream:
// NextBlock must deliver exactly the remainder of a partially consumed
// block, and the concatenation must reproduce the full event sequence —
// both behind the worker pool and under Workers(1), where the inline
// decoder hands off its own decoded blocks.
func TestBlockMixedWithNext(t *testing.T) {
	data, tr := smallV2Stream(t, 64)
	for _, workers := range []int{4, 1} {
		r, err := NewParallelReader(bytes.NewReader(data), Workers(workers))
		if err != nil {
			t.Fatal(err)
		}
		var got []Event
		for i := 0; ; i++ {
			if i%2 == 0 {
				var e Event
				err := r.Next(&e)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				got = append(got, e)
				continue
			}
			var b Block
			err := r.NextBlock(&b)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			got = append(got, b.Events...)
		}
		r.Close()
		if len(got) != len(tr.Events) {
			t.Fatalf("workers=%d: mixed drain got %d events, want %d", workers, len(got), len(tr.Events))
		}
		for i := range got {
			if got[i] != tr.Events[i] {
				t.Fatalf("workers=%d: event %d differs after mixed drain", workers, i)
			}
		}
	}
}

// TestForEachBlockCoverageAndOrder fans blocks out across workers and
// asserts the two contracts shardable passes rely on: every event is
// delivered exactly once (reassembling by block index reproduces the
// stream), and each worker sees its own blocks in increasing index order.
// Events are copied inside fn, per the recycling contract.
func TestForEachBlockCoverageAndOrder(t *testing.T) {
	data, tr := smallV2Stream(t, 64)
	for _, workers := range []int{1, 2, 4, 8} {
		r, err := NewParallelReader(bytes.NewReader(data), Workers(4))
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		blocks := map[uint64][]Event{}
		lastIdx := make([]int64, workers)
		for i := range lastIdx {
			lastIdx[i] = -1
		}
		err = r.ForEachBlock(workers, func(w int, b *Block) error {
			cp := append([]Event(nil), b.Events...)
			mu.Lock()
			defer mu.Unlock()
			if int64(b.Index) <= lastIdx[w] {
				t.Errorf("workers=%d: worker %d saw index %d after %d", workers, w, b.Index, lastIdx[w])
			}
			lastIdx[w] = int64(b.Index)
			if _, dup := blocks[b.Index]; dup {
				t.Errorf("workers=%d: block %d delivered twice", workers, b.Index)
			}
			blocks[b.Index] = cp
			return nil
		})
		r.Close()
		if err != nil {
			t.Fatalf("workers=%d: ForEachBlock: %v", workers, err)
		}
		indices := make([]uint64, 0, len(blocks))
		for idx := range blocks {
			indices = append(indices, idx)
		}
		sort.Slice(indices, func(i, j int) bool { return indices[i] < indices[j] })
		var got []Event
		for _, idx := range indices {
			got = append(got, blocks[idx]...)
		}
		if len(got) != len(tr.Events) {
			t.Fatalf("workers=%d: reassembled %d events, want %d", workers, len(got), len(tr.Events))
		}
		for i := range got {
			if got[i] != tr.Events[i] {
				t.Fatalf("workers=%d: event %d differs after reassembly", workers, i)
			}
		}
		if counts := r.StaticCounts(); counts == nil {
			t.Errorf("workers=%d: StaticCounts nil after ForEachBlock", workers)
		}
	}
}

// TestForEachBlockFnError stops the sweep on the first consumer error and
// returns it.
func TestForEachBlockFnError(t *testing.T) {
	data, _ := smallV2Stream(t, 64)
	r, err := NewParallelReader(bytes.NewReader(data), Workers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	boom := errors.New("boom")
	err = r.ForEachBlock(2, func(w int, b *Block) error {
		if b.Index >= 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("ForEachBlock error = %v, want boom", err)
	}
}

// TestForEachBlockDecodeError surfaces a strict-mode decode failure with
// the sequential reader's error kind.
func TestForEachBlockDecodeError(t *testing.T) {
	data, _ := smallV2Stream(t, 64)
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0xFF // damage a block payload
	seq := captureSequential(t, bad)
	r, err := NewParallelReader(bytes.NewReader(bad), Workers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ferr := r.ForEachBlock(2, func(w int, b *Block) error { return nil })
	if ferr == nil {
		t.Fatal("damaged stream produced no error")
	}
	if seq.finalErr != "" && ferr.Error() != seq.finalErr {
		t.Fatalf("ForEachBlock error %q, sequential reader reports %q", ferr, seq.finalErr)
	}
}
