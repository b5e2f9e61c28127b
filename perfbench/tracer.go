package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one job share Job; Parent
// names the span that caused this one (0 for a job's root span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory; write dumps them once the run is over.
// It is safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(job, parent int, name string) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Job: job, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span named name.
func (t *tracer) do(job, parent int, name string, fn func() error) error {
	id := t.begin(job, parent, name)
	defer t.end(id)
	return fn()
}

// record adds a span whose interval was measured elsewhere (a server
// stage read from /metrics), placed at start within its parent.
func (t *tracer) record(job, parent int, name string, start time.Time, d time.Duration) {
	s := start.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Job: job, Name: name, Start: s, End: s + d.Nanoseconds()})
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as JSON to path.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time, keyed by span id: its duration
// minus the part of its interval that its children cover. Overlapping
// children (a fan-out) are merged first, so concurrent work is not
// subtracted twice.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		default:
			curHi = max(curHi, v.hi)
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// layerSelf sums the self times of every non-root span, by span name: the
// per-layer breakdown of the traced jobs. Root spans (the jobs themselves)
// are left out; their self time is work no layer span accounts for.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			out[s.Name] += self[s.ID]
		}
	}
	return out
}

// closure compares the summed layer self times of a traced replay with the
// untraced wall time of the same jobs. width is how many layer calls a job
// runs at once (a directory fan-out's worker count), so that summed
// concurrent self time is set against width × wall. 1.0 means the layers
// account for the whole job; a missing layer shows as a shortfall.
func closure(layers map[string]time.Duration, untraced time.Duration, width int) float64 {
	var sum time.Duration
	for _, d := range layers {
		sum += d
	}
	return frac(float64(sum), float64(width)*float64(untraced))
}
