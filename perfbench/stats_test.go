package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {1, 10}, {0.01, 1}, {0.95, 10},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of an empty sample is not NaN")
	}
}

func TestP90NeedsHundredJobs(t *testing.T) {
	xs := make([]float64, minP90Jobs-1)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := p90(xs); ok {
		t.Fatalf("p90 reported with %d jobs", len(xs))
	}
	xs = append(xs, 100)
	v, ok := p90(xs)
	if !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestPerEventNormalisation(t *testing.T) {
	// 1.5 s of CPU over 3 million events is 500 ms per million events.
	if got := perUnit(1500, 3_000_000, 1e6); got != 500 {
		t.Errorf("cpu_ms_per_mevent = %v, want 500", got)
	}
	// 2,000 allocations over 4,000 events is 500 per thousand events.
	if got := perUnit(2000, 4000, 1e3); got != 500 {
		t.Errorf("allocs_per_kevent = %v, want 500", got)
	}
	if got := nsPerEvent(2*time.Millisecond, 1000); got != 2000 {
		t.Errorf("nsPerEvent = %v, want 2000", got)
	}
	if !math.IsNaN(perUnit(1, 0, 1)) {
		t.Error("normalising by zero events is not NaN")
	}
}

const metricsText = `dpgd_queue_depth 0
dpgd_jobs_failed_total{kind="trace"} 2
dpgd_cache_hits_total 3
dpgd_stage_total_seconds_bucket{le="0.001"} 1
dpgd_stage_total_seconds_bucket{le="+Inf"} 4
dpgd_stage_total_seconds_sum 0.5
dpgd_stage_total_seconds_count 4
`

func TestParseMetrics(t *testing.T) {
	m, err := parseMetrics(strings.NewReader(metricsText))
	if err != nil {
		t.Fatal(err)
	}
	if m[`dpgd_jobs_failed_total{kind="trace"}`] != 2 || m[`dpgd_stage_total_seconds_bucket{le="+Inf"}`] != 4 {
		t.Errorf("labelled series parsed wrong: %v", m)
	}
	if got := m.histMeanMS("dpgd_stage_total_seconds"); got != 125 {
		t.Errorf("histogram mean = %v ms, want 125", got)
	}
	later, _ := parseMetrics(strings.NewReader(strings.NewReplacer(
		"_sum 0.5", "_sum 0.8", "_count 4", "_count 6", "hits_total 3", "hits_total 7").Replace(metricsText)))
	d := later.sub(m)
	if d["dpgd_cache_hits_total"] != 4 {
		t.Errorf("counter increment = %v, want 4", d["dpgd_cache_hits_total"])
	}
	if got := d.histMeanMS("dpgd_stage_total_seconds"); math.Abs(got-150) > 1e-9 {
		t.Errorf("histogram mean of the increment = %v ms, want 150", got)
	}
	if !math.IsNaN(d.histMeanMS("dpgd_stage_spool_seconds")) {
		t.Error("mean of an unobserved histogram is not NaN")
	}
	if _, err := parseMetrics(strings.NewReader("novalue\n")); err == nil {
		t.Error("malformed line accepted")
	}
}

// sp builds a span over [start, end] milliseconds.
func sp(id, parent int, name string, start, end int64) span {
	return span{ID: id, Parent: parent, Job: 1, Name: name, Start: start * 1e6, End: end * 1e6}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		sp(1, 0, "job", 0, 100),
		sp(2, 1, "decode", 10, 40),
		sp(3, 1, "model", 40, 90),
		sp(4, 3, "setup", 40, 45),
		// A child sticking out of its parent only counts inside it.
		sp(5, 2, "read", 30, 50),
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 20, 2: 20, 3: 45, 4: 5, 5: 20}
	for id, ms := range want {
		if self[id] != ms*time.Millisecond {
			t.Errorf("self(%d) = %v, want %v ms", id, self[id], ms)
		}
	}
}

func TestSelfTimesMergesConcurrentChildren(t *testing.T) {
	// Two fan-out workers overlap: the parent's covered time is their
	// union, not their sum.
	spans := []span{
		sp(1, 0, "job", 0, 100),
		sp(2, 1, "file", 0, 60),
		sp(3, 1, "file", 20, 80),
		sp(4, 1, "merge", 90, 95),
	}
	if got := selfTimes(spans)[1]; got != 15*time.Millisecond {
		t.Errorf("self(job) = %v, want 15ms", got)
	}
}

func TestClosure(t *testing.T) {
	spans := []span{
		sp(1, 0, "job", 0, 100),
		sp(2, 1, "decode", 0, 30),
		sp(3, 1, "model", 30, 90),
	}
	layers := layerSelf(spans)
	if layers["decode"] != 30*time.Millisecond || layers["model"] != 60*time.Millisecond || len(layers) != 2 {
		t.Fatalf("layerSelf = %v", layers)
	}
	// The untraced job took 100 ms; the layers account for 90 of it.
	if got := closure(layers, 100*time.Millisecond, 1); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("closure = %v, want 0.9", got)
	}
	// Two workers each busy 90 ms over a 100 ms job are 90% busy.
	if got := closure(map[string]time.Duration{"file": 180 * time.Millisecond}, 100*time.Millisecond, 2); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("closure at width 2 = %v, want 0.9", got)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := newTracer()
	root := tr.begin(1, 0, "job")
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				tr.do(1, root, "layer", func() error { return nil })
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 401 {
		t.Fatalf("%d spans, want 401", len(spans))
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %d ends before it starts", s.ID)
		}
	}
	if self := selfTimes(spans)[root]; self < 0 || self > spans[0].dur() {
		t.Errorf("root self time %v outside [0, %v]", self, spans[0].dur())
	}
}
