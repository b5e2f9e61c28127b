package server

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// histogram is a fixed-bucket latency histogram (cumulative counts, like
// a Prometheus histogram, rendered with _bucket/_sum/_count lines). All
// methods are safe for concurrent use.
type histogram struct {
	bounds []time.Duration // upper bounds, ascending; an implicit +Inf follows
	counts []atomic.Uint64 // len(bounds)+1, last is the overflow bucket
	sumNS  atomic.Int64
	n      atomic.Uint64
}

// latencyBounds covers sub-millisecond cache hits through multi-second
// analysis runs.
var latencyBounds = []time.Duration{
	time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	time.Second, 2500 * time.Millisecond, 5 * time.Second, 10 * time.Second,
}

func newHistogram() *histogram {
	return &histogram{bounds: latencyBounds, counts: make([]atomic.Uint64, len(latencyBounds)+1)}
}

func (h *histogram) observe(d time.Duration) {
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sumNS.Add(int64(d))
	h.n.Add(1)
}

func (h *histogram) write(w io.Writer, name string) {
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, b.Seconds(), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, time.Duration(h.sumNS.Load()).Seconds())
	fmt.Fprintf(w, "%s_count %d\n", name, h.n.Load())
}

// Metrics is the server's observable state, exported as a plain-text
// gauge/counter dump on /metrics. Everything is atomic; there is no lock
// on the serving path.
type Metrics struct {
	// Admission and queue.
	uploads    atomic.Uint64 // uploads accepted for spooling
	rejected   atomic.Uint64 // malformed requests (method, size, predictor)
	shed       atomic.Uint64 // 429s from a full queue
	drainedReq atomic.Uint64 // 503s during drain
	inflight   atomic.Int64  // jobs currently executing
	queueDepth func() int    // live queue depth (len of the job channel)
	queueCap   int

	// Outcomes.
	jobsOK       atomic.Uint64
	jobsFailed   [5]atomic.Uint64 // indexed by kindIndex
	degradedJobs atomic.Uint64    // jobs run with degraded (shed) work
	mode         atomic.Int64     // current overload mode (0 normal, 1 degraded)
	draining     atomic.Int64     // 1 while shutting down

	// Cache.
	cacheHits    atomic.Uint64
	cacheMisses  atomic.Uint64
	coalesced    atomic.Uint64 // requests served by another request's computation
	computations atomic.Uint64 // actual core.AnalyzeFile invocations

	// Store.
	storeRetries atomic.Uint64 // transient trace-store I/O retries
	spooledBytes atomic.Uint64

	// Per-stage latency.
	spoolHist   *histogram
	queueHist   *histogram
	analyzeHist *histogram
	totalHist   *histogram
}

func newMetrics(queueDepth func() int, queueCap int) *Metrics {
	return &Metrics{
		queueDepth:  queueDepth,
		queueCap:    queueCap,
		spoolHist:   newHistogram(),
		queueHist:   newHistogram(),
		analyzeHist: newHistogram(),
		totalHist:   newHistogram(),
	}
}

// kindIndex maps a job-error kind to its counter slot.
func kindIndex(kind string) int {
	switch kind {
	case KindTrace:
		return 0
	case KindDeadline:
		return 1
	case KindCanceled:
		return 2
	case KindPanic:
		return 3
	default:
		return 4 // KindStore
	}
}

var kindNames = [5]string{KindTrace, KindDeadline, KindCanceled, KindPanic, KindStore}

func (m *Metrics) jobFailed(kind string) { m.jobsFailed[kindIndex(kind)].Add(1) }

// Computations returns how many real analyses have run — the counter the
// cache/singleflight acceptance tests verify de-duplication against.
func (m *Metrics) Computations() uint64 { return m.computations.Load() }

// CacheHits returns how many requests were answered from the result cache.
func (m *Metrics) CacheHits() uint64 { return m.cacheHits.Load() }

// Coalesced returns how many requests were served by another request's
// in-flight computation.
func (m *Metrics) Coalesced() uint64 { return m.coalesced.Load() }

// StoreRetries returns how many transient store operations were retried.
func (m *Metrics) StoreRetries() uint64 { return m.storeRetries.Load() }

// Inflight returns the number of jobs currently executing.
func (m *Metrics) Inflight() int64 { return m.inflight.Load() }

// write renders the metrics dump.
func (m *Metrics) write(w io.Writer) {
	fmt.Fprintf(w, "dpgd_queue_depth %d\n", m.queueDepth())
	fmt.Fprintf(w, "dpgd_queue_capacity %d\n", m.queueCap)
	fmt.Fprintf(w, "dpgd_inflight_jobs %d\n", m.inflight.Load())
	fmt.Fprintf(w, "dpgd_overload_mode %d\n", m.mode.Load())
	fmt.Fprintf(w, "dpgd_draining %d\n", m.draining.Load())
	fmt.Fprintf(w, "dpgd_uploads_total %d\n", m.uploads.Load())
	fmt.Fprintf(w, "dpgd_requests_rejected_total %d\n", m.rejected.Load())
	fmt.Fprintf(w, "dpgd_jobs_shed_total %d\n", m.shed.Load())
	fmt.Fprintf(w, "dpgd_requests_drained_total %d\n", m.drainedReq.Load())
	fmt.Fprintf(w, "dpgd_jobs_ok_total %d\n", m.jobsOK.Load())
	for i, name := range kindNames {
		fmt.Fprintf(w, "dpgd_jobs_failed_total{kind=%q} %d\n", name, m.jobsFailed[i].Load())
	}
	fmt.Fprintf(w, "dpgd_jobs_degraded_total %d\n", m.degradedJobs.Load())
	fmt.Fprintf(w, "dpgd_cache_hits_total %d\n", m.cacheHits.Load())
	fmt.Fprintf(w, "dpgd_cache_misses_total %d\n", m.cacheMisses.Load())
	fmt.Fprintf(w, "dpgd_requests_coalesced_total %d\n", m.coalesced.Load())
	fmt.Fprintf(w, "dpgd_computations_total %d\n", m.computations.Load())
	fmt.Fprintf(w, "dpgd_store_retries_total %d\n", m.storeRetries.Load())
	fmt.Fprintf(w, "dpgd_spooled_bytes_total %d\n", m.spooledBytes.Load())
	m.spoolHist.write(w, "dpgd_stage_spool_seconds")
	m.queueHist.write(w, "dpgd_stage_queue_wait_seconds")
	m.analyzeHist.write(w, "dpgd_stage_analyze_seconds")
	m.totalHist.write(w, "dpgd_stage_total_seconds")
}
