package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// traceBytes encodes one workload trace into memory for uploading.
func traceBytes(t *testing.T, name string, rounds int) []byte {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	tr, err := w.TraceRounds(rounds, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// testServer boots a server on an httptest listener. mod, if non-nil,
// adjusts the config before New.
func testServer(t *testing.T, mod func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		StoreDir:   filepath.Join(t.TempDir(), "store"),
		QueueDepth: 8,
		Workers:    2,
		JobTimeout: 30 * time.Second,
	}
	if mod != nil {
		mod(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// upload POSTs body to /analyze and decodes the response. Failures are
// reported with Errorf, not Fatalf: upload runs inside test goroutines,
// where Fatalf would silently Goexit and deadlock channel-based callers.
func upload(t *testing.T, ts *httptest.Server, query string, body io.Reader) (int, analyzeResponse, errorResponse) {
	t.Helper()
	var ok analyzeResponse
	var fail errorResponse
	resp, err := http.Post(ts.URL+"/analyze"+query, "application/octet-stream", body)
	if err != nil {
		t.Errorf("upload: %v", err)
		return -1, ok, fail
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Errorf("upload: reading body: %v", err)
		return resp.StatusCode, ok, fail
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &ok); err != nil {
			t.Errorf("bad success body %q: %v", raw, err)
		}
	} else if err := json.Unmarshal(raw, &fail); err != nil {
		t.Errorf("bad error body (status %d) %q: %v", resp.StatusCode, raw, err)
	}
	return resp.StatusCode, ok, fail
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAnalyzeHappyPath checks a streamed upload produces the same result
// as a direct core.AnalyzeFile run on the identical trace.
func TestAnalyzeHappyPath(t *testing.T) {
	_, ts := testServer(t, nil)
	data := traceBytes(t, "fig1", 10)

	status, got, _ := upload(t, ts, "?predictor=last-value", bytes.NewReader(data))
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if got.Cached || got.Coalesced {
		t.Errorf("first upload flagged cached=%v coalesced=%v", got.Cached, got.Coalesced)
	}
	if got.ModelVersion != ModelVersion {
		t.Errorf("model version %q", got.ModelVersion)
	}
	if got.SizeBytes != int64(len(data)) {
		t.Errorf("size %d, uploaded %d", got.SizeBytes, len(data))
	}

	// Reference run through the library on the same bytes.
	path := filepath.Join(t.TempDir(), "ref.dpg")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var st trace.Stats
	res, err := core.AnalyzeFile(path, core.WithKind(predictor.KindLast), core.WithTraceStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	if got.Events != st.Events || got.Blocks != st.Blocks {
		t.Errorf("events/blocks %d/%d, want %d/%d", got.Events, got.Blocks, st.Events, st.Blocks)
	}
	if got.Name != res.Name || got.Predictor != res.Predictor {
		t.Errorf("identity %q/%q, want %q/%q", got.Name, got.Predictor, res.Name, res.Predictor)
	}
}

// TestAnalyzePredictorSelection checks each predictor spelling lands on
// the right model, and an unknown one is rejected before spooling.
func TestAnalyzePredictorSelection(t *testing.T) {
	_, ts := testServer(t, nil)
	data := traceBytes(t, "fig1", 5)
	for q, want := range map[string]string{
		"?predictor=stride":  "stride",
		"?predictor=context": "context",
		"?predictor=tage":    "tage",
		"?predictor=ldbp":    "ldbp",
		"?predictor=T":       "tage",
		"?predictor=d":       "ldbp",
		"":                   "last-value",
	} {
		status, got, _ := upload(t, ts, q, bytes.NewReader(data))
		if status != http.StatusOK || got.Predictor != want {
			t.Errorf("%q: status %d predictor %q, want %q", q, status, got.Predictor, want)
		}
	}
	status, _, fail := upload(t, ts, "?predictor=oracle", bytes.NewReader(data))
	if status != http.StatusBadRequest || fail.Kind != "request" {
		t.Errorf("unknown predictor: status %d kind %q", status, fail.Kind)
	}
}

// TestAnalyzeCorruptUpload checks a malformed trace is rejected with the
// typed trace taxonomy (422, kind "trace"), not a 500.
func TestAnalyzeCorruptUpload(t *testing.T) {
	s, ts := testServer(t, nil)
	status, _, fail := upload(t, ts, "", strings.NewReader("definitely not a BLKC trace"))
	if status != 422 {
		t.Fatalf("status %d, want 422", status)
	}
	if fail.Kind != KindTrace {
		t.Fatalf("kind %q, want %q", fail.Kind, KindTrace)
	}
	// A corrupt body mid-stream (valid header, damaged payload) also lands
	// in the trace taxonomy.
	data := traceBytes(t, "fig1", 5)
	data[len(data)/2] ^= 0xFF
	status, _, fail = upload(t, ts, "", bytes.NewReader(data))
	if status != 422 || fail.Kind != KindTrace {
		t.Fatalf("mid-stream corruption: status %d kind %q", status, fail.Kind)
	}
	if n := s.Metrics().Computations(); n != 2 {
		t.Errorf("computations %d, want 2 (both corrupt jobs ran)", n)
	}
}

// TestAnalyzeCacheHit checks an identical repeat upload is served from the
// result cache without recomputation, verified by the computation counter.
func TestAnalyzeCacheHit(t *testing.T) {
	s, ts := testServer(t, nil)
	data := traceBytes(t, "fig1", 10)

	status, first, _ := upload(t, ts, "", bytes.NewReader(data))
	if status != http.StatusOK || first.Cached {
		t.Fatalf("first: status %d cached %v", status, first.Cached)
	}
	status, second, _ := upload(t, ts, "", bytes.NewReader(data))
	if status != http.StatusOK {
		t.Fatalf("second: status %d", status)
	}
	if !second.Cached {
		t.Error("second identical upload was not served from cache")
	}
	if second.Overall != first.Overall || second.Digest != first.Digest {
		t.Error("cached response differs from the computed one")
	}
	if n := s.Metrics().Computations(); n != 1 {
		t.Errorf("computations %d, want 1", n)
	}
	if n := s.Metrics().CacheHits(); n != 1 {
		t.Errorf("cache hits %d, want 1", n)
	}

	// A different predictor over the same bytes is a different cache key.
	status, third, _ := upload(t, ts, "?predictor=stride", bytes.NewReader(data))
	if status != http.StatusOK || third.Cached {
		t.Fatalf("different predictor: status %d cached %v", status, third.Cached)
	}
	if n := s.Metrics().Computations(); n != 2 {
		t.Errorf("computations after predictor change %d, want 2", n)
	}
}

// TestAnalyzeSingleflight checks concurrent identical uploads coalesce
// onto one computation.
func TestAnalyzeSingleflight(t *testing.T) {
	release := make(chan struct{})
	s, ts := testServer(t, func(c *Config) { c.Workers = 1 })
	s.beforeJob = func(j *job) {
		select {
		case <-release:
		case <-j.ctx.Done():
		}
	}
	data := traceBytes(t, "fig1", 10)

	type reply struct {
		status int
		resp   analyzeResponse
	}
	results := make(chan reply, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/analyze", "application/octet-stream", bytes.NewReader(data))
			if err != nil {
				results <- reply{status: -1}
				return
			}
			defer resp.Body.Close()
			var r reply
			r.status = resp.StatusCode
			json.NewDecoder(resp.Body).Decode(&r.resp)
			results <- r
		}()
	}
	// Hold the job until the duplicate has coalesced onto its flight.
	waitFor(t, "coalesced duplicate", func() bool { return s.Metrics().Coalesced() == 1 })
	close(release)

	var coalesced int
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("status %d", r.status)
		}
		if r.resp.Coalesced {
			coalesced++
		}
	}
	if coalesced != 1 {
		t.Errorf("%d coalesced responses, want exactly 1", coalesced)
	}
	if n := s.Metrics().Computations(); n != 1 {
		t.Errorf("computations %d, want 1", n)
	}
}

// TestAnalyzeBackpressure checks a full queue answers 429 + Retry-After
// instead of blocking or buffering.
func TestAnalyzeBackpressure(t *testing.T) {
	release := make(chan struct{})
	s, ts := testServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
	})
	s.beforeJob = func(j *job) {
		select {
		case <-release:
		case <-j.ctx.Done():
		}
	}

	// Three distinct traces: one held in the worker, one filling the
	// queue, one shed.
	a := traceBytes(t, "fig1", 5)
	b := traceBytes(t, "fig1", 6)
	c := traceBytes(t, "fig1", 7)

	done := make(chan int, 2)
	go func() { st, _, _ := upload(t, ts, "", bytes.NewReader(a)); done <- st }()
	waitFor(t, "job a running", func() bool { return s.Metrics().Inflight() == 1 })
	go func() { st, _, _ := upload(t, ts, "", bytes.NewReader(b)); done <- st }()
	waitFor(t, "job b queued", func() bool { return len(s.jobs) == 1 })

	resp, err := http.Post(ts.URL+"/analyze", "application/octet-stream", bytes.NewReader(c))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var fail errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&fail); err != nil || fail.Kind != "backpressure" {
		t.Errorf("kind %q err %v, want backpressure", fail.Kind, err)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if st := <-done; st != http.StatusOK {
			t.Errorf("held upload finished with %d", st)
		}
	}
}

// TestAnalyzeDeadline checks the per-job deadline surfaces as 504 with
// kind "deadline".
func TestAnalyzeDeadline(t *testing.T) {
	s, ts := testServer(t, func(c *Config) { c.JobTimeout = 30 * time.Millisecond })
	s.beforeJob = func(j *job) { <-j.ctx.Done() }
	data := traceBytes(t, "fig1", 5)
	status, _, fail := upload(t, ts, "", bytes.NewReader(data))
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", status)
	}
	if fail.Kind != KindDeadline {
		t.Fatalf("kind %q, want %q", fail.Kind, KindDeadline)
	}
}

// TestAnalyzePanicIsolation checks a panic inside one job is contained —
// typed as kind "panic" — and the worker keeps serving.
func TestAnalyzePanicIsolation(t *testing.T) {
	var first atomic.Bool
	first.Store(true)
	s, ts := testServer(t, func(c *Config) { c.Workers = 1 })
	s.beforeJob = func(j *job) {
		if first.CompareAndSwap(true, false) {
			panic("injected fault")
		}
	}

	status, _, fail := upload(t, ts, "", bytes.NewReader(traceBytes(t, "fig1", 5)))
	if status != http.StatusInternalServerError || fail.Kind != KindPanic {
		t.Fatalf("status %d kind %q, want 500/%q", status, fail.Kind, KindPanic)
	}
	// The same worker must still be alive and able to finish a real job.
	status, got, _ := upload(t, ts, "", bytes.NewReader(traceBytes(t, "fig1", 6)))
	if status != http.StatusOK || got.Cached {
		t.Fatalf("post-panic upload: status %d", status)
	}
	if s.Metrics().Inflight() != 0 {
		t.Error("inflight gauge leaked by the panicked job")
	}
}

// TestAnalyzeDegradedMode checks queue pressure flips jobs into degraded
// mode (work shed, job kept) before the queue starts shedding jobs: a
// degraded job decodes sequentially, a normal one with DecodeWorkers.
func TestAnalyzeDegradedMode(t *testing.T) {
	release := make(chan struct{})
	s, ts := testServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 4
		c.DegradedAt = 0.5
		c.DecodeWorkers = 4 // normal mode decodes in parallel
	})
	type decision struct {
		degraded bool
		workers  int
	}
	ran := make(chan decision, 4)
	s.beforeJob = func(j *job) {
		ran <- decision{j.degraded, j.decode}
		select {
		case <-release:
		case <-j.ctx.Done():
		}
	}

	traces := [][]byte{
		traceBytes(t, "fig1", 5),
		traceBytes(t, "fig1", 6),
		traceBytes(t, "fig1", 7),
		traceBytes(t, "fig1", 8),
	}
	done := make(chan analyzeResponse, len(traces))
	// First upload occupies the worker with an empty queue (normal mode);
	// later ones pile up past DegradedAt and must run degraded.
	go func() { _, r, _ := upload(t, ts, "", bytes.NewReader(traces[0])); done <- r }()
	waitFor(t, "first job running", func() bool { return s.Metrics().Inflight() == 1 })
	for _, tb := range traces[1:] {
		tb := tb
		go func() { _, r, _ := upload(t, ts, "", bytes.NewReader(tb)); done <- r }()
	}
	waitFor(t, "queue to fill", func() bool { return len(s.jobs) == len(traces)-1 })
	close(release)

	var degraded int
	for range traces {
		if r := <-done; r.Degraded {
			degraded++
		}
	}
	if degraded == 0 {
		t.Error("no job ran degraded despite queue pressure past DegradedAt")
	}
	if s.metrics.degradedJobs.Load() == 0 {
		t.Error("degraded-jobs counter never moved")
	}
	close(ran)
	var normal int
	for d := range ran {
		switch {
		case d.degraded && d.workers != 1:
			t.Errorf("degraded job kept parallel decode: %d workers", d.workers)
		case !d.degraded && d.workers != 4:
			t.Errorf("normal job decoded with %d workers, want DecodeWorkers 4", d.workers)
		case !d.degraded:
			normal++
		}
	}
	if normal == 0 {
		t.Error("no job ran in normal mode; the first upload found an empty queue")
	}
}

// TestUploadTooLarge checks the size limit rejects with 413 before any
// job is queued.
func TestUploadTooLarge(t *testing.T) {
	s, ts := testServer(t, func(c *Config) { c.MaxUploadBytes = 64 })
	status, _, fail := upload(t, ts, "", bytes.NewReader(traceBytes(t, "fig1", 10)))
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", status)
	}
	if fail.Kind != "request" {
		t.Errorf("kind %q", fail.Kind)
	}
	if s.Metrics().Computations() != 0 {
		t.Error("oversized upload reached the analyzer")
	}
}

// TestHealthEndpoints checks /healthz, /readyz, and /metrics before and
// after a drain.
func TestHealthEndpoints(t *testing.T) {
	s, ts := testServer(t, nil)
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", ep, resp.StatusCode)
		}
	}
	// Run one job so metrics have content.
	upload(t, ts, "", bytes.NewReader(traceBytes(t, "fig1", 5)))
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"dpgd_queue_depth", "dpgd_queue_capacity", "dpgd_inflight_jobs",
		"dpgd_uploads_total 1", "dpgd_jobs_ok_total 1", "dpgd_computations_total 1",
		"dpgd_stage_analyze_seconds_count 1", "dpgd_stage_total_seconds_bucket{le=\"+Inf\"} 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("idle drain: %v", err)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz after drain: status %d, want 503", resp.StatusCode)
	}
	status, _, fail := upload(t, ts, "", bytes.NewReader(traceBytes(t, "fig1", 5)))
	if status != http.StatusServiceUnavailable || fail.Kind != "draining" {
		t.Errorf("upload after drain: status %d kind %q", status, fail.Kind)
	}
}

// TestGracefulDrain checks Shutdown lets a running job finish and reports
// a clean drain.
func TestGracefulDrain(t *testing.T) {
	gate := make(chan struct{})
	s, ts := testServer(t, func(c *Config) { c.Workers = 1 })
	s.beforeJob = func(j *job) {
		select {
		case <-gate:
		case <-j.ctx.Done():
		}
	}

	done := make(chan int, 1)
	go func() { st, _, _ := upload(t, ts, "", bytes.NewReader(traceBytes(t, "fig1", 5))); done <- st }()
	waitFor(t, "job running", func() bool { return s.Metrics().Inflight() == 1 })

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Shutdown(ctx)
	}()
	waitFor(t, "draining flag", s.isDraining)
	close(gate)

	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := <-done; st != http.StatusOK {
		t.Errorf("in-flight job during graceful drain finished with %d", st)
	}
}

// TestForcedDrain checks a drain whose deadline expires cancels the stuck
// job through its context and reports the dirty drain.
func TestForcedDrain(t *testing.T) {
	s, ts := testServer(t, func(c *Config) { c.Workers = 1 })
	s.beforeJob = func(j *job) { <-j.ctx.Done() } // wedged until cancelled

	done := make(chan errorResponse, 1)
	go func() {
		_, _, fail := upload(t, ts, "", bytes.NewReader(traceBytes(t, "fig1", 5)))
		done <- fail
	}()
	waitFor(t, "job running", func() bool { return s.Metrics().Inflight() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := s.Shutdown(ctx)
	if err == nil {
		t.Fatal("forced drain reported clean")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain error %v, want deadline cause", err)
	}
	fail := <-done
	if fail.Kind != KindCanceled && fail.Kind != KindDeadline {
		t.Errorf("cancelled job kind %q, want canceled or deadline", fail.Kind)
	}
}

// TestSpoolDedupe checks identical concurrent-era uploads share one spool
// file and the store cleans up after the last reference.
func TestSpoolDedupe(t *testing.T) {
	s, ts := testServer(t, nil)
	data := traceBytes(t, "fig1", 5)
	for i := 0; i < 3; i++ {
		if st, _, _ := upload(t, ts, "", bytes.NewReader(data)); st != http.StatusOK {
			t.Fatalf("upload %d: status %d", i, st)
		}
	}
	// The handler's reference release is deferred past the response write,
	// so poll briefly rather than racing it.
	waitFor(t, "store to empty", func() bool {
		ents, err := os.ReadDir(s.cfg.StoreDir)
		if err != nil {
			t.Fatal(err)
		}
		return len(ents) == 0
	})
}

// TestStorePermanentMiss checks a vanished spool file fails without
// burning the retry budget.
func TestStorePermanentMiss(t *testing.T) {
	st, err := newStore(t.TempDir(), 5, time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	var slept int
	st.sleep = func(time.Duration) { slept++ }
	if err := st.Probe(context.Background(), filepath.Join(t.TempDir(), "gone.dpg")); err == nil {
		t.Fatal("probe of a missing file succeeded")
	}
	if slept != 0 {
		t.Errorf("missing file was retried %d times", slept)
	}
}

// TestAnalyzeExperiments checks ?experiments= fans the requested streaming
// simulators onto the model's single decode and returns results
// byte-identical to running the simulators directly over the same events.
func TestAnalyzeExperiments(t *testing.T) {
	s, ts := testServer(t, nil)
	data := traceBytes(t, "fig1", 10)

	status, got, _ := upload(t, ts, "?experiments=reuse,ilp,confidence,speculation", bytes.NewReader(data))
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	exp := got.Experiments
	if exp == nil {
		t.Fatal("no experiments payload in response")
	}

	// Reference: the simulators run directly over the identical events
	// (default predictor is last-value).
	w, _ := workloads.ByName("fig1")
	tr, err := w.TraceRounds(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	reuse := analysis.NewReuseSim(got.Name, 16)
	ilp := analysis.NewILPSim(got.Name, predictor.KindLast)
	conf := analysis.NewConfidenceSim(predictor.KindLast, 7)
	var specs []*analysis.SpecSim
	for _, th := range []uint8{8, 0, 1, 3, 7} {
		specs = append(specs, analysis.NewSpecSim(got.Name, predictor.KindLast, analysis.SpecConfig{
			Width: 64, Threshold: th, MaxConfidence: 7, Penalty: 8,
		}))
	}
	for i := range tr.Events {
		e := &tr.Events[i]
		reuse.Observe(e)
		ilp.Observe(e)
		conf.Observe(e)
		for _, sp := range specs {
			sp.Observe(e)
		}
	}
	if exp.Reuse == nil || *exp.Reuse != reuse.Stats() {
		t.Errorf("reuse %+v, want %+v", exp.Reuse, reuse.Stats())
	}
	if exp.ILP == nil || *exp.ILP != ilp.Stats() {
		t.Errorf("ilp %+v, want %+v", exp.ILP, ilp.Stats())
	}
	if !reflect.DeepEqual(exp.Confidence, conf.Points()) {
		t.Errorf("confidence %+v, want %+v", exp.Confidence, conf.Points())
	}
	if len(exp.Speculation) != len(specs) {
		t.Fatalf("%d speculation entries, want %d", len(exp.Speculation), len(specs))
	}
	for i, sp := range specs {
		if exp.Speculation[i] != sp.Stats() {
			t.Errorf("speculation[%d] %+v, want %+v", i, exp.Speculation[i], sp.Stats())
		}
	}

	// The experiment set is part of the cache key: the same bytes without
	// experiments recompute, and a case/order/duplicate variant of the same
	// set hits the cache.
	status, plain, _ := upload(t, ts, "", bytes.NewReader(data))
	if status != http.StatusOK || plain.Cached {
		t.Fatalf("plain upload: status %d cached %v", status, plain.Cached)
	}
	if plain.Experiments != nil {
		t.Error("plain upload returned an experiments payload")
	}
	if n := s.Metrics().Computations(); n != 2 {
		t.Errorf("computations %d, want 2", n)
	}
	status, again, _ := upload(t, ts, "?experiments=ILP,speculation,reuse,confidence,ilp", bytes.NewReader(data))
	if status != http.StatusOK || !again.Cached {
		t.Fatalf("reordered set: status %d cached %v", status, again.Cached)
	}
	if !reflect.DeepEqual(again.Experiments, exp) {
		t.Error("cached experiments payload differs from the computed one")
	}
	if n := s.Metrics().Computations(); n != 2 {
		t.Errorf("computations after cached replay %d, want 2", n)
	}

	// An unknown experiment is rejected before spooling.
	status, _, fail := upload(t, ts, "?experiments=magic", bytes.NewReader(data))
	if status != http.StatusBadRequest || fail.Kind != "request" {
		t.Errorf("unknown experiment: status %d kind %q", status, fail.Kind)
	}
}
