package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dpg"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// ModelVersion identifies the analysis semantics baked into this build.
// It is part of every cache key, so a model change (new pass, new
// classification rule) silently invalidates all previously cached results
// instead of serving stale ones.
const ModelVersion = "pv2-model-10"

// Config tunes the server. The zero value is usable: every field has a
// production default applied by New.
type Config struct {
	// StoreDir is where uploaded traces spool (content-addressed). Required.
	StoreDir string
	// QueueDepth bounds the job queue; admissions beyond it get 429.
	// Default 32.
	QueueDepth int
	// Workers is the number of concurrent analysis jobs. Default GOMAXPROCS.
	Workers int
	// JobTimeout is the per-job deadline, measured from admission.
	// Default 60s.
	JobTimeout time.Duration
	// MaxUploadBytes bounds one upload. Default 1 GiB.
	MaxUploadBytes int64
	// CacheEntries bounds the result cache. Default 256.
	CacheEntries int
	// DecodeWorkers is the parallel-decode width for normal-mode jobs.
	// Default GOMAXPROCS. Degraded mode always decodes sequentially.
	DecodeWorkers int
	// DegradedAt is the queue-fill fraction at which jobs start running in
	// degraded mode (parallel decode shed before jobs are). Default 0.5.
	DegradedAt float64
	// StoreAttempts is the total tries per transient store operation.
	// Default 4.
	StoreAttempts int
	// StoreBackoff is the base retry delay (doubled per retry, jittered).
	// Default 5ms.
	StoreBackoff time.Duration
}

func (c *Config) fillDefaults() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 32
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 60 * time.Second
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 1 << 30
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.DecodeWorkers <= 0 {
		c.DecodeWorkers = runtime.GOMAXPROCS(0)
	}
	if c.DegradedAt <= 0 || c.DegradedAt > 1 {
		c.DegradedAt = 0.5
	}
	if c.StoreAttempts <= 0 {
		c.StoreAttempts = 4
	}
	if c.StoreBackoff <= 0 {
		c.StoreBackoff = 5 * time.Millisecond
	}
}

// job is one queued analysis.
type job struct {
	key         string
	path        string
	digest      string
	size        int64
	kind        predictor.Kind
	experiments []string // canonical (sorted, deduped) experiment list
	wire        bool     // /result job: produce the mergeable wire partial
	degraded    bool     // admission-time overload decision
	decode      int      // decode workers: DecodeWorkers, or 1 when degraded
	ctx         context.Context
	cancel      context.CancelFunc
	queued      time.Time
	flight      *flight
}

// Server is the dpgd core: admission, bounded queue, worker pool, cache,
// store, and lifecycle. Create with New, serve via Handler, stop with
// Shutdown.
type Server struct {
	cfg     Config
	store   *Store
	cache   *resultCache
	flights *flightGroup
	metrics *Metrics

	jobs chan *job
	wg   sync.WaitGroup // workers

	// baseCtx cancels every running job when a drain deadline forces
	// abandonment.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.RWMutex // guards draining against concurrent enqueue
	draining bool

	// beforeJob, when set, runs at the top of every job (test seam for
	// holding workers busy deterministically and inspecting the job).
	beforeJob func(*job)
}

// New builds a server and starts its worker pool.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	if cfg.StoreDir == "" {
		return nil, errors.New("server: Config.StoreDir is required")
	}
	s := &Server{
		cfg:     cfg,
		cache:   newResultCache(cfg.CacheEntries),
		flights: newFlightGroup(),
		jobs:    make(chan *job, cfg.QueueDepth),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.metrics = newMetrics(func() int { return len(s.jobs) }, cfg.QueueDepth)
	st, err := newStore(cfg.StoreDir, cfg.StoreAttempts, cfg.StoreBackoff, func(error) {
		s.metrics.storeRetries.Add(1)
	})
	if err != nil {
		return nil, err
	}
	s.store = st
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Metrics exposes the server's counters (the /metrics endpoint renders the
// same state as text).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Handler returns the HTTP surface: POST /analyze (the human-readable
// report), POST /result (the wire-encoded partial a client gathers from
// one or more dpgd hosts and folds with dpg.MergeResults), plus /healthz,
// /readyz, and /metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/analyze", func(w http.ResponseWriter, r *http.Request) {
		s.handleUpload(w, r, false)
	})
	mux.HandleFunc("/result", func(w http.ResponseWriter, r *http.Request) {
		s.handleUpload(w, r, true)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.isDraining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ready\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.metrics.write(w)
	})
	return mux
}

func (s *Server) isDraining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}

// analysisPayload is the JSON body of a successful analysis response.
type analysisPayload struct {
	Name         string              `json:"name"`
	Predictor    string              `json:"predictor"`
	Digest       string              `json:"digest"`
	ModelVersion string              `json:"model_version"`
	SizeBytes    int64               `json:"size_bytes"`
	Events       uint64              `json:"events"`
	Blocks       uint64              `json:"blocks"`
	Overall      analysis.OverallRow `json:"overall"`
	// Experiments carries the results of the ?experiments= fan-out, when
	// requested: every experiment rode the model's single decode of the
	// trace as a streaming observer.
	Experiments *experimentsPayload `json:"experiments,omitempty"`
}

// experimentsPayload is the multi-experiment half of a response. Only the
// requested experiments are populated.
type experimentsPayload struct {
	Reuse       *analysis.ReuseStats       `json:"reuse,omitempty"`
	ILP         *analysis.ILPStats         `json:"ilp,omitempty"`
	Confidence  []analysis.ConfidencePoint `json:"confidence,omitempty"`
	Speculation []analysis.SpecStats       `json:"speculation,omitempty"`
}

// analyzeResponse wraps the payload with per-request flags. The payload is
// embedded by value: encoding/json cannot unmarshal through an embedded
// pointer to an unexported type, and the integration tests round-trip this.
type analyzeResponse struct {
	analysisPayload
	Cached    bool `json:"cached"`
	Coalesced bool `json:"coalesced"`
	Degraded  bool `json:"degraded"`
}

// errorResponse is the JSON body of a failed request.
type errorResponse struct {
	Kind  string `json:"kind"`
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, kind string, err error) {
	writeJSON(w, status, errorResponse{Kind: kind, Error: err.Error()})
}

// parseKind maps the ?predictor= query parameter onto the predictor suite:
// the paper's three plus the tage and ldbp extensions.
func parseKind(name string) (predictor.Kind, error) {
	n := strings.ToLower(name)
	if n == "" || n == "last" {
		return predictor.KindLast, nil
	}
	if k, ok := predictor.KindByName(n); ok {
		return k, nil
	}
	// Single-letter tags arrive in either case (?predictor=s).
	if k, ok := predictor.KindByName(strings.ToUpper(n)); ok {
		return k, nil
	}
	return 0, fmt.Errorf("server: unknown predictor %q (want last-value, stride, context, tage, or ldbp)", name)
}

// parseExperiments canonicalises the ?experiments= query parameter: a
// comma-separated subset of the streaming experiments, lowercased,
// deduplicated, and sorted so equivalent requests share one cache key.
func parseExperiments(q string) ([]string, error) {
	if strings.TrimSpace(q) == "" {
		return nil, nil
	}
	known := core.StreamingExperiments()
	var out []string
	for _, part := range strings.Split(q, ",") {
		name := strings.ToLower(strings.TrimSpace(part))
		if name == "" {
			continue
		}
		if !slices.Contains(known, name) {
			return nil, fmt.Errorf("server: unknown experiment %q (want %s)", name, strings.Join(known, ", "))
		}
		out = append(out, name)
	}
	slices.Sort(out)
	return slices.Compact(out), nil
}

// writeWireResponse sends a /result success: the dpg wire envelope bytes,
// verbatim (the payload is canonical — no re-encoding, no trailing
// newline), with the per-request flags as headers since the body layout
// belongs to the codec.
func writeWireResponse(w http.ResponseWriter, data []byte, cached, coalesced, degraded bool) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Dpgd-Wire", strconv.Itoa(dpg.WireVersion))
	if cached {
		w.Header().Set("X-Dpgd-Cached", "1")
	}
	if coalesced {
		w.Header().Set("X-Dpgd-Coalesced", "1")
	}
	if degraded {
		w.Header().Set("X-Dpgd-Degraded", "1")
	}
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// handleUpload is the shared upload path behind /analyze and /result:
// spool → cache → singleflight → queue. The trace streams from the request
// body into the content-addressed store without ever being held in memory.
// wire selects the response shape: the /analyze report payload, or the
// /result mergeable partial (dpg.EncodeResult bytes).
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request, wire bool) {
	endpoint := "/analyze"
	if wire {
		endpoint = "/result"
	}
	if r.Method != http.MethodPost {
		s.metrics.rejected.Add(1)
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "request", fmt.Errorf("server: POST a BLKC trace to %s", endpoint))
		return
	}
	if s.isDraining() {
		s.metrics.drainedReq.Add(1)
		writeError(w, http.StatusServiceUnavailable, "draining", ErrDraining)
		return
	}
	kind, err := parseKind(r.URL.Query().Get("predictor"))
	if err != nil {
		s.metrics.rejected.Add(1)
		writeError(w, http.StatusBadRequest, "request", err)
		return
	}
	exps, err := parseExperiments(r.URL.Query().Get("experiments"))
	if err != nil {
		s.metrics.rejected.Add(1)
		writeError(w, http.StatusBadRequest, "request", err)
		return
	}
	if wire && len(exps) > 0 {
		s.metrics.rejected.Add(1)
		writeError(w, http.StatusBadRequest, "request",
			errors.New("server: /result returns the mergeable model partial; experiments ride /analyze"))
		return
	}

	start := time.Now()
	sp, err := s.store.Spool(r.Context(), r.Body, s.cfg.MaxUploadBytes)
	if err != nil {
		switch {
		case errors.Is(err, ErrTooLarge):
			s.metrics.rejected.Add(1)
			writeError(w, http.StatusRequestEntityTooLarge, "request", err)
		case r.Context().Err() != nil:
			// Client went away mid-upload; nothing useful to send.
			s.metrics.rejected.Add(1)
			writeError(w, statusClientClosedRequest, "canceled", err)
		default:
			je := classifyJobErr(err)
			s.metrics.jobFailed(je.Kind)
			writeError(w, je.httpStatus(), je.Kind, je)
		}
		return
	}
	defer s.store.Release(sp.Digest)
	s.metrics.uploads.Add(1)
	s.metrics.spooledBytes.Add(uint64(sp.Size))
	s.metrics.spoolHist.observe(time.Since(start))

	key := sp.Digest + "|" + kind.String() + "|" + ModelVersion
	if len(exps) > 0 {
		// The canonical experiment list keys separately from the plain
		// model run: same digest, different work, different cache entry.
		key += "|" + strings.Join(exps, ",")
	}
	if wire {
		// Same model run, different response encoding — and the wire
		// version is part of the key so a codec bump never serves stale
		// layouts.
		key += "|wire" + strconv.Itoa(dpg.WireVersion)
	}
	if e, ok := s.cache.get(key); ok {
		s.metrics.cacheHits.Add(1)
		s.metrics.totalHist.observe(time.Since(start))
		if wire {
			writeWireResponse(w, e.wire, true, false, false)
		} else {
			writeJSON(w, http.StatusOK, analyzeResponse{analysisPayload: *e.payload, Cached: true})
		}
		return
	}
	s.metrics.cacheMisses.Add(1)

	f, leader := s.flights.start(key)
	if leader {
		if aerr := s.admit(r.Context(), key, sp, kind, exps, wire, f); aerr != nil {
			s.flights.complete(key, f, jobOutcome{jerr: &JobError{Kind: "admission", Err: aerr}})
			switch {
			case errors.Is(aerr, ErrQueueFull):
				s.metrics.shed.Add(1)
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusTooManyRequests, "backpressure", aerr)
			default: // ErrDraining
				s.metrics.drainedReq.Add(1)
				writeError(w, http.StatusServiceUnavailable, "draining", aerr)
			}
			return
		}
	} else {
		s.metrics.coalesced.Add(1)
	}

	select {
	case <-f.done:
	case <-r.Context().Done():
		// This waiter is gone; the flight (owned by the leader's job)
		// keeps running for anyone still waiting.
		writeError(w, statusClientClosedRequest, "canceled", r.Context().Err())
		return
	}
	out := f.out
	s.metrics.totalHist.observe(time.Since(start))
	if out.jerr != nil {
		writeError(w, out.jerr.httpStatus(), out.jerr.Kind, out.jerr)
		return
	}
	if wire {
		writeWireResponse(w, out.wire, false, !leader, out.degraded)
		return
	}
	writeJSON(w, http.StatusOK, analyzeResponse{
		analysisPayload: *out.payload,
		Coalesced:       !leader,
		Degraded:        out.degraded,
	})
}

// statusClientClosedRequest is nginx's non-standard 499: the client
// disconnected before the response; no standard code fits better.
const statusClientClosedRequest = 499

// admit enqueues a job with explicit backpressure: a full queue fails with
// ErrQueueFull (never blocks), a draining server with ErrDraining. The
// degradation decision is taken here, from queue pressure at admission.
func (s *Server) admit(reqCtx context.Context, key string, sp SpoolResult, kind predictor.Kind, exps []string, wire bool, f *flight) error {
	degraded := float64(len(s.jobs)+1) >= s.cfg.DegradedAt*float64(s.cfg.QueueDepth)
	decode := s.cfg.DecodeWorkers
	if degraded {
		decode = 1 // the shed work: sequential decode
	}
	jctx, jcancel := context.WithTimeout(reqCtx, s.cfg.JobTimeout)
	stop := context.AfterFunc(s.baseCtx, jcancel)
	j := &job{
		key:         key,
		path:        sp.Path,
		digest:      sp.Digest,
		size:        sp.Size,
		kind:        kind,
		experiments: exps,
		wire:        wire,
		degraded:    degraded,
		decode:      decode,
		ctx:         jctx,
		cancel:      func() { stop(); jcancel() },
		queued:      time.Now(),
		flight:      f,
	}
	// The job holds its own store reference until it finishes, independent
	// of the uploading request's lifetime.
	s.store.acquire(sp.Digest)

	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.draining {
		j.cancel()
		s.store.Release(sp.Digest)
		return ErrDraining
	}
	select {
	case s.jobs <- j:
		return nil
	default:
		j.cancel()
		s.store.Release(sp.Digest)
		return ErrQueueFull
	}
}

// worker drains the job queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.jobs {
		s.runJob(j)
	}
}

// runJob executes one analysis with panic isolation: a panic anywhere in
// the decode or model stack is contained to this job, classified as
// KindPanic, and the worker stays healthy.
func (s *Server) runJob(j *job) {
	s.metrics.queueHist.observe(time.Since(j.queued))
	s.metrics.inflight.Add(1)
	if j.degraded {
		s.metrics.mode.Store(1)
		s.metrics.degradedJobs.Add(1)
	} else {
		s.metrics.mode.Store(0)
	}
	var out jobOutcome
	out.degraded = j.degraded
	func() {
		defer func() {
			if v := recover(); v != nil {
				buf := make([]byte, 8<<10)
				n := runtime.Stack(buf, false)
				out.jerr = &JobError{
					Kind: KindPanic,
					Err:  fmt.Errorf("server: panic in job %s: %v\n%s", j.digest[:12], v, buf[:n]),
				}
			}
		}()
		if s.beforeJob != nil {
			s.beforeJob(j)
		}
		out.payload, out.wire, out.jerr = s.analyze(j)
	}()
	if out.jerr == nil {
		s.cache.put(j.key, cacheEntry{payload: out.payload, wire: out.wire})
		s.metrics.jobsOK.Add(1)
	} else {
		s.metrics.jobFailed(out.jerr.Kind)
	}
	s.metrics.inflight.Add(-1)
	j.cancel()
	s.store.Release(j.digest)
	s.flights.complete(j.key, j.flight, out)
}

// analyze runs the streaming analysis for one job. Normal mode decodes
// with DecodeWorkers concurrent block decoders; degraded mode sheds them
// (the work, not the job) and decodes each block inline. Both run the one
// sequential model pass.
// Requested experiments ride the model's decode as streaming observers
// (core.WithObservers), built by core.ExperimentObservers with the
// figures suite's parameters, so a multi-experiment job still reads the
// spooled trace exactly once. A wire job returns dpg.EncodeResult bytes
// instead of the report payload — the same model run, so degraded mode
// changes how the answer is computed but never the bytes.
func (s *Server) analyze(j *job) (*analysisPayload, []byte, *JobError) {
	start := time.Now()
	if err := s.store.Probe(j.ctx, j.path); err != nil {
		// classifyJobErr separates cancellation/deadline from genuine
		// store failures here.
		return nil, nil, classifyJobErr(err)
	}
	obs, collect, err := core.ExperimentObservers(j.kind, j.experiments)
	if err != nil {
		return nil, nil, classifyJobErr(err)
	}
	var st trace.Stats
	s.metrics.computations.Add(1)
	res, err := core.AnalyzeFile(j.path,
		core.WithKind(j.kind),
		core.WithContext(j.ctx),
		core.WithTraceStats(&st),
		core.WithWorkers(j.decode),
		core.WithObservers(obs...))
	s.metrics.analyzeHist.observe(time.Since(start))
	if err != nil {
		return nil, nil, classifyJobErr(err)
	}
	if j.wire {
		data, err := dpg.EncodeResult(res, ModelVersion)
		if err != nil {
			return nil, nil, classifyJobErr(err)
		}
		return nil, data, nil
	}
	var exp *experimentsPayload
	if len(obs) > 0 {
		p := collect(res.Name)
		exp = &experimentsPayload{Reuse: p.Reuse, Confidence: p.Confidence, Speculation: p.Speculation}
		if len(p.ILP) > 0 {
			exp.ILP = &p.ILP[0]
		}
	}
	return &analysisPayload{
		Name:         res.Name,
		Predictor:    res.Predictor,
		Digest:       j.digest,
		ModelVersion: ModelVersion,
		SizeBytes:    j.size,
		Events:       st.Events,
		Blocks:       st.Blocks,
		Overall:      analysis.Overall(res),
		Experiments:  exp,
	}, nil, nil
}

// Shutdown drains the server: new work is refused immediately (readyz goes
// unready, uploads get 503), queued and running jobs are given until ctx's
// deadline to finish, and past the deadline every remaining job is
// cancelled through its context and awaited. The error reports whether the
// drain was clean.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("server: already shut down")
	}
	s.draining = true
	s.metrics.draining.Store(1)
	close(s.jobs) // safe: enqueue checks draining under the same lock
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	// Deadline passed with jobs still running: cancel them all and wait
	// for the workers to observe it (cancellation is plumbed to the decode
	// loops, so this converges quickly).
	s.baseCancel()
	select {
	case <-done:
		return fmt.Errorf("server: drain deadline exceeded; running jobs were cancelled: %w", ctx.Err())
	case <-time.After(10 * time.Second):
		return errors.New("server: jobs did not stop after forced cancellation")
	}
}
