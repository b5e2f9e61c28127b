package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/dpg"
	"repro/internal/predictor"
	"repro/internal/server"
	"repro/internal/trace"
)

// serverLoad is what a set of dpgd servers saw: their summed /metrics
// increments, and the client round trips of the requests they answered.
type serverLoad struct {
	d        promSample
	rtts     time.Duration
	requests int
}

// session is one in-process dpgd: server.New with its default Config (a
// bare dpgd), served over loopback.
type session struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	last   promSample    // the most recent /metrics scrape
	served chan struct{} // closed when the HTTP server has stopped
}

func startSession(storeDir string) (*session, error) {
	srv, err := server.New(server.Config{StoreDir: storeDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	s := &session{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(),
		last: promSample{}, served: make(chan struct{})}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln)
	}()
	return s, nil
}

// scrape reads /metrics and returns the increments since the last scrape.
func (s *session) scrape(c *http.Client) (promSample, error) {
	resp, err := c.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m, err := parseMetrics(resp.Body)
	if err != nil {
		return nil, err
	}
	d := m.sub(s.last)
	s.last = m
	return d, nil
}

// close stops the HTTP server and drains the dpgd, waiting for both.
func (s *session) close() {
	s.hs.Close()
	<-s.served
	if err := s.srv.Shutdown(context.Background()); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
}

// newClient is a keep-alive client for loopback requests to a session.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
}

// post sends one request and returns the status and body.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// passes hands out one fresh server per pass over the request list, so
// every pass starts with an empty cache and store and the hit share stays
// the list's own whatever the run length.
type passes struct {
	mu       sync.Mutex
	dir      string
	sessions map[int]*session
}

func newPasses(dir string) *passes { return &passes{dir: dir, sessions: make(map[int]*session)} }

func (p *passes) get(pass int) (*session, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s, ok := p.sessions[pass]; ok {
		return s, nil
	}
	store := filepath.Join(p.dir, fmt.Sprintf("store-%d", pass))
	if err := os.MkdirAll(store, 0o755); err != nil {
		return nil, err
	}
	s, err := startSession(store)
	if err != nil {
		return nil, err
	}
	p.sessions[pass] = s
	return s, nil
}

func (p *passes) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.sessions {
		s.close()
	}
}

// request modes: the /analyze report, the same with every experiment, and
// the /result wire partial.
const (
	modePlain = iota
	modeExp
	modeResult
)

const allExperiments = "reuse,ilp,confidence,speculation"

type request struct{ body, kind, mode int }

// analyzeBody mirrors the fields of dpgd's /analyze payload the benchmark
// checks (everything but the per-request flags and the block count, which
// only a trace reader knows).
type analyzeBody struct {
	Name         string              `json:"name"`
	Predictor    string              `json:"predictor"`
	Digest       string              `json:"digest"`
	ModelVersion string              `json:"model_version"`
	SizeBytes    int64               `json:"size_bytes"`
	Events       uint64              `json:"events"`
	Overall      analysis.OverallRow `json:"overall"`
	Experiments  *experimentsBody    `json:"experiments,omitempty"`
}

// experimentsBody mirrors the payload's ?experiments= half.
type experimentsBody struct {
	Reuse       *analysis.ReuseStats       `json:"reuse,omitempty"`
	ILP         *analysis.ILPStats         `json:"ilp,omitempty"`
	Confidence  []analysis.ConfidencePoint `json:"confidence,omitempty"`
	Speculation []analysis.SpecStats       `json:"speculation,omitempty"`
}

// canonical re-encodes a payload with only the checked fields.
func canonical(data []byte) ([]byte, error) {
	var b analyzeBody
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, err
	}
	return json.Marshal(b)
}

// dpgdMix is dpgd under two closed-loop clients: seeded uploads of several
// gcc, bfs and ijp traces to /analyze (some with every experiment) and
// /result, a quarter of them repeats the cache answers.
type dpgdMix struct {
	inputs
	bodies  [][]byte
	digests []string
	reqs    []request         // one pass
	refs    map[[3]int][]byte // (body, kind, mode) -> expected bytes
	client  *http.Client
	live    *passes // the untraced jobs
	replays *passes // the traced replay, on servers of its own

	mu   sync.Mutex
	rtts time.Duration // client round trips of the untraced jobs
}

// dpgdTraces are the programs behind the bodies; each runs under
// dpgdSeeds input seeds.
var dpgdTraces = []string{"gcc", "bfs", "ijp"}

const dpgdSeeds = 3

// One pass has a fixed shape, whatever the seed: every predictor on every
// trace program as a plain /analyze (15 keys), every predictor once with
// all experiments and once to /result (5 keys each), and dpgdRepeats
// repeats of earlier keys, which the cache answers. The seed picks only
// the traces: the order and the repeated keys are the same under every
// seed, because with two clients the order decides which requests run
// side by side, and that should not change from seed to seed.
const dpgdRepeats = 8

func setupDpgdMix(dir string, seed uint64) (workload, error) {
	m := &dpgdMix{client: newClient()}
	for j := 0; j < len(dpgdTraces)*dpgdSeeds; j++ {
		t, err := genTrace(dpgdTraces[j%len(dpgdTraces)], 0, subSeed(seed, j))
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := trace.WriteAll(&buf, t, trace.Compression(dpgdCodec(j))); err != nil {
			return nil, err
		}
		sum := sha256.Sum256(buf.Bytes())
		m.add(t)
		m.bodies = append(m.bodies, buf.Bytes())
		m.digests = append(m.digests, hex.EncodeToString(sum[:]))
	}
	m.reqs = dpgdPass()
	m.live, m.replays = newPasses(filepath.Join(dir, "live")), newPasses(filepath.Join(dir, "replay"))
	if _, err := m.live.get(0); err != nil {
		return nil, err
	}
	return m, nil
}

// dpgdCodec is body j's codec: the bodies alternate none and lz.
func dpgdCodec(j int) trace.Codec {
	if j%2 == 0 {
		return trace.CodecNone
	}
	return trace.CodecLZ
}

// dpgdBody is the body index of trace program w (into dpgdTraces) under
// its s-th seed.
func dpgdBody(w, s int) int { return w + len(dpgdTraces)*(s%dpgdSeeds) }

// dpgdPass builds one pass of requests in a fixed shuffled order.
func dpgdPass() []request {
	rng := rand.New(rand.NewSource(17))
	var fresh []request
	nw := len(dpgdTraces)
	for k := range kinds {
		for w := 0; w < nw; w++ {
			fresh = append(fresh, request{body: dpgdBody(w, k+w), kind: k, mode: modePlain})
		}
		fresh = append(fresh,
			request{body: dpgdBody(k%nw, k+1), kind: k, mode: modeExp},
			request{body: dpgdBody((k+1)%nw, k+2), kind: k, mode: modeResult})
	}
	rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	// Repeats go after the first fresh key, at shuffled positions.
	out := []request{fresh[0]}
	repeatAt := make(map[int]bool)
	for _, p := range rng.Perm(len(fresh) + dpgdRepeats - 1)[:dpgdRepeats] {
		repeatAt[p+1] = true
	}
	next := 1
	for pos := 1; pos < len(fresh)+dpgdRepeats; pos++ {
		if repeatAt[pos] {
			out = append(out, out[rng.Intn(len(out))])
			continue
		}
		out = append(out, fresh[next])
		next++
	}
	return out
}

func (m *dpgdMix) clients() int { return 2 }
func (m *dpgdMix) width() int   { return 1 }
func (m *dpgdMix) round() int   { return len(m.reqs) }

func (m *dpgdMix) references() error {
	type want struct{ body, kind, mode int }
	var wants []want
	seen := make(map[[3]int]bool)
	for _, r := range m.reqs {
		key := [3]int{r.body, r.kind, r.mode}
		if !seen[key] {
			seen[key] = true
			wants = append(wants, want{r.body, r.kind, r.mode})
		}
	}
	refs := make([][]byte, len(wants))
	err := parallel(len(wants), func(i int) error {
		w := wants[i]
		var err error
		refs[i], err = m.expected(w.body, kinds[w.kind], w.mode)
		return err
	})
	m.refs = make(map[[3]int][]byte, len(wants))
	for i, w := range wants {
		m.refs[[3]int{w.body, w.kind, w.mode}] = refs[i]
	}
	return err
}

// expected computes one answer from the in-memory trace: the wire bytes
// for /result, else the canonical /analyze payload, with the experiments
// run as observers over the trace (analysis.ObserveTrace) configured as
// dpgd configures them.
func (m *dpgdMix) expected(body int, k predictor.Kind, mode int) ([]byte, error) {
	t := m.traces[body]
	r, wire, err := encodeRef(t, k)
	if err != nil || mode == modeResult {
		return wire, err
	}
	b := analyzeBody{
		Name: r.Name, Predictor: r.Predictor, Digest: m.digests[body],
		ModelVersion: server.ModelVersion, SizeBytes: int64(len(m.bodies[body])),
		Events: uint64(t.Len()), Overall: analysis.Overall(r),
	}
	if mode == modeExp {
		reuse, ilp, conf, specs, obs := experimentObservers(k)
		if err := analysis.ObserveTrace(t, obs...); err != nil {
			return nil, err
		}
		b.Experiments = &experimentsBody{}
		rs, is := reuse.Stats(), ilp.Stats()
		rs.Name, is.Name = r.Name, r.Name
		b.Experiments.Reuse, b.Experiments.ILP = &rs, &is
		b.Experiments.Confidence = conf.Points()
		for _, s := range specs {
			ss := s.Stats()
			ss.Name = r.Name
			b.Experiments.Speculation = append(b.Experiments.Speculation, ss)
		}
	}
	return json.Marshal(b)
}

// experimentObservers builds the four experiments as dpgd configures them
// for ?experiments=reuse,ilp,confidence,speculation.
func experimentObservers(k predictor.Kind) (*analysis.ReuseSim, *analysis.ILPSim, *analysis.ConfidenceSim, []*analysis.SpecSim, []analysis.Observer) {
	reuse := analysis.NewReuseSim("", 16)
	ilp := analysis.NewILPSim("", k)
	conf := analysis.NewConfidenceSim(k, 7)
	obs := []analysis.Observer{reuse, ilp, conf}
	var specs []*analysis.SpecSim
	for _, th := range []uint8{8, 0, 1, 3, 7} {
		s := analysis.NewSpecSim("", k, analysis.SpecConfig{Width: 64, Threshold: th, MaxConfidence: 7, Penalty: 8})
		specs = append(specs, s)
		obs = append(obs, s)
	}
	return reuse, ilp, conf, specs, obs
}

func (m *dpgdMix) url(s *session, r request) string {
	ep := "/analyze"
	if r.mode == modeResult {
		ep = "/result"
	}
	u := s.url + ep + "?predictor=" + kinds[r.kind].String()
	if r.mode == modeExp {
		u += "&experiments=" + allExperiments
	}
	return u
}

// do sends request i to its pass's server on ps and checks the answer.
func (m *dpgdMix) do(ps *passes, i int) (outcome, *session, time.Time, time.Duration) {
	r := m.reqs[i%len(m.reqs)]
	s, err := ps.get(i / len(m.reqs))
	if err != nil {
		return outcome{err: err}, nil, time.Time{}, 0
	}
	start := time.Now()
	status, data, err := post(m.client, m.url(s, r), m.bodies[r.body])
	rtt := time.Since(start)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("%s: HTTP %d: %s", m.url(s, r), status, strings.TrimSpace(string(data)))
	}
	if err != nil {
		return outcome{err: err}, s, start, rtt
	}
	got := data
	if r.mode != modeResult {
		if got, err = canonical(data); err != nil {
			return outcome{err: err}, s, start, rtt
		}
	}
	o := outcome{events: m.events[r.body], mismatch: !bytes.Equal(got, m.refs[[3]int{r.body, r.kind, r.mode}])}
	return o, s, start, rtt
}

func (m *dpgdMix) run(i int) outcome {
	o, _, _, rtt := m.do(m.live, i)
	m.mu.Lock()
	m.rtts += rtt
	m.mu.Unlock()
	return o
}

// replay sends the request to a replay server and splits its round trip
// by the server's own stage histograms, scraped after every request: the
// upload spool, the queue wait, the analysis, and the HTTP exchange
// outside the server's total. What the handler does outside those stages
// (cache lookup, response encoding) is left to the root span.
func (m *dpgdMix) replay(tr *tracer, job, parent, i int) outcome {
	o, s, start, rtt := m.do(m.replays, i)
	if s == nil {
		return o
	}
	d, err := s.scrape(m.client)
	if err != nil {
		return outcome{err: err}
	}
	at := start
	stage := func(name string, secs float64) {
		dur := time.Duration(secs * 1e9)
		tr.record(job, parent, name, at, dur)
		at = at.Add(dur)
	}
	stage("server.http", rtt.Seconds()-d["dpgd_stage_total_seconds_sum"])
	stage("server.spool", d["dpgd_stage_spool_seconds_sum"])
	stage("server.queue_wait", d["dpgd_stage_queue_wait_seconds_sum"])
	stage("server.analyze", d["dpgd_stage_analyze_seconds_sum"])
	return o
}

func (m *dpgdMix) serverLoad() (*serverLoad, error) {
	m.live.mu.Lock()
	sessions := make([]*session, 0, len(m.live.sessions))
	for _, s := range m.live.sessions {
		sessions = append(sessions, s)
	}
	m.live.mu.Unlock()
	l := &serverLoad{d: promSample{}}
	for _, s := range sessions {
		d, err := s.scrape(m.client)
		if err != nil {
			return nil, err
		}
		l.d.add(d)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	l.rtts, l.requests = m.rtts, int(l.d["dpgd_uploads_total"])
	return l, nil
}

func (m *dpgdMix) close() {
	m.live.close()
	m.replays.close()
	m.client.CloseIdleConnections()
}

// spec is the SpecConfig dpgd's default Config gives core.WithSpeculation.
func dpgdSpec(st *dpg.SpecStats) dpg.SpecConfig { return dpg.SpecConfig{Workers: 2, Stats: st} }
