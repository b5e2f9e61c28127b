// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload on traces generated from a seed, checks every answer
// against a reference computed from the in-memory traces, and prints the
// workload's metrics, the last line as one JSON object.
//
//	perfbench --workload file-full --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with nothing traced. --trace 1
// replays the workload's jobs through the public functions of each layer,
// records a span around every call, writes the spans to .bench_out/, and
// reports the per-layer metrics. METRICS.md lists every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 3

// outDir holds a run's scratch files and span dumps, relative to the
// directory the benchmark runs in.
const outDir = ".bench_out"

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "file-full | dpgd-mix | dir-short")
	seed := fs.Uint64("seed", 1, "input seed: every trace and request derives from it")
	seconds := fs.Float64("seconds", 20, "how long the measured loop runs")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: traced replay and per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	setup, ok := setups[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload file-full|dpgd-mix|dir-short, --seconds > 0, --trace 0|1\n")
		return 2
	}
	work := filepath.Join(outDir, fmt.Sprintf("%s-%d", *name, os.Getpid()))
	defer os.RemoveAll(work)

	var rep *report
	var err error
	if *traced == 0 {
		rep, err = endToEnd(setup, work, *seed, *seconds)
	} else {
		spans := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
		rep, err = perLayer(setup, work, spans, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if !rep.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d failed, %d answers differ from the reference\n", *name, rep.Failed, rep.mismatches)
		return 1
	}
	return 0
}

// setupOnce times one setup into its own directory.
func setupOnce(setup setupFunc, dir string, seed uint64) (workload, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	w, err := setup(dir, seed)
	return w, time.Since(start), err
}

// --- end-to-end ------------------------------------------------------------

func endToEnd(setup setupFunc, work string, seed uint64, seconds float64) (*report, error) {
	var w workload
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		wi, d, err := setupOnce(setup, filepath.Join(work, fmt.Sprintf("setup%d", i)), seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, d.Seconds())
		if w != nil {
			w.close()
		}
		w = wi
	}
	defer w.close()
	if err := w.references(); err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	w.release()
	l := measure(w, 0, time.Duration(seconds*float64(time.Second)), w.clients())

	rep := newReport(l)
	rep.add("setup_s", median(times), "s")
	rep.add("cpu_ms_per_mevent", l.cpuPerMevent(), "ms/Mevent")
	rep.add("allocs_per_kevent", perUnit(float64(l.allocs), l.events, 1e3), "allocs/kevent")
	rep.add("alloc_bytes_per_event", perUnit(float64(l.allocBytes), l.events, 1), "B/event")
	rep.add("peak_heap_mb", l.peakHeapMB(), "MB")
	// The wall-clock figures print but stay out of the result line: on a
	// host whose hypervisor steals a varying share of the CPUs they do not
	// repeat within a tenth from run to run (see METRICS.md).
	rep.note("events_per_s", l.rate(), "events/s")
	rep.note("job_p50_ms", median(l.jobMS), "ms")
	if v, ok := p90(l.jobMS); ok {
		rep.note("job_p90_ms", v, "ms")
	} else {
		rep.note("job_p90_ms", math.NaN(), fmt.Sprintf("ms (not reported: %d jobs < %d)", len(l.jobMS), minP90Jobs))
	}
	rep.note("failed_frac", frac(float64(l.failed), float64(l.attempted)), "frac")
	rep.note("result_mismatches", float64(l.mismatches), "count")
	return rep, nil
}

// loop is what one measured loop saw.
type loop struct {
	wall       time.Duration
	jobMS      []float64 // per successful job
	jobs       int       // jobs run: indices [first, first+jobs)
	events     uint64
	attempted  int
	failed     int
	mismatches int
	allocs     uint64
	allocBytes uint64
	rounds     []roundStats
}

// roundStats is one round's share of a loop.
type roundStats struct {
	wall   time.Duration
	cpu    time.Duration
	events uint64
	heap   uint64 // peak live heap bytes
}

// rate is the median over rounds of events per wall second.
func (l *loop) rate() float64 {
	var xs []float64
	for _, r := range l.rounds {
		xs = append(xs, float64(r.events)/r.wall.Seconds())
	}
	return median(xs)
}

// cpuPerMevent is the median over rounds of CPU milliseconds per million
// events.
func (l *loop) cpuPerMevent() float64 {
	var xs []float64
	for _, r := range l.rounds {
		xs = append(xs, perUnit(float64(r.cpu.Nanoseconds())/1e6, r.events, 1e6))
	}
	return median(xs)
}

// peakHeapMB is the median over rounds of each round's peak heap, in MiB.
func (l *loop) peakHeapMB() float64 {
	var xs []float64
	for _, r := range l.rounds {
		xs = append(xs, float64(r.heap)/(1<<20))
	}
	return median(xs)
}

// measure runs whole rounds of jobs, starting at job first, until limit
// has passed (at least one round runs). Within a round, `clients`
// closed-loop callers take the round's jobs in order through w.run; the
// next round starts when every job of this one has answered. It reports
// per-round wall time, CPU, events and peak heap, per-job times, and heap
// allocation over the whole loop.
func measure(w workload, first int, limit time.Duration, clients int) loop {
	runtime.GC()
	var l loop
	var mu sync.Mutex
	heap := newHeapSampler()
	defer heap.close()
	a0 := readAllocs()
	start := time.Now()
	next := first
	for len(l.rounds) == 0 || time.Since(start) < limit {
		rStart, rCPU, rEvents := time.Now(), cpuTime(), l.events
		heap.takePeak()
		end := next + w.round()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					i := next
					next++
					mu.Unlock()
					if i >= end {
						return
					}
					t0 := time.Now()
					o := w.run(i)
					d := time.Since(t0)
					mu.Lock()
					l.record(i, o, d)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		next = end
		l.rounds = append(l.rounds, roundStats{time.Since(rStart), cpuTime() - rCPU, l.events - rEvents, heap.takePeak()})
	}
	l.wall = time.Since(start)
	a1 := readAllocs()
	l.allocs, l.allocBytes = a1[0]-a0[0], a1[1]-a0[1]
	l.jobs = next - first
	return l
}

// record books job i's outcome.
func (l *loop) record(i int, o outcome, d time.Duration) {
	l.attempted++
	if o.err != nil {
		l.failed++
		fmt.Fprintf(os.Stderr, "perfbench: job %d: %v\n", i, o.err)
		return
	}
	l.events += o.events
	l.jobMS = append(l.jobMS, float64(d.Nanoseconds())/1e6)
	if o.mismatch {
		l.mismatches++
		fmt.Fprintf(os.Stderr, "perfbench: job %d: answer differs from the reference\n", i)
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readAllocs returns the cumulative heap allocation count and bytes.
func readAllocs() [2]uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return [2]uint64{s[0].Value.Uint64(), s[1].Value.Uint64()}
}

// heapSampler polls the live heap (the bytes the last GC cycle marked
// live) every heapPoll and keeps the highest value seen since the last
// takePeak. Unlike the bytes held in heap objects, it leaves out garbage
// awaiting collection, whose amount depends on when collections fall.
type heapSampler struct {
	mu   sync.Mutex
	peak uint64
	stop chan struct{}
	done chan struct{}
}

const heapPoll = 2 * time.Millisecond

func newHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(heapPoll)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.mu.Lock()
			h.peak = max(h.peak, s[0].Value.Uint64())
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// takePeak returns the peak since the previous call and starts a new one.
func (h *heapSampler) takePeak() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peak
	h.peak = 0
	return p
}

func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}

// --- report ----------------------------------------------------------------

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line, plus the human-readable notes printed above
// it for figures that BENCHMARK.json does not list.
type report struct {
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	mismatches int
	notes      []string
	order      []string
}

func newReport(l loop) *report {
	return &report{
		Correct:    l.mismatches == 0 && l.failed == 0 && l.attempted > 0,
		Attempted:  l.attempted,
		Failed:     l.failed,
		Metrics:    make(map[string]metric),
		mismatches: l.mismatches,
	}
}

func (r *report) add(name string, v float64, unit string) {
	r.Metrics[name] = metric{v, unit}
	r.order = append(r.order, name)
}

func (r *report) note(name string, v float64, unit string) {
	r.notes = append(r.notes, fmt.Sprintf("%-32s %14.6g %s", name, v, unit))
}

// print writes every metric by name with its unit, then the JSON line. A
// metric that could not be measured (NaN or infinite) is an error.
func (r *report) print(w *os.File) error {
	for _, n := range r.order {
		m := r.Metrics[n]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s could not be measured", n)
		}
		fmt.Fprintf(w, "%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// --- per-layer ---------------------------------------------------------------

// replayShare is the part of --seconds the untraced replay takes; the
// traced replay of the same jobs and the layer battery take the rest.
const replayShare = 0.35

func perLayer(setup setupFunc, work, spansPath string, seed uint64, seconds float64) (*report, error) {
	w, _, err := setupOnce(setup, filepath.Join(work, "setup"), seed)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer w.close()
	if err := w.references(); err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	// The untraced replay runs jobs one at a time, as the traced replay
	// does, so that the two walls compare like with like.
	u := measure(w, 0, time.Duration(replayShare*seconds*float64(time.Second)), 1)

	tr := newTracer()
	var tracedWall time.Duration
	var traced loop
	for i := 0; i < u.jobs; i++ {
		start := time.Now()
		id := tr.begin(i+1, 0, "job")
		o := w.replay(tr, i+1, id, i)
		tr.end(id)
		d := time.Since(start)
		tracedWall += d
		traced.record(i, o, d)
	}
	replaySpans := tr.snapshot()

	rep := newReport(loop{attempted: u.attempted + traced.attempted, failed: u.failed + traced.failed,
		mismatches: u.mismatches + traced.mismatches})
	var untraced time.Duration
	for _, ms := range u.jobMS {
		untraced += time.Duration(ms * 1e6)
	}
	layers := layerSelf(replaySpans)
	m := make(map[string]float64)
	m["core.closure_frac"] = closure(layers, untraced, w.width())
	m["core.trace_overhead_frac"] = frac(tracedWall.Seconds(), u.wall.Seconds())
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rep.note("self."+n, layers[n].Seconds()*1e3, fmt.Sprintf("ms over %d replayed jobs", u.jobs))
	}

	b := &battery{t: tr, dir: filepath.Join(work, "battery"), m: m}
	if err := b.run(w); err != nil {
		return nil, fmt.Errorf("battery: %w", err)
	}
	if b.mismatches > 0 {
		rep.Correct = false
		rep.mismatches += b.mismatches
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(spansPath); err != nil {
		return nil, err
	}
	for _, spec := range perLayerMetrics {
		v, ok := m[spec.name]
		if !ok {
			return nil, errors.New("per-layer metric " + spec.name + " was not measured")
		}
		rep.add(spec.name, v, spec.unit)
	}
	return rep, nil
}
