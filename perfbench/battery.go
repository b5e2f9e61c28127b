package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/dpg"
	"repro/internal/predictor"
	"repro/internal/server"
	"repro/internal/trace"
)

// batteryEvents is how many events of a workload's traces the layer
// battery measures on: its leading traces until they reach this many.
const batteryEvents = 400_000

// metricSpec names one per-layer metric and its unit.
type metricSpec struct{ name, unit string }

// perLayerMetrics is every metric a traced run reports, in print order.
var perLayerMetrics = func() []metricSpec {
	var out []metricSpec
	add := func(name, unit string) { out = append(out, metricSpec{name, unit}) }
	for _, c := range trace.Codecs() {
		add("trace.decode_ns_per_event."+c.String(), "ns/event")
	}
	for _, c := range trace.Codecs() {
		add("trace.decode_bytes_per_s."+c.String(), "B/s")
	}
	add("trace.decode_allocs_per_kevent", "allocs/kevent")
	add("trace.pdecode_ns_per_event", "ns/event")
	add("trace.probe_us", "us")
	add("trace.prepass_ns_per_event", "ns/event")
	for _, c := range trace.Codecs() {
		add("trace.encode_ns_per_event."+c.String(), "ns/event")
	}
	for _, c := range trace.Codecs() {
		add("trace.file_bytes_per_event."+c.String(), "B/event")
	}
	for _, k := range kinds {
		add("dpg.setup_ms."+k.String(), "ms")
	}
	for _, k := range kinds {
		add("dpg.model_ns_per_event."+k.String(), "ns/event")
	}
	add("dpg.paths_ns_per_event", "ns/event")
	add("dpg.paths_allocs_per_kevent", "allocs/kevent")
	add("dpg.model_allocs_per_kevent", "allocs/kevent")
	for _, k := range kinds {
		add("dpg.spec_ns_per_event."+k.String(), "ns/event")
	}
	add("dpg.spec_useful_frac", "frac")
	add("dpg.merge_us", "us")
	add("dpg.wire_encode_us", "us")
	add("dpg.wire_decode_us", "us")
	for _, e := range experimentNames {
		add("analysis."+e+"_ns_per_event", "ns/event")
	}
	add("core.fanout_busy_frac", "frac")
	add("core.closure_frac", "frac")
	add("core.trace_overhead_frac", "frac")
	for _, s := range serverStages {
		add("server."+s+"_ms", "ms")
	}
	for _, s := range []string{"cache_hit", "coalesced", "shed", "degraded"} {
		add("server."+s+"_frac", "frac")
	}
	add("server.http_overhead_ms", "ms")
	return out
}()

var (
	experimentNames = []string{"reuse", "ilp", "confidence", "speculation"}
	serverStages    = []string{"spool", "queue_wait", "analyze", "total"}
)

// battery measures every layer on a workload's own traces by timing calls
// into each layer's public functions, one span per call. Results land in
// m by metric name.
type battery struct {
	t          *tracer
	dir        string
	m          map[string]float64
	mismatches int
	events     uint64 // events in the battery traces
}

// timed runs fn under a battery span and returns its duration.
func (b *battery) timed(name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := b.t.do(0, 0, "battery."+name, fn)
	return time.Since(start), err
}

// allocsOf returns how many heap objects fn allocated (process-wide, so
// battery steps run alone).
func allocsOf(fn func() error) (uint64, error) {
	a0 := readAllocs()
	err := fn()
	return readAllocs()[0] - a0[0], err
}

func (b *battery) run(w workload) error {
	ts := w.batteryTraces()
	for _, t := range ts {
		b.events += uint64(t.Len())
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return err
	}
	files, err := b.codecs(ts)
	if err != nil {
		return err
	}
	if err := b.files(files); err != nil {
		return err
	}
	results, err := b.model(ts)
	if err != nil {
		return err
	}
	if err := b.spec(ts); err != nil {
		return err
	}
	if err := b.analysis(ts); err != nil {
		return err
	}
	if err := b.wire(results); err != nil {
		return err
	}
	if err := b.fanout(files); err != nil {
		return err
	}
	return b.server(w, files)
}

// codecs encodes every battery trace under every codec and decodes it
// back, sequentially and in parallel. It returns the written files.
func (b *battery) codecs(ts []*trace.Trace) ([]string, error) {
	var files []string
	var decAllocs uint64
	var pdec time.Duration
	for _, c := range trace.Codecs() {
		var enc, dec time.Duration
		var size int
		for i, t := range ts {
			var buf bytes.Buffer
			d, err := b.timed("trace.encode", func() error { return trace.WriteAll(&buf, t, trace.Compression(c)) })
			if err != nil {
				return nil, err
			}
			enc += d
			size += buf.Len()
			data := buf.Bytes()
			path := filepath.Join(b.dir, fmt.Sprintf("t%02d.%s.dpg", i, c))
			if err := os.WriteFile(path, data, 0o644); err != nil {
				return nil, err
			}
			files = append(files, path)
			var got *trace.Trace
			a, err := allocsOf(func() error {
				d, err = b.timed("trace.decode", func() error {
					var err error
					got, err = trace.ReadAll(bytes.NewReader(data))
					return err
				})
				return err
			})
			if err != nil {
				return nil, err
			}
			dec += d
			decAllocs += a
			b.check(got.Len() == t.Len(), "decode of %s (%s)", t.Name, c)
			d, err = b.timed("trace.pdecode", func() error {
				var err error
				got, _, err = trace.ParallelReadAll(bytes.NewReader(data), trace.Workers(0))
				return err
			})
			if err != nil {
				return nil, err
			}
			pdec += d
			b.check(got.Len() == t.Len(), "parallel decode of %s (%s)", t.Name, c)
		}
		b.m["trace.encode_ns_per_event."+c.String()] = nsPerEvent(enc, b.events)
		b.m["trace.file_bytes_per_event."+c.String()] = perUnit(float64(size), b.events, 1)
		b.m["trace.decode_ns_per_event."+c.String()] = nsPerEvent(dec, b.events)
		b.m["trace.decode_bytes_per_s."+c.String()] = float64(size) / dec.Seconds()
	}
	n := uint64(len(trace.Codecs())) * b.events
	b.m["trace.decode_allocs_per_kevent"] = perUnit(float64(decAllocs), n, 1e3)
	b.m["trace.pdecode_ns_per_event"] = nsPerEvent(pdec, n)
	return files, nil
}

// files times the two ways a file job learns its static counts: the footer
// probe, and the sharded pre-pass that dpgrun's WithPreStats forces.
func (b *battery) files(files []string) error {
	const probeReps = 5
	var probe, pre time.Duration
	for _, f := range files {
		for r := 0; r < probeReps; r++ {
			d, err := b.timed("trace.probe", func() error {
				_, err := trace.ScanFooterFile(f)
				return err
			})
			if err != nil {
				return err
			}
			probe += d
		}
		d, err := b.timed("trace.prepass", func() error {
			_, _, err := prePass(f)
			return err
		})
		if err != nil {
			return err
		}
		pre += d
	}
	b.m["trace.probe_us"] = probe.Seconds() * 1e6 / float64(probeReps*len(files))
	b.m["trace.prepass_ns_per_event"] = nsPerEvent(pre, uint64(len(trace.Codecs()))*b.events)
	return nil
}

// model times predictor setup and the model pass per predictor kind, and
// the influence tracking (paths) as the difference DisablePaths makes. It
// returns the context-predictor results for the wire step.
func (b *battery) model(ts []*trace.Trace) ([]*dpg.Result, error) {
	const setupReps = 5
	var results []*dpg.Result
	var allocs uint64
	for _, k := range kinds {
		var setups []float64
		for r := 0; r < setupReps; r++ {
			d, err := b.timed("dpg.setup", func() error {
				bl, err := dpg.NewBuilder(ts[0].Name, ts[0].StaticCount, kindConfig(k))
				if err != nil {
					return err
				}
				_, err = bl.Finish()
				return err
			})
			if err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds()*1e3)
		}
		b.m["dpg.setup_ms."+k.String()] = median(setups)

		var model time.Duration
		for _, t := range ts {
			var r *dpg.Result
			a, err := allocsOf(func() error {
				d, err := b.timed("dpg.model", func() error {
					var err error
					r, err = dpg.RunWith(t, kindConfig(k))
					return err
				})
				model += d
				return err
			})
			if err != nil {
				return nil, err
			}
			allocs += a
			if k == predictor.KindContext {
				results = append(results, r)
			}
		}
		b.m["dpg.model_ns_per_event."+k.String()] = nsPerEvent(model, b.events)
	}
	b.m["dpg.model_allocs_per_kevent"] = perUnit(float64(allocs), uint64(len(kinds))*b.events, 1e3)

	var on, off time.Duration
	var onAllocs, offAllocs uint64
	for _, t := range ts {
		for _, disable := range []bool{false, true} {
			cfg := kindConfig(predictor.KindContext)
			cfg.DisablePaths = disable
			var d time.Duration
			a, err := allocsOf(func() error {
				var err error
				d, err = b.timed("dpg.model", func() error {
					_, err := dpg.RunWith(t, cfg)
					return err
				})
				return err
			})
			if err != nil {
				return nil, err
			}
			if disable {
				off, offAllocs = off+d, offAllocs+a
			} else {
				on, onAllocs = on+d, onAllocs+a
			}
		}
	}
	b.m["dpg.paths_ns_per_event"] = nsPerEvent(on-off, b.events)
	b.m["dpg.paths_allocs_per_kevent"] = perUnit(float64(onAllocs)-float64(offAllocs), b.events, 1e3)
	return results, nil
}

// spec times the epoch-speculative model pass with dpgd's speculation
// settings. spec_useful_frac is the share of unit epochs not served live
// after a divergence.
func (b *battery) spec(ts []*trace.Trace) error {
	var unitEpochs, replayed float64
	for _, k := range kinds {
		var spec time.Duration
		for _, t := range ts {
			var st dpg.SpecStats
			d, err := b.timed("dpg.spec", func() error {
				_, err := dpg.RunSpeculative(t, kindConfig(k), dpgdSpec(&st))
				return err
			})
			if err != nil {
				return err
			}
			spec += d
			unitEpochs += float64(st.Epochs * st.Units)
			replayed += float64(st.Replayed)
		}
		b.m["dpg.spec_ns_per_event."+k.String()] = nsPerEvent(spec, b.events)
	}
	b.m["dpg.spec_useful_frac"] = 1 - frac(replayed, unitEpochs)
	return nil
}

// analysis times each dpgd experiment alone as an observer over the
// in-memory traces, under the context predictor.
func (b *battery) analysis(ts []*trace.Trace) error {
	for _, e := range experimentNames {
		var total time.Duration
		for _, t := range ts {
			reuse, ilp, conf, specs, _ := experimentObservers(predictor.KindContext)
			var obs []analysis.Observer
			switch e {
			case "reuse":
				obs = append(obs, reuse)
			case "ilp":
				obs = append(obs, ilp)
			case "confidence":
				obs = append(obs, conf)
			default:
				for _, s := range specs {
					obs = append(obs, s)
				}
			}
			d, err := b.timed("analysis."+e, func() error { return analysis.ObserveTrace(t, obs...) })
			if err != nil {
				return err
			}
			total += d
		}
		b.m["analysis."+e+"_ns_per_event"] = nsPerEvent(total, b.events)
	}
	return nil
}

// wire round-trips each Result through the dpgd wire codec.
func (b *battery) wire(results []*dpg.Result) error {
	const reps = 5
	var enc, dec time.Duration
	for _, r := range results {
		for i := 0; i < reps; i++ {
			var data []byte
			d, err := b.timed("dpg.wire_encode", func() error {
				var err error
				data, err = dpg.EncodeResult(r, server.ModelVersion)
				return err
			})
			if err != nil {
				return err
			}
			enc += d
			d, err = b.timed("dpg.wire_decode", func() error {
				_, _, err := dpg.DecodeResult(data)
				return err
			})
			if err != nil {
				return err
			}
			dec += d
		}
	}
	n := float64(reps * len(results))
	b.m["dpg.wire_encode_us"] = enc.Seconds() * 1e6 / n
	b.m["dpg.wire_decode_us"] = dec.Seconds() * 1e6 / n
	return nil
}

// fanout runs the battery files as one directory job, split into layers
// (dirJob), and compares the summed per-file time with the fan-out's
// capacity over the job's wall time.
func (b *battery) fanout(files []string) error {
	sorted := append([]string(nil), files...)
	sort.Strings(sorted)
	start := time.Now()
	id := b.t.begin(0, 0, "battery.dir")
	_, busy, err := dirJob(b.t, 0, id, b.dir, sorted, predictor.KindContext)
	b.t.end(id)
	wall := time.Since(start)
	if err != nil {
		return err
	}
	b.m["core.fanout_busy_frac"] = frac(busy.Seconds(), dirParallel*wall.Seconds())
	var merge time.Duration
	for _, s := range b.t.snapshot() {
		if s.Parent == id && s.Name == "dpg.merge" {
			merge += s.dur()
		}
	}
	b.m["dpg.merge_us"] = merge.Seconds() * 1e6
	return nil
}

// server reports the dpgd stage metrics: from the workload's own servers
// when it runs them, else from a short session on a fresh server that
// uploads each lz battery file once, then repeats the first to /analyze
// (a cache hit) and sends it to /result.
func (b *battery) server(w workload, files []string) error {
	l, err := w.serverLoad()
	if err == nil && l == nil {
		l, err = b.session(files)
	}
	if err != nil {
		return err
	}
	d := l.d
	for _, s := range serverStages {
		b.m["server."+s+"_ms"] = d.histMeanMS("dpgd_stage_" + s + "_seconds")
	}
	requests := d["dpgd_uploads_total"]
	b.m["server.cache_hit_frac"] = frac(d["dpgd_cache_hits_total"], d["dpgd_cache_hits_total"]+d["dpgd_cache_misses_total"])
	b.m["server.coalesced_frac"] = frac(d["dpgd_requests_coalesced_total"], requests)
	b.m["server.shed_frac"] = frac(d["dpgd_jobs_shed_total"], requests)
	b.m["server.degraded_frac"] = frac(d["dpgd_jobs_degraded_total"], d["dpgd_computations_total"])
	b.m["server.http_overhead_ms"] = (l.rtts.Seconds() - d["dpgd_stage_total_seconds_sum"]) * 1e3 / float64(l.requests)
	return nil
}

func (b *battery) session(files []string) (*serverLoad, error) {
	s, err := startSession(filepath.Join(b.dir, "store"))
	if err != nil {
		return nil, err
	}
	defer s.close()
	c := newClient()
	defer c.CloseIdleConnections()
	var bodies [][]byte
	for _, f := range files {
		if filepath.Ext(trimExt(f)) == "."+trace.CodecLZ.String() {
			data, err := os.ReadFile(f)
			if err != nil {
				return nil, err
			}
			bodies = append(bodies, data)
		}
	}
	urls := make([]string, len(bodies))
	for i := range bodies {
		urls[i] = s.url + "/analyze?predictor=" + kinds[i%len(kinds)].String()
	}
	urls = append(urls, urls[0], s.url+"/result?predictor="+kinds[0].String())
	bodies = append(bodies, bodies[0], bodies[0])
	l := &serverLoad{requests: len(urls)}
	for i, u := range urls {
		start := time.Now()
		status, _, err := post(c, u, bodies[i])
		l.rtts += time.Since(start)
		if err != nil {
			return nil, err
		}
		if status != 200 {
			return nil, fmt.Errorf("%s: HTTP %d", u, status)
		}
	}
	l.d, err = s.scrape(c)
	return l, err
}

func trimExt(p string) string { return p[:len(p)-len(filepath.Ext(p))] }

// check counts a battery answer that differs from what the workload's
// trace says.
func (b *battery) check(ok bool, format string, args ...any) {
	if !ok {
		b.mismatches++
		fmt.Fprintf(os.Stderr, "perfbench: battery: "+format+" differs\n", args...)
	}
}
