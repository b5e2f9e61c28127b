package core

import (
	"fmt"
	"os"
	"sync"

	"repro/internal/analysis"
	"repro/internal/dpg"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// This file is the suite's fused single-pass experiment engine. Under
// TraceFile, one streaming decode of each workload's trace feeds every
// consumer at once — the model pipeline for every suite predictor,
// the correlation model, and the streaming experiment simulators (reuse,
// ILP, confidence, speculation) — through the observer fan-out
// (analysis.RunObservers). The first experiment to touch a workload pays
// for the decode; everything after reads cached products. figures
// -tracedir therefore reads every trace file exactly once (the footer
// probe that recovers the model's static counts reads only frame headers,
// no events), at O(block·workers) peak memory regardless of how many
// experiments run.

// The suite's experiment parameters, shared between the fused engine and
// the renderers so the two can never diverge.
const (
	// suiteConfMaxLevel is the confidence sweep's top threshold (0..7).
	suiteConfMaxLevel = 7
	// suiteReuseBits sizes the reuse buffer (2^16 = 64K entries).
	suiteReuseBits = 16
	// suiteSpecNever is a threshold above counter saturation: the
	// speculation experiment's no-speculation baseline.
	suiteSpecNever = 8
)

// suiteSpecThresholds is the speculation experiment's confidence sweep.
var suiteSpecThresholds = []uint8{0, 1, 3, 7}

// suiteSpecConfig is the speculation experiment's machine: 64-wide,
// 8-cycle recovery, confidence counters saturating at 7.
func suiteSpecConfig(th uint8) analysis.SpecConfig {
	return analysis.SpecConfig{Width: 64, Threshold: th, MaxConfidence: 7, Penalty: 8}
}

// suiteCorrConfig is the correlation experiment's model configuration:
// output prediction keyed by (PC, input values) instead of PC alone.
func suiteCorrConfig() dpg.Config {
	return dpg.Config{
		Predictor:        predictor.KindContext.Factory(),
		PredictorName:    "context+corr",
		CorrelateOutputs: true,
	}
}

// fusedProducts is everything one decode of a workload's trace file
// yields. The model results cover every predictor kind; the experiment
// products (corr, reuse, confidence, speculation) are populated only for
// integer workloads — the only ones whose experiments consume them — and
// ilp for all.
type fusedProducts struct {
	model      map[predictor.Kind]*dpg.Result
	corr       *dpg.Result
	reuse      analysis.ReuseStats
	ilp        []analysis.ILPStats // indexed like Suite.suiteKinds()
	confidence []analysis.ConfidencePoint
	specBase   analysis.SpecStats
	spec       map[uint8]analysis.SpecStats
}

// fusedEntry is the singleflight slot for one workload's fused run.
type fusedEntry struct {
	once sync.Once
	p    *fusedProducts
	err  error
}

// fusedFor returns (and caches) the fused products for one workload's
// trace file. Concurrent callers for the same workload collapse into one
// decode; a failed run is evicted so a later call retries instead of
// replaying a stale error (the same consistency-over-memoisation policy
// as the result cache).
func (s *Suite) fusedFor(name, path string) (*fusedProducts, error) {
	s.mu.Lock()
	fe := s.fused[name]
	if fe == nil {
		fe = &fusedEntry{}
		s.fused[name] = fe
	}
	s.mu.Unlock()
	fe.once.Do(func() {
		fe.p, fe.err = s.fusedOnce(name, path)
	})
	if fe.err != nil {
		s.mu.Lock()
		if s.fused[name] == fe {
			delete(s.fused, name)
		}
		s.mu.Unlock()
	}
	return fe.p, fe.err
}

// fusedCounts recovers the static counts and header name the model
// builders need before the event stream: the footer probe when the file's
// frame structure is intact (no event decode), the sharded pre-pass
// otherwise — which reproduces AnalyzeFile's established error contract
// for damaged files.
func (s *Suite) fusedCounts(path string) ([]uint64, string, error) {
	if fi, err := trace.ScanFooterFile(path); err == nil {
		return fi.Counts, fi.Name, nil
	}
	cfg := config{workers: s.cfg.Workers}
	return scanPrePass(path, &cfg)
}

// fusedOnce runs the one decode that serves every experiment on one
// workload. Observers are registered in a fixed order; order is
// irrelevant to results (each observer only reads the shared events), as
// the metamorphic tests prove.
func (s *Suite) fusedOnce(name, path string) (*fusedProducts, error) {
	counts, tname, err := s.fusedCounts(path)
	if err != nil {
		return nil, err
	}
	isInt := false
	for _, n := range intNames() {
		if n == name {
			isInt = true
			break
		}
	}

	kinds := s.suiteKinds()
	var obs []analysis.Observer
	models := make(map[predictor.Kind]*modelObserver, len(kinds))
	for _, k := range kinds {
		mo, err := newModelObserver(tname, counts, dpg.Config{
			Predictor:     k.Factory(),
			PredictorName: k.String(),
		})
		if err != nil {
			return nil, err
		}
		models[k] = mo
		obs = append(obs, mo)
	}
	ilps := make([]*analysis.ILPSim, len(kinds))
	for i, k := range kinds {
		ilps[i] = analysis.NewILPSim(tname, k)
		obs = append(obs, ilps[i])
	}
	var (
		corr     *modelObserver
		reuse    *analysis.ReuseSim
		conf     *analysis.ConfidenceSim
		specBase *analysis.SpecSim
		specs    map[uint8]*analysis.SpecSim
	)
	if isInt {
		corr, err = newModelObserver(tname, counts, suiteCorrConfig())
		if err != nil {
			return nil, err
		}
		reuse = analysis.NewReuseSim(tname, suiteReuseBits)
		conf = analysis.NewConfidenceSim(predictor.KindContext, suiteConfMaxLevel)
		specBase = analysis.NewSpecSim(tname, predictor.KindContext, suiteSpecConfig(suiteSpecNever))
		obs = append(obs, corr, reuse, conf, specBase)
		specs = make(map[uint8]*analysis.SpecSim, len(suiteSpecThresholds))
		for _, th := range suiteSpecThresholds {
			sim := analysis.NewSpecSim(tname, predictor.KindContext, suiteSpecConfig(th))
			specs[th] = sim
			obs = append(obs, sim)
		}
	}

	if s.cfg.Progress != nil {
		fmt.Fprintf(s.cfg.Progress, "fusing %-5s (%d observers, one decode) from %s\n", name, len(obs), path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	pr, err := trace.NewParallelReader(f, trace.Workers(s.cfg.Workers))
	if err != nil {
		return nil, wrapTraceErr(err)
	}
	defer pr.Close()
	noteDecode(path)
	if err := analysis.RunObservers(pr, obs...); err != nil {
		return nil, fmt.Errorf("core: streaming %s: %w", path, wrapTraceErr(err))
	}

	p := &fusedProducts{model: make(map[predictor.Kind]*dpg.Result, len(models))}
	for k, mo := range models {
		p.model[k] = mo.res
	}
	p.ilp = make([]analysis.ILPStats, len(ilps))
	for i, sim := range ilps {
		p.ilp[i] = sim.Stats()
	}
	if isInt {
		p.corr = corr.res
		p.reuse = reuse.Stats()
		p.confidence = conf.Points()
		p.specBase = specBase.Stats()
		p.spec = make(map[uint8]analysis.SpecStats, len(specs))
		for th, sim := range specs {
			p.spec[th] = sim.Stats()
		}
	}
	return p, nil
}

// --- per-experiment accessors ---------------------------------------------
//
// Each experiment's renderer asks for its product through one of these:
// under TraceFile the fused engine's cached products answer, otherwise the
// experiment runs its simulators over the generated trace itself (still
// one shared pass per experiment, via observeGenerated).

// observeGenerated runs obs over one pass of the workload's generated
// trace, with analysis.RunObservers' delivery and isolation contract.
func (s *Suite) observeGenerated(name string, obs ...analysis.Observer) error {
	t, err := s.traceOnce(name)
	if err != nil {
		return err
	}
	return analysis.ObserveTrace(t, obs...)
}

// correlationResult returns the correlation-model result for one workload.
func (s *Suite) correlationResult(name string) (*dpg.Result, error) {
	if path, ok := s.traceFilePath(name); ok {
		p, err := s.fusedFor(name, path)
		if err != nil {
			return nil, err
		}
		return p.corr, nil
	}
	t, err := s.traceOnce(name)
	if err != nil {
		return nil, err
	}
	return dpg.RunWith(t, suiteCorrConfig())
}

// reuseStats returns the reuse-buffer totals for one workload.
func (s *Suite) reuseStats(name string) (analysis.ReuseStats, error) {
	if path, ok := s.traceFilePath(name); ok {
		p, err := s.fusedFor(name, path)
		if err != nil {
			return analysis.ReuseStats{}, err
		}
		return p.reuse, nil
	}
	sim := analysis.NewReuseSim(name, suiteReuseBits)
	if err := s.observeGenerated(name, sim); err != nil {
		return analysis.ReuseStats{}, err
	}
	return sim.Stats(), nil
}

// confidencePoints returns the confidence sweep for one workload.
func (s *Suite) confidencePoints(name string) ([]analysis.ConfidencePoint, error) {
	if path, ok := s.traceFilePath(name); ok {
		p, err := s.fusedFor(name, path)
		if err != nil {
			return nil, err
		}
		return p.confidence, nil
	}
	sim := analysis.NewConfidenceSim(predictor.KindContext, suiteConfMaxLevel)
	if err := s.observeGenerated(name, sim); err != nil {
		return nil, err
	}
	return sim.Points(), nil
}

// ilpStats returns the dataflow-limit statistics for one workload, one
// entry per predictor kind in suiteKinds order.
func (s *Suite) ilpStats(name string) ([]analysis.ILPStats, error) {
	if path, ok := s.traceFilePath(name); ok {
		p, err := s.fusedFor(name, path)
		if err != nil {
			return nil, err
		}
		return p.ilp, nil
	}
	// One pass drives every predictor's simulator at once: the base
	// timeline is identical across kinds, so the sims differ only in their
	// prediction side.
	kinds := s.suiteKinds()
	sims := make([]*analysis.ILPSim, len(kinds))
	obs := make([]analysis.Observer, len(kinds))
	for i, k := range kinds {
		sims[i] = analysis.NewILPSim(name, k)
		obs[i] = sims[i]
	}
	if err := s.observeGenerated(name, obs...); err != nil {
		return nil, err
	}
	out := make([]analysis.ILPStats, len(sims))
	for i, sim := range sims {
		out[i] = sim.Stats()
	}
	return out, nil
}

// speculationStats returns the no-speculation baseline plus the stats at
// each swept threshold for one workload.
func (s *Suite) speculationStats(name string) (analysis.SpecStats, map[uint8]analysis.SpecStats, error) {
	if path, ok := s.traceFilePath(name); ok {
		p, err := s.fusedFor(name, path)
		if err != nil {
			return analysis.SpecStats{}, nil, err
		}
		return p.specBase, p.spec, nil
	}
	// One pass drives the baseline and every threshold at once: the sims
	// are independent, so the shared pass is byte-identical to running
	// them separately.
	base := analysis.NewSpecSim(name, predictor.KindContext, suiteSpecConfig(suiteSpecNever))
	sims := make(map[uint8]*analysis.SpecSim, len(suiteSpecThresholds))
	all := []analysis.Observer{base}
	for _, th := range suiteSpecThresholds {
		sims[th] = analysis.NewSpecSim(name, predictor.KindContext, suiteSpecConfig(th))
		all = append(all, sims[th])
	}
	if err := s.observeGenerated(name, all...); err != nil {
		return analysis.SpecStats{}, nil, err
	}
	out := make(map[uint8]analysis.SpecStats, len(sims))
	for th, sim := range sims {
		out[th] = sim.Stats()
	}
	return base.Stats(), out, nil
}
