package core

import (
	"fmt"
	"os"
	"slices"

	"repro/internal/analysis"
	"repro/internal/dpg"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// This file declares the suite's streaming experiments once: their
// parameters, the one observer builder that every caller shares (the
// fused engine, the generated-trace pass, and dpgd through
// ExperimentObservers), and the suite's per-source scheduling.
//
// Under TraceFile, one streaming decode of each workload's trace feeds
// every consumer at once — the model pipeline for every suite predictor,
// the correlation model, and the experiment simulators — through the
// observer fan-out (analysis.RunObservers). The first experiment to touch
// a workload pays for the decode; everything after reads cached products.
// A generated trace instead gets one pass per requested experiment, with
// only that experiment's observers: fusing every product there would make
// each experiment pay for all the others (DESIGN.md §11).

// The suite's experiment parameters: the paper's §1.2 confidence and
// speculation study.
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

// StreamingExperiments returns, sorted, the experiments whose simulators
// need neither a model nor static counts, so any decode can carry them:
// the set ExperimentObservers builds and dpgd's ?experiments= accepts.
func StreamingExperiments() []string {
	return []string{"confidence", "ilp", "reuse", "speculation"}
}

// ExperimentProducts holds the streaming experiments' results for one
// trace. An experiment that was not built leaves its field nil.
type ExperimentProducts struct {
	Reuse       *analysis.ReuseStats
	ILP         []analysis.ILPStats        // one per predictor kind
	Confidence  []analysis.ConfidencePoint // thresholds 0..7
	Speculation []analysis.SpecStats       // no-speculation baseline, then thresholds 0, 1, 3, 7
}

// products is everything one pass through an observerSet yields.
type products struct {
	model map[predictor.Kind]*dpg.Result
	corr  *dpg.Result
	ExperimentProducts
}

// observerSet is one trace's observers, built with the suite's
// parameters by newObserverSet; obs rides one decode, then products reads
// the results.
type observerSet struct {
	obs   []analysis.Observer
	kinds []predictor.Kind
	model []*modelObserver // one per kind
	corr  *modelObserver
	reuse *analysis.ReuseSim
	ilp   []*analysis.ILPSim // one per kind
	conf  *analysis.ConfidenceSim
	spec  []*analysis.SpecSim // suiteSpecNever, then suiteSpecThresholds
}

// newObserverSet builds the observers of the named products for one
// trace: "model" (one model pass per kind), "correlation", and the
// streaming experiments, where "ilp" runs one simulator per kind and
// "confidence" and "speculation" run predictor value. name and counts
// feed the model builders, which only "model" and "correlation" use.
func newObserverSet(name string, counts []uint64, kinds []predictor.Kind, value predictor.Kind, ids ...string) (*observerSet, error) {
	o := &observerSet{kinds: kinds}
	addModel := func(cfg dpg.Config) (*modelObserver, error) {
		mo, err := newModelObserver(name, counts, cfg)
		if err == nil {
			o.obs = append(o.obs, mo)
		}
		return mo, err
	}
	for _, id := range ids {
		switch id {
		case "model":
			for _, k := range kinds {
				mo, err := addModel(dpg.Config{Predictor: k.Factory(), PredictorName: k.String()})
				if err != nil {
					return nil, err
				}
				o.model = append(o.model, mo)
			}
		case "correlation":
			var err error
			if o.corr, err = addModel(suiteCorrConfig()); err != nil {
				return nil, err
			}
		case "reuse":
			o.reuse = analysis.NewReuseSim(name, suiteReuseBits)
			o.obs = append(o.obs, o.reuse)
		case "ilp":
			for _, k := range kinds {
				o.ilp = append(o.ilp, analysis.NewILPSim(name, k))
				o.obs = append(o.obs, o.ilp[len(o.ilp)-1])
			}
		case "confidence":
			o.conf = analysis.NewConfidenceSim(value, suiteConfMaxLevel)
			o.obs = append(o.obs, o.conf)
		case "speculation":
			for _, th := range append([]uint8{suiteSpecNever}, suiteSpecThresholds...) {
				o.spec = append(o.spec, analysis.NewSpecSim(name, value, suiteSpecConfig(th)))
				o.obs = append(o.obs, o.spec[len(o.spec)-1])
			}
		default:
			return nil, fmt.Errorf("%w: no observers for experiment %q", ErrConfig, id)
		}
	}
	return o, nil
}

// products reads every built observer's result; call it once the decode
// has finished.
func (o *observerSet) products() *products {
	p := &products{}
	if o.model != nil {
		p.model = make(map[predictor.Kind]*dpg.Result, len(o.model))
		for i, mo := range o.model {
			p.model[o.kinds[i]] = mo.res
		}
	}
	if o.corr != nil {
		p.corr = o.corr.res
	}
	if o.reuse != nil {
		rs := o.reuse.Stats()
		p.Reuse = &rs
	}
	for _, sim := range o.ilp {
		p.ILP = append(p.ILP, sim.Stats())
	}
	if o.conf != nil {
		p.Confidence = o.conf.Points()
	}
	for _, sim := range o.spec {
		p.Speculation = append(p.Speculation, sim.Stats())
	}
	return p
}

// ExperimentObservers builds the simulators of the named streaming
// experiments (see StreamingExperiments) with the suite's parameters,
// predictor k standing in for every suite predictor. Register obs on one
// decode (WithObservers); once it has finished, collect returns the
// products with their stats named name.
func ExperimentObservers(k predictor.Kind, ids []string) (obs []analysis.Observer, collect func(name string) ExperimentProducts, err error) {
	for _, id := range ids {
		if !slices.Contains(StreamingExperiments(), id) {
			return nil, nil, fmt.Errorf("%w: %q is not a streaming experiment %v", ErrConfig, id, StreamingExperiments())
		}
	}
	o, err := newObserverSet("", nil, []predictor.Kind{k}, k, ids...)
	if err != nil {
		return nil, nil, err
	}
	return o.obs, func(name string) ExperimentProducts {
		p := o.products().ExperimentProducts
		if p.Reuse != nil {
			p.Reuse.Name = name
		}
		for i := range p.ILP {
			p.ILP[i].Name = name
		}
		for i := range p.Speculation {
			p.Speculation[i].Name = name
		}
		return p
	}, nil
}

// productsFor returns one workload's products for experiment id (or
// "model"). A trace file answers from its one fused decode, which yields
// every product at once and is cached; a generated trace gets a fresh pass
// with only id's observers.
func (s *Suite) productsFor(name, id string) (*products, error) {
	if path, ok := s.traceFilePath(name); ok {
		return s.fused.get(name, func() (*products, error) { return s.fusedOnce(name, path) })
	}
	t, err := s.traceOnce(name)
	if err != nil {
		return nil, err
	}
	o, err := newObserverSet(t.Name, t.StaticCount, s.suiteKinds(), predictor.KindContext, id)
	if err != nil {
		return nil, err
	}
	if err := analysis.ObserveTrace(t, o.obs...); err != nil {
		return nil, err
	}
	return o.products(), nil
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
// workload's trace file. The experiment products are built only for
// integer workloads — the only ones whose experiments consume them — and
// ilp for all. Order is irrelevant to results (each observer only reads
// the shared events), as the metamorphic tests prove.
func (s *Suite) fusedOnce(name, path string) (*products, error) {
	counts, tname, err := s.fusedCounts(path)
	if err != nil {
		return nil, err
	}
	ids := []string{"model", "ilp"}
	if slices.Contains(intNames(), name) {
		ids = append(ids, "correlation", "reuse", "confidence", "speculation")
	}
	o, err := newObserverSet(tname, counts, s.suiteKinds(), predictor.KindContext, ids...)
	if err != nil {
		return nil, err
	}
	if s.cfg.Progress != nil {
		fmt.Fprintf(s.cfg.Progress, "fusing %-5s (%d observers, one decode) from %s\n", name, len(o.obs), path)
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
	if err := analysis.RunObservers(pr, o.obs...); err != nil {
		return nil, fmt.Errorf("core: streaming %s: %w", path, wrapTraceErr(err))
	}
	return o.products(), nil
}
