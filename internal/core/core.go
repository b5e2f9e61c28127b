// Package core is the public facade of the predictability-model library.
// It ties the substrates together: assemble or load a program, execute it
// into a trace, run the DPG model with a chosen predictor, and reproduce
// the paper's experiments.
//
// Quick use:
//
//	w, _ := workloads.ByName("gcc")
//	tr, _ := w.Trace()
//	res, err := core.RunTrace(tr, core.WithKind(predictor.KindContext))
//	if err != nil { ... }
//	fmt.Println(res.Pct(res.NodeProp()))
//
// or, for the paper's full evaluation, build a Suite and run experiments:
//
//	s := core.NewSuite(core.SuiteConfig{})
//	s.Run("fig5", os.Stdout)
package core

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/analysis"
	"repro/internal/dpg"
	"repro/internal/predictor"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// config is the resolved form of the public options: the model
// configuration plus the trace-ingestion knobs AnalyzeFile honours
// (decode workers, lenient decoding, stats surfacing). RunTrace operates
// on an already-decoded trace, so it uses only the model half.
type config struct {
	model     dpg.Config
	workers   int
	lenient   bool
	statsOut  *trace.Stats
	preStats  *dpg.PreStats
	ctx       context.Context
	observers []analysis.Observer
}

// Option configures RunTrace and AnalyzeFile.
type Option func(*config)

// WithKind selects one of the paper's predictors (default: context-based).
func WithKind(k predictor.Kind) Option {
	return func(c *config) {
		c.model.Predictor = k.Factory()
		c.model.PredictorName = k.String()
	}
}

// WithPredictor installs a custom value predictor through its factory. The
// model instantiates it twice (input side and output side).
func WithPredictor(name string, f predictor.Factory) Option {
	return func(c *config) {
		c.model.Predictor = f
		c.model.PredictorName = name
	}
}

// WithWorkers makes AnalyzeFile decode the trace file with n concurrent
// block decoders (0 = all cores) and shard its pre-pass n ways; the
// default is 1, every block decoded inline. The concurrent decoder runs
// the same block decoder and accounting as the inline one, so results are
// identical; only ingestion throughput changes. RunTrace, which takes an
// already-decoded trace, ignores the option.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithLenientTrace makes AnalyzeFile resynchronise past corrupt or
// truncated trace regions instead of failing, analysing the surviving
// events (the library-side equivalent of dpgrun -strict=false). Combine
// with WithTraceStats to observe what was skipped.
func WithLenientTrace() Option {
	return func(c *config) { c.lenient = true }
}

// WithTraceStats points at a location AnalyzeFile fills with the decode
// summary — the same trace.Stats behind dpgrun's corruption report.
func WithTraceStats(st *trace.Stats) Option {
	return func(c *config) { c.statsOut = st }
}

// WithGraphLimit records the DPG fragment (nodes and labeled arcs, paper
// Fig. 3) for the first n dynamic instructions into Result.Graph.
func WithGraphLimit(n int) Option {
	return func(c *config) { c.model.GraphLimit = n }
}

// WithPreStats points at a location AnalyzeFile fills with the pre-pass
// summary (dynamic instruction count, PC universe, arc/D-node shape) —
// available before the model pass runs, without materializing the trace.
func WithPreStats(ps *dpg.PreStats) Option {
	return func(c *config) { c.preStats = ps }
}

// WithObservers registers streaming experiment observers
// (analysis.Observer) onto AnalyzeFile's decode: one pass over the trace
// serves the model and every observer (via analysis.RunObservers), so a
// multi-experiment analysis still reads the file exactly once at
// O(block·workers) memory. Observers receive every event in stream order
// on one goroutine; their results accumulate in the caller-owned observer
// objects. A panicking observer is isolated into a typed
// *analysis.ObserverError joined into the returned error without
// corrupting sibling observers; as with any AnalyzeFile failure, the
// returned Result is nil on error (the observers' own accumulated state
// remains readable regardless).
func WithObservers(obs ...analysis.Observer) Option {
	return func(c *config) { c.observers = append(c.observers, obs...) }
}

// WithContext binds an analysis to ctx: once ctx is cancelled or its
// deadline passes, AnalyzeFile aborts promptly — decode workers and the
// pre-pass stop within the current block, and the model pass with them —
// and returns an error matching ErrAborted (and the context's own error
// via errors.Is). AnalyzeFiles additionally stops launching new files once
// the context ends, marking the unstarted ones with ErrAborted. A nil ctx
// (the default) disables cancellation entirely.
func WithContext(ctx context.Context) Option {
	return func(c *config) { c.ctx = ctx }
}

// ctxErr reports the config's context error (nil without WithContext or
// while the context is live).
func (c *config) ctxErr() error {
	if c.ctx == nil {
		return nil
	}
	return c.ctx.Err()
}

// buildConfig folds the options over the default configuration: the
// context predictor and one decode worker.
// Option closures that panic — e.g. a Kind out of range — are converted
// into ErrConfig at this boundary.
func buildConfig(opts []Option) (cfg config, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrConfig, r)
		}
	}()
	cfg.workers = 1
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.model.Predictor == nil {
		cfg.model.Predictor = predictor.KindContext.Factory()
		cfg.model.PredictorName = predictor.KindContext.String()
	}
	return cfg, nil
}

// RunTrace runs the predictability model over a trace. It is the panic-free
// public entry point: a nil trace, invalid predictor configuration, or
// out-of-range event fields produce an error matching ErrConfig /
// ErrMalformedEvent instead of crashing, so externally produced traces can
// be fed without trust.
func RunTrace(t *trace.Trace, opts ...Option) (*dpg.Result, error) {
	if t == nil {
		return nil, fmt.Errorf("%w: nil trace", ErrConfig)
	}
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	return dpg.RunWith(t, cfg.model)
}

// SuiteConfig parameterises a full evaluation run.
type SuiteConfig struct {
	// Scale multiplies every workload's default rounds (1.0 if zero).
	// Scaling down speeds up the full figure set for smoke runs.
	Scale float64
	// Seed selects the workload input seed (1 if zero).
	Seed uint64
	// Parallel bounds the number of concurrent model runs during
	// Precompute (and RunAll, which precomputes first). Zero or one means
	// sequential. Under TraceFile the unit of work is one workload's fused
	// decode, so each concurrent pass holds that workload's full observer
	// set — every model and experiment simulator — in memory at once.
	Parallel int
	// Progress, if non-nil, receives one line per model run.
	Progress io.Writer
	// TraceSource, if non-nil, replaces workload trace generation: it
	// receives the workload name, the scaled round count, and the seed.
	// Tests use it to source traces from files or to inject faults.
	TraceSource func(name string, rounds int, seed uint64) (*trace.Trace, error)
	// TraceFile, if non-nil, maps a workload name to a trace file path
	// (see TraceDir). Every experiment then reads the fused engine's
	// single streaming decode of that file — the model runs for every
	// suite predictor plus every streaming experiment observer share one pass
	// (analysis.RunObservers), so each trace file is read exactly once per
	// suite and every figure and table runs at O(block·workers) peak
	// memory, never materializing a trace.Trace. Workloads the lookup
	// declines fall back to TraceSource/generation.
	TraceFile func(name string) (path string, ok bool)
	// Workers bounds the concurrent decode/pre-pass workers per streamed
	// file when TraceFile is active (0 = all cores).
	Workers int
	// PaperCorpus restricts the suite to the paper's original corpus: the
	// twelve SPEC95-modeled workloads and the three predictors of the
	// source paper (last-value, stride, context). The default (false) runs
	// the extended corpus — the graph scenario pack (bfs/pgr/ccp) and the
	// tage/ldbp predictors included — so figures gain GRAPH average rows
	// and T/D columns. PaperCorpus exists so the original figure set stays
	// reproducible byte-for-byte next to the extensions.
	PaperCorpus bool
}

// Suite caches traces and model results across the paper's experiments so
// regenerating every figure touches each (workload, predictor) pair once.
// Suites are safe for concurrent use; independent model runs proceed in
// parallel (one model run never blocks another).
type Suite struct {
	cfg SuiteConfig

	traces  memo[*trace.Trace] // by workload
	results memo[*dpg.Result]  // by "workload/predictor"
	fused   memo[*products]    // by workload, under TraceFile

	mu   sync.Mutex
	done map[string]int // predictor runs completed per workload
}

// NewSuite prepares an experiment suite.
func NewSuite(cfg SuiteConfig) *Suite {
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &Suite{cfg: cfg, done: make(map[string]int)}
}

// Result returns (and caches) the model result for one workload and
// predictor. The trace is released once every suite predictor has
// consumed it. Distinct (workload, predictor) pairs compute concurrently.
func (s *Suite) Result(name string, kind predictor.Kind) (*dpg.Result, error) {
	return s.results.get(name+"/"+kind.String(), func() (*dpg.Result, error) {
		if _, ok := s.traceFilePath(name); ok {
			// Streaming path: the fused engine's single decode of the file
			// serves this model run and every other experiment on the
			// workload. Nothing enters the trace cache and nothing is ever
			// materialized.
			p, err := s.productsFor(name, "model")
			if err != nil {
				return nil, err
			}
			if r := p.model[kind]; r != nil {
				return r, nil
			}
			return nil, fmt.Errorf("%w: predictor %s is outside the suite's corpus %v", ErrConfig, kind, s.suiteKinds())
		}
		t, err := s.traces.get(name, func() (*trace.Trace, error) { return s.traceOnce(name) })
		if err != nil {
			return nil, err
		}
		if s.cfg.Progress != nil {
			fmt.Fprintf(s.cfg.Progress, "running %-5s with %-10s (%d events)\n", name, kind, t.Len())
		}
		res, err := dpg.Run(t, kind)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.done[name]++
		last := s.done[name] >= len(s.suiteKinds())
		s.mu.Unlock()
		if last {
			s.traces.drop(name) // free the trace memory; recompute if needed again
		}
		return res, nil
	})
}

// Precompute runs every (workload, predictor) model pass up front, using up
// to cfg.Parallel concurrent runs. Subsequent experiments then only read
// cached results. A workload under TraceFile is one job, not one per
// predictor: its single fused decode yields every predictor's result, so
// per-predictor jobs would only queue workers behind that one decode.
func (s *Suite) Precompute() error {
	par := s.cfg.Parallel
	if par < 1 {
		par = 1
	}
	type job struct {
		name string
		kind predictor.Kind
	}
	jobs := make(chan job)
	errs := make(chan error, par)
	var wg sync.WaitGroup
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if _, err := s.Result(j.name, j.kind); err != nil {
					select {
					case errs <- err:
					default:
					}
				}
			}
		}()
	}
	for _, name := range s.suiteNames() {
		for _, k := range s.suiteKinds() {
			jobs <- job{name: name, kind: k}
			if _, ok := s.traceFilePath(name); ok {
				break
			}
		}
	}
	close(jobs)
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// resultsFor collects results for a set of workloads under one predictor.
func (s *Suite) resultsFor(names []string, kind predictor.Kind) ([]*dpg.Result, error) {
	out := make([]*dpg.Result, 0, len(names))
	for _, n := range names {
		r, err := s.Result(n, kind)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func intNames() []string {
	names := make([]string, 0, 8)
	for _, w := range workloads.Integer() {
		names = append(names, w.Name)
	}
	return names
}

func floatNames() []string {
	names := make([]string, 0, 4)
	for _, w := range workloads.Float() {
		names = append(names, w.Name)
	}
	return names
}

func allNames() []string { return append(intNames(), floatNames()...) }

func graphNames() []string {
	names := make([]string, 0, 3)
	for _, w := range workloads.Graph() {
		names = append(names, w.Name)
	}
	return names
}

// suiteNames returns the workloads the suite's experiments enumerate: the
// paper's twelve, plus the graph scenario pack unless PaperCorpus restricts
// the run. Order is fixed: integer, float, graph.
func (s *Suite) suiteNames() []string {
	if s.cfg.PaperCorpus {
		return allNames()
	}
	return append(allNames(), graphNames()...)
}

// suiteKinds returns the predictor kinds the suite's experiments enumerate:
// the paper's three, or all five (adding tage and ldbp) on the extended
// corpus.
func (s *Suite) suiteKinds() []predictor.Kind {
	if s.cfg.PaperCorpus {
		return predictor.Kinds
	}
	return predictor.AllKinds
}

// experiment is one runnable table or figure: its id, the one-line
// description of what it reproduces, and its renderer.
type experiment struct {
	id, desc string
	render   func(s *Suite, w io.Writer) error
}

// experiments is the suite's one experiment table, in presentation order.
var experiments = []experiment{
	{"table1", "Table 1: benchmark DPG characteristics", (*Suite).table1},
	{"fig5", "Figure 5: overall node and arc predictability", (*Suite).fig5},
	{"fig6", "Figure 6: generation breakdown", func(s *Suite, w io.Writer) error { return s.breakdown("fig6", w) }},
	{"fig7", "Figure 7: propagation breakdown", func(s *Suite, w io.Writer) error { return s.breakdown("fig7", w) }},
	{"fig8", "Figure 8: termination breakdown", func(s *Suite, w io.Writer) error { return s.breakdown("fig8", w) }},
	{"fig9", "Figure 9: generator-class path analysis", (*Suite).fig9},
	{"fig10", "Figure 10: tree depth and aggregate propagation (gcc, context)", (*Suite).fig10},
	{"fig11", "Figure 11: generates per propagate and distances (com/go/gcc, context)", (*Suite).fig11},
	{"fig12", "Figure 12: predictable sequence lengths (INT average)", (*Suite).fig12},
	{"fig13", "Figure 13: branch predictability behavior (INT average)", (*Suite).fig13},
	// Extensions beyond the paper's figures, quantifying its prose claims
	// (see DESIGN.md §5).
	{"attribution", "Extension: node classes by operation group (paper §4.2-4.4 narrative)", (*Suite).attribution},
	{"hotspots", "Extension: static generate points and concentration (paper §4.5 claim)", (*Suite).hotspots},
	{"unpred", "Extension: decomposition of unpredictability (paper §6 future work)", (*Suite).unpredictability},
	{"correlation", "Extension: input-correlated output prediction (paper §6 proposal)", (*Suite).correlation},
	{"reuse", "Extension: instruction reuse potential (paper §1.2/§6)", (*Suite).reuse},
	{"addresses", "Extension: address vs data predictability at memory ops (paper §1)", (*Suite).addresses},
	{"confidence", "Extension: confidence-gated value prediction sweep (paper §1.2)", (*Suite).confidence},
	{"ilp", "Extension: dataflow-limit ILP with and without value prediction (paper §1 / ref [9])", (*Suite).ilp},
	{"speculation", "Extension: width-limited value speculation vs confidence threshold (paper §1.2)", (*Suite).speculation},
}

// Experiments lists the runnable experiment ids with a one-line description
// of the table/figure each reproduces.
func Experiments() map[string]string {
	m := make(map[string]string, len(experiments))
	for _, e := range experiments {
		m[e.id] = e.desc
	}
	return m
}

// ExperimentIDs returns the experiment ids in presentation order.
func ExperimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// Run executes one experiment by id and renders it to w. Panics below the
// experiment code (a bug, not a caller mistake) are converted into errors
// so a long figure-set run reports the failing experiment instead of
// crashing the process.
func (s *Suite) Run(id string, w io.Writer) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: experiment %s: internal panic: %v", ErrConfig, id, r)
		}
	}()
	for _, e := range experiments {
		if e.id == id {
			return e.render(s, w)
		}
	}
	return fmt.Errorf("core: unknown experiment %q (known: %v)", id, ExperimentIDs())
}

// RunAll executes every experiment in order, precomputing the model runs
// in parallel first when the suite is configured for it.
func (s *Suite) RunAll(w io.Writer) error {
	if s.cfg.Parallel > 1 {
		if err := s.Precompute(); err != nil {
			return err
		}
	}
	for _, id := range ExperimentIDs() {
		if err := s.Run(id, w); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	return nil
}

func (s *Suite) table1(w io.Writer) error {
	// DPG characteristics are predictor-independent; use last-value (the
	// cheapest) and share its results with the other figures.
	results, err := s.resultsFor(s.suiteNames(), predictor.KindLast)
	if err != nil {
		return err
	}
	report.WriteTable1(w, analysis.Table1(results))
	return nil
}

func (s *Suite) fig5(w io.Writer) error {
	var rows []analysis.OverallRow
	kinds := s.suiteKinds()
	perKind := map[predictor.Kind][]analysis.OverallRow{}
	for _, name := range s.suiteNames() {
		for _, k := range kinds {
			r, err := s.Result(name, k)
			if err != nil {
				return err
			}
			row := analysis.Overall(r)
			rows = append(rows, row)
			perKind[k] = append(perKind[k], row)
		}
	}
	nInt, nFloat := len(intNames()), len(floatNames())
	for _, k := range kinds {
		rows = append(rows, analysis.AverageOverall(perKind[k][:nInt], "INT"))
	}
	for _, k := range kinds {
		rows = append(rows, analysis.AverageOverall(perKind[k][nInt:nInt+nFloat], "FLOAT"))
	}
	if len(perKind[kinds[0]]) > nInt+nFloat {
		for _, k := range kinds {
			rows = append(rows, analysis.AverageOverall(perKind[k][nInt+nFloat:], "GRAPH"))
		}
	}
	report.WriteOverall(w, rows)
	return nil
}

func (s *Suite) breakdown(id string, w io.Writer) error {
	var gen []analysis.GenRow
	var prop []analysis.PropRow
	var term []analysis.TermRow
	for _, name := range s.suiteNames() {
		for _, k := range s.suiteKinds() {
			r, err := s.Result(name, k)
			if err != nil {
				return err
			}
			switch id {
			case "fig6":
				gen = append(gen, analysis.Generation(r))
			case "fig7":
				prop = append(prop, analysis.Propagation(r))
			case "fig8":
				term = append(term, analysis.Termination(r))
			}
		}
	}
	switch id {
	case "fig6":
		report.WriteGeneration(w, gen)
	case "fig7":
		report.WritePropagation(w, prop)
	case "fig8":
		report.WriteTermination(w, term)
	}
	return nil
}

func (s *Suite) fig9(w io.Writer) error {
	var classRows []analysis.PathClassRow
	byKind := map[predictor.Kind][]*dpg.Result{}
	for _, k := range s.suiteKinds() {
		results, err := s.resultsFor(intNames(), k)
		if err != nil {
			return err
		}
		byKind[k] = results
		var rows []analysis.PathClassRow
		for _, r := range results {
			rows = append(rows, analysis.PathClasses(r))
		}
		classRows = append(classRows, analysis.AveragePathClasses(rows, "INT"))
	}
	report.WritePathClasses(w, classRows)

	combos := analysis.Combos(byKind[predictor.KindContext], 24)
	report.WriteCombos(w, combos,
		func(mask int) float64 { return analysis.ComboPctFor(byKind[predictor.KindLast], mask) },
		func(mask int) float64 { return analysis.ComboPctFor(byKind[predictor.KindStride], mask) },
	)
	return nil
}

func (s *Suite) fig10(w io.Writer) error {
	r, err := s.Result("gcc", predictor.KindContext)
	if err != nil {
		return err
	}
	report.WriteTrees(w, analysis.Trees(r))
	return nil
}

func (s *Suite) fig11(w io.Writer) error {
	var rows []analysis.InfluenceCDFs
	for _, name := range []string{"com", "go", "gcc"} {
		r, err := s.Result(name, predictor.KindContext)
		if err != nil {
			return err
		}
		rows = append(rows, analysis.Influence(r))
	}
	report.WriteInfluence(w, rows)
	return nil
}

func (s *Suite) fig12(w io.Writer) error {
	var rows []analysis.SeqRow
	for _, k := range s.suiteKinds() {
		results, err := s.resultsFor(intNames(), k)
		if err != nil {
			return err
		}
		var per []analysis.SeqRow
		for _, r := range results {
			per = append(per, analysis.Sequences(r))
		}
		rows = append(rows, analysis.AverageSequences(per, "INT"))
	}
	report.WriteSequences(w, rows)
	return nil
}

func (s *Suite) fig13(w io.Writer) error {
	var rows []analysis.BranchRow
	for _, k := range s.suiteKinds() {
		results, err := s.resultsFor(intNames(), k)
		if err != nil {
			return err
		}
		var per []analysis.BranchRow
		for _, r := range results {
			per = append(per, analysis.BranchClasses(r))
		}
		rows = append(rows, analysis.AverageBranches(per, "INT"))
	}
	report.WriteBranches(w, rows)
	// The paper's headline branch observation.
	var fracs []float64
	for _, r := range func() []*dpg.Result {
		out, _ := s.resultsFor(intNames(), predictor.KindContext)
		return out
	}() {
		fracs = append(fracs, analysis.MispredictedWithPredictableInputs(r))
	}
	var sum float64
	for _, f := range fracs {
		sum += f
	}
	if len(fracs) > 0 {
		fmt.Fprintf(w, "mispredicted branches with all-predictable inputs (context, INT avg): %.1f%%\n\n", sum/float64(len(fracs)))
	}
	return nil
}

func (s *Suite) attribution(w io.Writer) error {
	results, err := s.resultsFor(intNames(), predictor.KindContext)
	if err != nil {
		return err
	}
	classes := []dpg.NodeClass{
		dpg.NodeGenNN, dpg.NodeGenIN, // §4.2: compare/logical/shift/branch
		dpg.NodePropPN,                 // §4.3: memory
		dpg.NodeTermPN,                 // §4.4: memory
		dpg.NodeTermPP, dpg.NodeTermPI, // §4.4: context history limits
	}
	report.WriteAttribution(w, analysis.Attribution(results, classes))

	bcls := analysis.GroupShare(results, dpg.NodeGenNN,
		dpg.GroupBranch, dpg.GroupCompare, dpg.GroupLogical, dpg.GroupShift)
	mix := analysis.GroupShare(results, dpg.NodeGenIN,
		dpg.GroupBranch, dpg.GroupCompare, dpg.GroupLogical, dpg.GroupShift)
	mem := analysis.GroupShare(results, dpg.NodeTermPN, dpg.GroupMemory)
	fmt.Fprintf(w, "paper §4.2 check: branch/compare/logical/shift share of n,n->p = %.1f%%, of i,n->p = %.1f%% (paper: 70-95%%)\n", bcls, mix)
	fmt.Fprintf(w, "paper §4.4 check: memory share of p,n->n terminations = %.1f%% (paper: primary cause)\n\n", mem)
	return nil
}

func (s *Suite) hotspots(w io.Writer) error {
	for _, name := range []string{"gcc", "com"} {
		r, err := s.Result(name, predictor.KindContext)
		if err != nil {
			return err
		}
		wl, _ := workloads.ByName(name)
		prog, err := wl.Program()
		if err != nil {
			return err
		}
		disasm := func(pc uint32) string {
			if int(pc) < len(prog.Instrs) {
				return prog.Instrs[pc].String()
			}
			return "?"
		}
		top := analysis.TopGeneratePoints(r, 10)
		report.WriteHotspots(w, name, top, disasm)
		gens, tree := analysis.GenerateConcentration(r, 10)
		fmt.Fprintf(w, "%s: %d static generate points; top 10 contribute %.1f%% of generates and %.1f%% of aggregate propagation\n\n",
			name, analysis.StaticGeneratePoints(r), gens, tree)
	}
	return nil
}

func (s *Suite) unpredictability(w io.Writer) error {
	var rows []analysis.UnpredRow
	kinds := s.suiteKinds()
	perKind := map[predictor.Kind][]analysis.UnpredRow{}
	for _, name := range s.suiteNames() {
		for _, k := range kinds {
			r, err := s.Result(name, k)
			if err != nil {
				return err
			}
			row := analysis.Unpredictability(r)
			rows = append(rows, row)
			perKind[k] = append(perKind[k], row)
		}
	}
	nInt, nFloat := len(intNames()), len(floatNames())
	for _, k := range kinds {
		rows = append(rows, analysis.AverageUnpredictability(perKind[k][:nInt], "INT"))
	}
	for _, k := range kinds {
		rows = append(rows, analysis.AverageUnpredictability(perKind[k][nInt:nInt+nFloat], "FLOAT"))
	}
	if len(perKind[kinds[0]]) > nInt+nFloat {
		for _, k := range kinds {
			rows = append(rows, analysis.AverageUnpredictability(perKind[k][nInt+nFloat:], "GRAPH"))
		}
	}
	report.WriteUnpredictability(w, rows)
	return nil
}

// correlation compares standard PC-keyed output prediction against the
// paper's §6 proposal of correlating output predictions with the
// instruction's current input values, reporting the change in propagation
// and in the p,p->n / p,i->n terminations the proposal targets.
func (s *Suite) correlation(w io.Writer) error {
	fmt.Fprintln(w, "Correlation: output prediction keyed by PC vs (PC, input values) — context predictor")
	fmt.Fprintf(w, "%-6s %14s %14s %18s %18s\n", "bench", "prop% (pc)", "prop% (corr)", "pp/pi->n% (pc)", "pp/pi->n% (corr)")
	for _, name := range intNames() {
		base, err := s.Result(name, predictor.KindContext)
		if err != nil {
			return err
		}
		p, err := s.productsFor(name, "correlation")
		if err != nil {
			return err
		}
		prop := func(r *dpg.Result) float64 { return r.Pct(r.NodeProp() + r.ArcTotal(dpg.ArcPP)) }
		term := func(r *dpg.Result) float64 {
			return r.Pct(r.NodeCount[dpg.NodeTermPP] + r.NodeCount[dpg.NodeTermPI])
		}
		fmt.Fprintf(w, "%-6s %14.1f %14.1f %18.2f %18.2f\n",
			name, prop(base), prop(p.corr), term(base), term(p.corr))
	}
	fmt.Fprintln(w, "note: wholesale correlation fragments the tables (every input combination")
	fmt.Fprintln(w, "warms up separately), so overall propagation drops even where the targeted")
	fmt.Fprintln(w, "p,p->n / p,i->n terminations shrink — evidence that the paper's correlation")
	fmt.Fprintln(w, "proposal must be applied selectively, not as the default output key.")
	fmt.Fprintln(w)
	return nil
}

// reuse reports instruction-reuse potential per integer benchmark next to
// the fully-predictable instruction share, connecting the model's
// predictable regions to the reuse/memoization application of §6.
func (s *Suite) reuse(w io.Writer) error {
	fmt.Fprintln(w, "Reuse: 64K-entry reuse buffer hit rate vs fully predictable instructions (context)")
	fmt.Fprintf(w, "%-6s %10s %12s %12s %16s\n", "bench", "eligible", "reuse%", "load-reuse%", "predictable%")
	for _, name := range intNames() {
		p, err := s.productsFor(name, "reuse")
		if err != nil {
			return err
		}
		rs := p.Reuse
		res, err := s.Result(name, predictor.KindContext)
		if err != nil {
			return err
		}
		loadPct := 0.0
		if rs.Loads > 0 {
			loadPct = 100 * float64(rs.LoadsReused) / float64(rs.Loads)
		}
		predPct := 100 * float64(res.Seq.PredictableInstrs) / float64(res.Nodes)
		fmt.Fprintf(w, "%-6s %10d %12.1f %12.1f %16.1f\n",
			name, rs.Eligible, rs.ReusePct(), loadPct, predPct)
	}
	fmt.Fprintln(w)
	return nil
}

// traceFilePath resolves the workload's trace file under the streaming
// configuration, when one is available.
func (s *Suite) traceFilePath(name string) (string, bool) {
	if s.cfg.TraceFile == nil {
		return "", false
	}
	return s.cfg.TraceFile(name)
}

// traceOnce regenerates a workload trace at the suite's scale without
// touching the result cache (used by experiments that need the raw trace
// even after the standard predictor runs released it). Callers under
// TraceFile never get here: they read the fused engine's single decode of
// the file (see Suite.productsFor).
func (s *Suite) traceOnce(name string) (*trace.Trace, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown workload %q", name)
	}
	rounds := int(float64(w.Rounds) * s.cfg.Scale)
	if rounds < 2 {
		rounds = 2
	}
	if s.cfg.TraceSource != nil {
		return s.cfg.TraceSource(name, rounds, s.cfg.Seed)
	}
	return w.TraceRounds(rounds, s.cfg.Seed)
}

// addresses reports the address/data predictability cross table per
// benchmark — including the paper's dominant termination case, predictable
// address with unpredictable data.
func (s *Suite) addresses(w io.Writer) error {
	fmt.Fprintln(w, "Addresses: effective-address (2-delta stride) vs data predictability at memory ops (context)")
	fmt.Fprintf(w, "%-6s %10s %10s %10s %10s %10s %10s\n",
		"bench", "mem-ops", "a+d+%", "a+d-%", "a-d+%", "a-d-%", "addr-acc%")
	for _, name := range s.suiteNames() {
		r, err := s.Result(name, predictor.KindContext)
		if err != nil {
			return err
		}
		a := r.Addr
		total := a.Loads + a.Stores
		if total == 0 {
			continue
		}
		pct := func(c uint64) float64 { return 100 * float64(c) / float64(total) }
		addrAcc := pct(a.Count[1][0] + a.Count[1][1])
		fmt.Fprintf(w, "%-6s %10d %10.1f %10.1f %10.1f %10.1f %10.1f\n",
			name, total, pct(a.Count[1][1]), pct(a.Count[1][0]), pct(a.Count[0][1]), pct(a.Count[0][0]), addrAcc)
	}
	fmt.Fprintln(w, "a+ = address predicted, d+ = data predicted; a+d- is the paper's dominant p,n->n case")
	fmt.Fprintln(w)
	return nil
}

// confidence sweeps a saturating confidence gate over output-side value
// prediction, showing the coverage/accuracy trade (§1.2: confidence is
// "probably essential for effective value prediction and speculation").
func (s *Suite) confidence(w io.Writer) error {
	fmt.Fprintln(w, "Confidence: coverage%/accuracy% of context value prediction gated at threshold t")
	fmt.Fprintf(w, "%-6s", "bench")
	for th := 0; th <= suiteConfMaxLevel; th++ {
		fmt.Fprintf(w, "        t=%d", th)
	}
	fmt.Fprintln(w)
	for _, name := range intNames() {
		p, err := s.productsFor(name, "confidence")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-6s", name)
		for _, pt := range p.Confidence {
			fmt.Fprintf(w, " %5.1f/%4.1f", pt.CoveragePct, pt.AccuracyPct)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	return nil
}

// ilp reports the dataflow-limit ILP study — the paper's motivating
// application of value prediction (ref [9], exceeding the dataflow limit).
func (s *Suite) ilp(w io.Writer) error {
	fmt.Fprintln(w, "ILP: dataflow-limit instructions/cycle without and with value prediction")
	fmt.Fprintf(w, "%-6s %10s %10s", "bench", "instrs", "base-ILP")
	for _, k := range s.suiteKinds() {
		fmt.Fprintf(w, " %10s %8s", k.Letter()+"-ILP", k.Letter()+"-spd")
	}
	fmt.Fprintln(w)
	for _, name := range s.suiteNames() {
		p, err := s.productsFor(name, "ilp")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-6s %10d", name, p.ILP[0].Instructions)
		first := true
		for _, st := range p.ILP {
			if first {
				fmt.Fprintf(w, " %10.2f", st.ILPBase())
				first = false
			}
			fmt.Fprintf(w, " %10.2f %7.2fx", st.ILPVP(), st.Speedup())
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	return nil
}

// speculation sweeps the confidence threshold of a width-limited
// value-speculating machine, quantifying §1.2: without confidence gating,
// misspeculation recovery can erase (or invert) the speculation win.
func (s *Suite) speculation(w io.Writer) error {
	fmt.Fprintln(w, "Speculation: 64-wide (dataflow-bound) machine, context value prediction, 8-cycle recovery; IPC / misspec% by confidence threshold")
	fmt.Fprintf(w, "%-6s %9s", "bench", "no-spec")
	for _, th := range suiteSpecThresholds {
		fmt.Fprintf(w, "      t=%d", th)
	}
	fmt.Fprintln(w)
	for _, name := range intNames() {
		p, err := s.productsFor(name, "speculation")
		if err != nil {
			return err
		}
		// Speculation[0] is the no-speculation baseline.
		fmt.Fprintf(w, "%-6s %9.2f", name, p.Speculation[0].IPC())
		for _, st := range p.Speculation[1:] {
			fmt.Fprintf(w, " %4.2f/%2.0f%%", st.IPC(), st.MisspecPct())
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	return nil
}
