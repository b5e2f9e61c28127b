package analysis

import (
	"math"
	"testing"

	"repro/internal/dpg"
	"repro/internal/isa"
	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func TestAttributionRowsSum(t *testing.T) {
	r := resultFor(t, "gcc", predictor.KindContext)
	classes := []dpg.NodeClass{dpg.NodeGenNN, dpg.NodeGenIN, dpg.NodeTermPN, dpg.NodePropPN}
	rows := Attribution([]*dpg.Result{r}, classes)
	if len(rows) != len(classes) {
		t.Fatal("row count wrong")
	}
	for _, row := range rows {
		if row.Total == 0 {
			continue
		}
		var sum float64
		for _, p := range row.GroupPct {
			sum += p
		}
		if math.Abs(sum-100) > 1e-6 {
			t.Errorf("%s: group percentages sum to %.4f", row.Class, sum)
		}
	}
}

func TestPaperAttributionClaims(t *testing.T) {
	// The paper (§4.2): 70-95% of n,n->p and i,n->p generation is due to
	// branch, compare, logical and shift instructions. Our workloads land
	// in or above that band.
	results := []*dpg.Result{
		resultFor(t, "gcc", predictor.KindContext),
		resultFor(t, "com", predictor.KindContext),
		resultFor(t, "go", predictor.KindContext),
	}
	share := GroupShare(results, dpg.NodeGenIN,
		dpg.GroupBranch, dpg.GroupCompare, dpg.GroupLogical, dpg.GroupShift)
	if share < 60 {
		t.Errorf("branch/compare/logical/shift share of i,n->p = %.1f%%, paper band is 70-95%%", share)
	}
	// §4.4: p,n->n terminations come primarily from memory instructions,
	// with the remainder mostly adds.
	memAdd := GroupShare(results, dpg.NodeTermPN, dpg.GroupMemory, dpg.GroupAddSub, dpg.GroupFloat)
	if memAdd < 60 {
		t.Errorf("memory+add share of p,n->n = %.1f%%, paper calls these the primary causes", memAdd)
	}
}

func TestGroupShareEmpty(t *testing.T) {
	if GroupShare(nil, dpg.NodeGenNN, dpg.GroupBranch) != 0 {
		t.Error("empty results should give 0")
	}
}

func TestTopGeneratePoints(t *testing.T) {
	r := resultFor(t, "gcc", predictor.KindContext)
	top := TopGeneratePoints(r, 5)
	if len(top) == 0 {
		t.Fatal("no generate points")
	}
	if len(top) > 5 {
		t.Fatal("limit ignored")
	}
	for i := 1; i < len(top); i++ {
		if top[i].TreeSize > top[i-1].TreeSize {
			t.Fatal("not sorted by tree size")
		}
	}
	for _, row := range top {
		if row.Gens == 0 {
			t.Error("generate point with zero generators")
		}
		if row.GensPct < 0 || row.GensPct > 100 || row.TreePct < 0 || row.TreePct > 100 {
			t.Error("percentages out of range")
		}
	}
}

func TestGenerateConcentration(t *testing.T) {
	// The paper's §4.5 conclusion: relatively few generates influence the
	// majority of predictability. With a handful of static points the bulk
	// of aggregate propagation must be covered.
	r := resultFor(t, "gcc", predictor.KindContext)
	gens, tree := GenerateConcentration(r, 10)
	if tree < 50 {
		t.Errorf("top-10 static generate points carry %.1f%% of propagation; expected the majority", tree)
	}
	if gens <= 0 || gens > 100 {
		t.Errorf("gens concentration %.1f%% out of range", gens)
	}
	n := StaticGeneratePoints(r)
	if n == 0 || n > 200 {
		t.Errorf("static generate points = %d, implausible", n)
	}
	// Concentration with k >= all points is exactly 100%.
	_, all := GenerateConcentration(r, n)
	if math.Abs(all-100) > 1e-6 {
		t.Errorf("full concentration = %.4f%%, want 100%%", all)
	}
}

func TestReuse(t *testing.T) {
	w, _ := workloads.ByName("gcc")
	tr, err := w.TraceRounds(30, 1)
	if err != nil {
		t.Fatal(err)
	}
	rs := Reuse(tr, 16)
	if rs.Name != "gcc" {
		t.Error("name lost")
	}
	if rs.Eligible == 0 {
		t.Fatal("no eligible instructions")
	}
	if rs.Reused > rs.Eligible || rs.LoadsReused > rs.Loads {
		t.Error("reuse counts exceed eligible counts")
	}
	// gcc's loop re-executes identical work each round: reuse must be high.
	if rs.ReusePct() < 50 {
		t.Errorf("reuse = %.1f%%, expected substantial on a loop-dominated code", rs.ReusePct())
	}
	// A tiny buffer must not beat a big one.
	small := Reuse(tr, 4)
	if small.ReusePct() > rs.ReusePct()+1e-9 {
		t.Errorf("smaller buffer reuse %.1f%% exceeds larger %.1f%%", small.ReusePct(), rs.ReusePct())
	}
}

func TestReusePanicsOnBadBits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad bits accepted")
		}
	}()
	w, _ := workloads.ByName("fig1")
	tr, _ := w.TraceRounds(2, 1)
	Reuse(tr, 0)
}

func TestReuseEmptyTrace(t *testing.T) {
	empty := &trace.Trace{Name: "empty"}
	rs := Reuse(empty, 8)
	if rs.Eligible != 0 || rs.ReusePct() != 0 {
		t.Error("empty trace should yield zero stats")
	}
}

func TestConfidenceSweep(t *testing.T) {
	w, _ := workloads.ByName("com")
	tr, err := w.TraceRounds(400, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim := NewConfidenceSim(predictor.KindContext, 7)
	if err := ObserveTrace(tr, sim); err != nil {
		t.Fatal(err)
	}
	points := sim.Points()
	if len(points) != 8 {
		t.Fatalf("got %d points, want 8", len(points))
	}
	if points[0].CoveragePct != 100 {
		t.Errorf("threshold 0 coverage = %.1f%%, want 100%%", points[0].CoveragePct)
	}
	for i := 1; i < len(points); i++ {
		if points[i].CoveragePct > points[i-1].CoveragePct+1e-9 {
			t.Fatal("coverage must be non-increasing in the threshold")
		}
	}
	// Gating must buy accuracy: the strictest gate beats ungated.
	if points[7].AccuracyPct <= points[0].AccuracyPct {
		t.Errorf("gated accuracy %.1f%% should beat ungated %.1f%%",
			points[7].AccuracyPct, points[0].AccuracyPct)
	}
}

func TestILPChainExact(t *testing.T) {
	// A fully serial dependence chain: base critical path = chain length.
	tr := trace.New("chain", 1)
	for i := 0; i < 100; i++ {
		tr.Append(trace.Event{
			PC: 0, Op: isa.OpAddi, NSrc: 1,
			SrcReg: [2]uint8{8, 0}, SrcVal: [2]uint32{uint32(i), 0},
			DstReg: 8, DstVal: uint32(i + 1), HasImm: true,
		})
	}
	st := ILP(tr, predictor.KindLast)
	if st.CritPathBase != 100 {
		t.Errorf("serial chain critical path = %d, want 100", st.CritPathBase)
	}
	if st.ILPBase() < 0.99 || st.ILPBase() > 1.01 {
		t.Errorf("serial chain ILP = %.2f, want 1.0", st.ILPBase())
	}
	// Last-value cannot break a +1 chain; stride can (after warm-up).
	if st.Speedup() > 1.01 {
		t.Errorf("last-value speedup on a stride chain = %.2f, want ~1", st.Speedup())
	}
	stStride := ILP(tr, predictor.KindStride)
	if stStride.Speedup() < 10 {
		t.Errorf("stride should collapse the counter chain: speedup %.2f", stStride.Speedup())
	}
}

func TestILPNeverSlowsDown(t *testing.T) {
	// Breaking dependences can only shorten the critical path.
	for _, name := range []string{"com", "gcc", "m88"} {
		w, _ := workloads.ByName(name)
		tr, err := w.TraceRounds(w.Rounds/10+2, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range predictor.Kinds {
			st := ILP(tr, k)
			if st.CritPathVP > st.CritPathBase {
				t.Errorf("%s/%s: VP critical path %d exceeds base %d",
					name, k, st.CritPathVP, st.CritPathBase)
			}
			if st.Instructions != uint64(tr.Len()) {
				t.Error("instruction count wrong")
			}
		}
	}
}

func TestILPEmptyTrace(t *testing.T) {
	st := ILP(&trace.Trace{Name: "empty"}, predictor.KindLast)
	if st.ILPBase() != 0 || st.ILPVP() != 0 || st.Speedup() != 0 {
		t.Error("empty trace should yield zero stats")
	}
}

func TestSpeculateFrontendBound(t *testing.T) {
	// Independent instructions: cycles ~= N/width when nothing speculates.
	tr := trace.New("indep", 1)
	for i := 0; i < 1000; i++ {
		tr.Append(trace.Event{PC: 0, Op: isa.OpLi, DstReg: 8, DstVal: uint32(i), HasImm: true})
	}
	st := speculate(t, tr, predictor.KindLast, SpecConfig{Width: 4, Threshold: 8, Penalty: 8})
	if st.Cycles < 250 || st.Cycles > 260 {
		t.Errorf("frontend-bound cycles = %d, want ~250", st.Cycles)
	}
	if st.Speculations != 0 {
		t.Errorf("threshold above saturation must never speculate (got %d)", st.Speculations)
	}
}

func TestSpeculateChain(t *testing.T) {
	// Serial +1 chain, wide machine: without speculation, dataflow-bound at
	// ~N cycles; with stride speculation the chain collapses.
	tr := trace.New("chain", 1)
	for i := 0; i < 500; i++ {
		tr.Append(trace.Event{
			PC: 0, Op: isa.OpAddi, NSrc: 1,
			SrcReg: [2]uint8{8, 0}, SrcVal: [2]uint32{uint32(i), 0},
			DstReg: 8, DstVal: uint32(i + 1), HasImm: true,
		})
	}
	base := speculate(t, tr, predictor.KindStride, SpecConfig{Width: 64, Threshold: 8, Penalty: 8})
	spec := speculate(t, tr, predictor.KindStride, SpecConfig{Width: 64, Threshold: 1, Penalty: 8})
	if base.Cycles < 500 {
		t.Errorf("unspeculated chain cycles = %d, want >= 500", base.Cycles)
	}
	if spec.IPC() <= 2*base.IPC() {
		t.Errorf("speculated chain IPC %.2f should far exceed base %.2f", spec.IPC(), base.IPC())
	}
	if spec.Misspeculations > spec.Speculations {
		t.Error("misspeculations exceed speculations")
	}
}

func TestSpeculateConfidenceProtects(t *testing.T) {
	// An unpredictable input chain: ungated speculation pays recovery
	// penalties and must not beat a high-threshold gate.
	r := newTestRNG(77)
	tr := trace.New("noise", 2)
	for i := 0; i < 4000; i++ {
		tr.Append(trace.Event{
			PC: 0, Op: isa.OpIn, DstReg: 8, DstVal: 0, MemVal: r(),
		})
		tr.Append(trace.Event{
			PC: 1, Op: isa.OpAdd, NSrc: 2,
			SrcReg: [2]uint8{8, 8}, SrcVal: [2]uint32{r(), r()},
			DstReg: 9, DstVal: r(),
		})
	}
	ungated := speculate(t, tr, predictor.KindContext, SpecConfig{Width: 64, Threshold: 0, Penalty: 8})
	gated := speculate(t, tr, predictor.KindContext, SpecConfig{Width: 64, Threshold: 7, Penalty: 8})
	if ungated.MisspecPct() < gated.MisspecPct() {
		t.Errorf("gating should reduce misspeculation rate: %.1f%% vs %.1f%%",
			ungated.MisspecPct(), gated.MisspecPct())
	}
	if gated.IPC() < ungated.IPC() {
		t.Errorf("on unpredictable data, gated IPC %.2f should be >= ungated %.2f",
			gated.IPC(), ungated.IPC())
	}
}

// newTestRNG returns a deterministic uint32 generator.
func newTestRNG(seed uint32) func() uint32 {
	x := seed
	return func() uint32 {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return x
	}
}

// speculate runs one SpecSim over tr through ObserveTrace.
func speculate(t *testing.T, tr *trace.Trace, kind predictor.Kind, cfg SpecConfig) SpecStats {
	t.Helper()
	sim := NewSpecSim(tr.Name, kind, cfg)
	if err := ObserveTrace(tr, sim); err != nil {
		t.Fatal(err)
	}
	return sim.Stats()
}

func TestSpeculatePanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("width 0 accepted")
		}
	}()
	speculate(t, &trace.Trace{}, predictor.KindLast, SpecConfig{Width: 0})
}
