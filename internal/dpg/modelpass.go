package dpg

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// This file is the sequential pass of the pipeline: the predictor and
// classification sweep. It is order-dependent by nature — every event
// updates predictor state the next event's outcomes depend on — so it
// always consumes the stream in execution order, downstream of whatever
// (shardable) pre-pass produced the static counts it needs up front.
//
// The pass allocates in proportion to its live state, not to events. Every
// value record has exactly one owner — its register, its memory word, or
// nobody (an `in` operand's D value) — and goes back to a per-pass free
// list when its owner lets go of it; a recycled record keeps the capacity
// of its uses list and influence storage. Influence sets flow through an
// event as read-only views (influence.go) into the consumed records, the
// merge buffer and the singleton scratch. The produced value's set is
// copied into its own record before the record it replaces is released,
// since an in-place update such as `add $t0,$t0,$t1` reads that record.

// value is the model's record of one live produced value: who produced it,
// whether it was predicted at production, the generator influence it
// carries, and which static consumers have used it (for single- vs
// repeated-use arc classification). A record has one owner at a time and is
// recycled through modelPass.newValue and release; infl's items are the
// record's own storage, which views handed out during an event may share.
type value struct {
	isD       bool
	writeOnce bool // producer's static instruction executes exactly once
	predicted bool
	src       NodeRef // producing node (or D node), for fragment recording
	infl      inflSet
	uses      []useRec
}

// useRec tracks consumptions of one value by one static instruction.
type useRec struct {
	pc         uint32
	count      uint32
	firstLabel ArcLabel // label of the first arc, for retroactive reclassification
}

// repeatedUse returns the repeated-use class for arcs from this value's
// producer: repeated-input use for D nodes, write-once for single-execution
// producers, plain repeated otherwise.
func (v *value) repeatedUse() ArcUse {
	switch {
	case v.isD:
		return UseRepeatedInput
	case v.writeOnce:
		return UseWriteOnce
	default:
		return UseRepeated
	}
}

// genClass returns the generator class of a generating arc sourced at this
// value. Class is a property of the producer: D nodes generate input-data
// (D) predictability, write-once producers W, and everything else control
// (C). (The paper's buckets additionally split C arcs by single/repeated
// use; that split lives in ArcCount, not in the class.)
func (v *value) genClass() GenClass {
	switch {
	case v.isD:
		return GenD
	case v.writeOnce:
		return GenW
	default:
		return GenC
	}
}

// predictorOracle supplies the four predictor verdicts the classification
// sweep consumes. Every call is a pure function of the event stream and the
// Config — which predictor calls happen, with which keys and values, is
// fully determined by each event's fields — so the verdicts can either be
// computed live (livePreds, the ordinary sequential pass) or replayed from
// a recording produced by a run-ahead predictor chain (the speculative
// pass, see speculate.go).
type predictorOracle interface {
	// predictInput runs the input-side predictor for one operand slot:
	// predict, compare against actual, update (immediate update, per the
	// paper's methodology).
	predictInput(pc uint32, slot int, actual uint32) bool
	// predictOutput runs the output-side predictor for the produced value
	// under the given (possibly correlated, see outputKey) key.
	predictOutput(key uint64, actual uint32) bool
	// predictBranch resolves the branch at pc and reports whether the
	// predicted direction matched taken.
	predictBranch(pc uint32, taken bool) bool
	// predictAddr runs the address predictor for the memory access at pc.
	predictAddr(pc uint32, addr uint32) bool
}

// livePreds is the live predictorOracle: the four predictor instances the
// sequential model pass owns, updated in stream order.
type livePreds struct {
	in   predictor.Predictor
	out  predictor.Predictor
	br   *predictor.GShare
	addr *predictor.Stride
}

func (l *livePreds) predictInput(pc uint32, slot int, actual uint32) bool {
	key := inputKey(pc, slot)
	pv, ok := l.in.Predict(key)
	l.in.Update(key, actual)
	return ok && pv == actual
}

func (l *livePreds) predictOutput(key uint64, actual uint32) bool {
	pv, ok := l.out.Predict(key)
	l.out.Update(key, actual)
	return ok && pv == actual
}

func (l *livePreds) predictBranch(pc uint32, taken bool) bool {
	predTaken := l.br.Predict(pc)
	l.br.Update(pc, taken)
	return predTaken == taken
}

func (l *livePreds) predictAddr(pc uint32, addr uint32) bool {
	av, ok := l.addr.Predict(uint64(pc))
	l.addr.Update(uint64(pc), addr)
	return ok && av == addr
}

// modelPass is the sequential predictor/classification pass. It holds every
// piece of order-dependent model state; Builder is its public façade.
type modelPass struct {
	cfg    Config
	oracle predictorOracle

	res         *Result
	staticCount []uint64

	regs [isa.NumRegs]*value
	mem  map[uint32]*value
	free []*value // released records, ready for reuse

	// Generator table, indexed by generator id.
	genClass []GenClass
	genTree  []uint64
	genDepth []uint32
	genPC    []uint32

	runLen   uint64 // current predictable-sequence run length
	scratch  []inflSet
	mergeBuf []inflItem // storage behind the event's merged set
	// singles backs the singleton sets of generators rooted this event:
	// one slot per operand (see processArc) and one for the node.
	singles  [4]inflItem
	nodeIdx  uint64 // index of the dynamic instruction being observed
	finished bool
}

// newModelPass prepares the sequential pass; see NewBuilder for the
// contract (this is its implementation).
func newModelPass(name string, staticCount []uint64, cfg Config) (m *modelPass, err error) {
	if cfg.Predictor == nil {
		return nil, fmt.Errorf("%w: Config.Predictor is required", ErrConfig)
	}
	if cfg.GShareBits == 0 {
		cfg.GShareBits = predictor.DefaultGShareBits
	}
	// Predictor constructors validate their parameters by panicking;
	// convert that into the error taxonomy at this boundary.
	defer func() {
		if r := recover(); r != nil {
			m, err = nil, fmt.Errorf("%w: %v", ErrConfig, r)
		}
	}()
	live := &livePreds{
		in:   cfg.Predictor(),
		br:   predictor.NewGShare(cfg.GShareBits),
		addr: predictor.NewStride(predictor.DefaultTableBits),
	}
	if cfg.SharedInputOutput {
		live.out = live.in
	} else {
		live.out = cfg.Predictor()
	}
	predName := cfg.PredictorName
	if predName == "" {
		predName = live.in.Name()
	}
	return newModelPassOracle(name, staticCount, cfg, predName, live), nil
}

// newModelPassOracle prepares a sequential pass whose predictor verdicts
// come from an already-built oracle. The speculative committer uses it to
// run the classification sweep against recorded outcomes without owning
// live predictor instances.
func newModelPassOracle(name string, staticCount []uint64, cfg Config, predName string, o predictorOracle) *modelPass {
	if cfg.GShareBits == 0 {
		cfg.GShareBits = predictor.DefaultGShareBits
	}
	m := &modelPass{
		cfg:         cfg,
		oracle:      o,
		staticCount: staticCount,
		mem:         make(map[uint32]*value),
		res: &Result{
			Name:      name,
			Predictor: predName,
		},
	}
	if cfg.GraphLimit > 0 {
		m.res.Graph = &Fragment{}
	}
	return m
}

// newValue returns a cleared value record, reusing a released one (and the
// capacity of its uses and influence storage) when there is one.
func (m *modelPass) newValue() *value {
	n := len(m.free)
	if n == 0 {
		return &value{}
	}
	v := m.free[n-1]
	m.free = m.free[:n-1]
	*v = value{uses: v.uses[:0], infl: inflSet{items: v.infl.items[:0]}}
	return v
}

// release returns a record nobody holds any more to the free list. Views
// into its influence storage stay valid until the next newValue.
func (m *modelPass) release(v *value) {
	if v != nil {
		m.free = append(m.free, v)
	}
}

// newDValue creates a fresh D node's value record.
func (m *modelPass) newDValue() *value {
	m.res.DNodes++
	v := m.newValue()
	v.isD = true
	v.src = NodeRef{ID: m.res.DNodes - 1, D: true}
	return v
}

// singleInfl returns a view of the one-generator set {gen at distance 0},
// backed by singles[slot].
func (m *modelPass) singleInfl(slot int, gen uint32) inflSet {
	m.singles[slot] = inflItem{gen: gen}
	return inflSet{items: m.singles[slot : slot+1 : slot+1]}
}

// regValue returns the live value in register r, creating a D record for
// initial machine state (e.g. $sp, $gp set at startup) on first read.
func (m *modelPass) regValue(r uint8) *value {
	if m.regs[r] == nil {
		m.regs[r] = m.newDValue()
	}
	return m.regs[r]
}

// memValue returns the live value at the (word-aligned) address, creating a
// D record for statically allocated or never-written data on first read.
// Dependence tracking is word-granular; byte accesses map to their word.
func (m *modelPass) memValue(addr uint32) *value {
	v := m.mem[addr]
	if v == nil {
		v = m.newDValue()
		m.mem[addr] = v
	}
	return v
}

// newGen allocates a generator instance of class c, attributed to the
// static instruction at pc (for generating arcs, the consumer whose input
// stream became predictable), and returns its id.
func (m *modelPass) newGen(c GenClass, pc uint32) uint32 {
	id := uint32(len(m.genClass))
	m.genClass = append(m.genClass, c)
	m.genTree = append(m.genTree, 0)
	m.genDepth = append(m.genDepth, 0)
	m.genPC = append(m.genPC, pc)
	m.res.Trees.ClassGens[c]++
	return id
}

// recordPropagatingElement accounts one propagating node or arc whose
// influence set is s (distances already include this element).
func (m *modelPass) recordPropagatingElement(s inflSet) {
	if m.cfg.DisablePaths {
		return
	}
	ps := &m.res.Path
	ps.Elems++
	mask := 0
	for _, it := range s.items {
		mask |= 1 << m.genClass[it.gen]
		m.genTree[it.gen]++
		if d := it.dist + s.off; d > m.genDepth[it.gen] {
			m.genDepth[it.gen] = d
		}
	}
	for c := GenClass(0); c < NumGenClass; c++ {
		if mask&(1<<c) != 0 {
			ps.ClassElems[c]++
		}
	}
	ps.ComboElems[mask]++
	if s.over {
		ps.NumGenHist[MaxTrackedGens+1]++
	} else {
		ps.NumGenHist[len(s.items)]++
	}
	ps.DistHist[BucketOf(s.maxDist())]++
}

// processArc accounts the dependence arc from v to the consumer's operand
// slot at consumerPC whose prediction outcome is consumerPred. It returns
// the influence contribution flowing into the consumer (empty unless the
// consumer-side prediction was correct), a view valid for this event.
func (m *modelPass) processArc(v *value, slot int, consumerPC uint32, consumerPred bool, consumedVal uint32) inflSet {
	label := arcLabel(v.predicted, consumerPred)
	m.res.Arcs++
	if v.isD {
		m.res.DArcs++
	}
	if g := m.res.Graph; g != nil && m.nodeIdx < uint64(m.cfg.GraphLimit) {
		g.Arcs = append(g.Arcs, FragmentArc{
			From: v.src, To: m.nodeIdx, Label: label, Value: consumedVal,
		})
	}

	// Single- vs repeated-use classification, with retroactive promotion of
	// the first arc once a second use by the same static consumer appears.
	use := UseSingle
	found := false
	for i := range v.uses {
		if v.uses[i].pc == consumerPC {
			u := &v.uses[i]
			u.count++
			use = v.repeatedUse()
			if u.count == 2 {
				m.res.ArcCount[UseSingle][u.firstLabel]--
				m.res.ArcCount[use][u.firstLabel]++
			}
			found = true
			break
		}
	}
	if !found {
		v.uses = append(v.uses, useRec{pc: consumerPC, count: 1, firstLabel: label})
	}
	m.res.ArcCount[use][label]++

	if m.cfg.DisablePaths {
		return inflSet{}
	}
	switch label {
	case ArcPP:
		// The arc itself is a propagating element one step farther from
		// every generator than its producer.
		contrib := v.infl.bumped()
		m.recordPropagatingElement(contrib)
		return contrib
	case ArcNP:
		// The arc generates predictability: it roots a new tree.
		return m.singleInfl(slot, m.newGen(v.genClass(), consumerPC))
	default: // ArcPN terminates, ArcNN propagates unpredictability
		return inflSet{}
	}
}

// inputKey derives the input-predictor key for (pc, operand slot). Slots 0
// and 1 are register operands; slot 2 is the memory/input data operand.
func inputKey(pc uint32, slot int) uint64 {
	return uint64(pc)<<2 | uint64(slot)
}

// outputKey derives the output-predictor key for the instruction at pc:
// the PC alone, or the PC correlated with the source operand values under
// Config.CorrelateOutputs.
func outputKey(cfg *Config, pc uint32, e *trace.Event) uint64 {
	if cfg.CorrelateOutputs {
		return correlationKey(pc, e)
	}
	return uint64(pc)
}

// Observe feeds one dynamic instruction to the pass. Events with
// out-of-range fields — which would otherwise index past the register
// file or the static-count table — are rejected with an error matching
// ErrMalformedEvent and leave the model state untouched.
func (m *modelPass) Observe(e *trace.Event) error {
	if m.finished {
		return fmt.Errorf("%w: Observe after Finish", ErrConfig)
	}
	if err := m.checkEvent(e); err != nil {
		return err
	}
	res := m.res
	m.nodeIdx = res.Nodes
	res.Nodes++
	pc := e.PC
	op := e.Op

	hasImm := e.HasImm
	anyP, anyN := false, false
	contribs := m.scratch[:0]
	dataSlot, dataIsMem, isPass := isa.DataSlot(op)
	dataPred := false
	var inD *value // an `in` operand's D value, which nobody holds

	// Register source operands. Reads of $0 are immediates.
	for slot := 0; slot < int(e.NSrc); slot++ {
		r := e.SrcReg[slot]
		if r == 0 {
			hasImm = true
			continue
		}
		v := m.regValue(r)
		pred := m.oracle.predictInput(pc, slot, e.SrcVal[slot])
		contrib := m.processArc(v, slot, pc, pred, e.SrcVal[slot])
		if pred {
			anyP = true
			if len(contrib.items) > 0 {
				contribs = append(contribs, contrib)
			}
		} else {
			anyN = true
		}
		if isPass && !dataIsMem && slot == dataSlot {
			dataPred = pred
		}
	}

	// Memory/input data operand of loads and `in`.
	if isa.IsLoad(op) || op == isa.OpIn {
		var v *value
		if op == isa.OpIn {
			v = m.newDValue() // every program input word is a fresh D node
			inD = v
		} else {
			v = m.memValue(e.Addr &^ 3)
		}
		pred := m.oracle.predictInput(pc, 2, e.MemVal)
		contrib := m.processArc(v, 2, pc, pred, e.MemVal)
		if pred {
			anyP = true
			if len(contrib.items) > 0 {
				contribs = append(contribs, contrib)
			}
		} else {
			anyN = true
		}
		dataPred = pred
	}

	// Address-prediction extension (paper §1): cross-tabulate effective-
	// address vs data predictability at memory instructions. The address
	// predictor is a per-PC 2-delta stride predictor, the form first
	// proposed for addresses; it is observational only and never feeds
	// classification.
	if isa.MemWidth(op) != 0 {
		addrP := m.oracle.predictAddr(pc, e.Addr)
		ai, di := 0, 0
		if addrP {
			ai = 1
		}
		if dataPred {
			di = 1
		}
		m.res.Addr.Count[ai][di]++
		if isa.IsLoad(op) {
			m.res.Addr.Loads++
		} else {
			m.res.Addr.Stores++
		}
	}

	// Output prediction and node classification.
	classified := false
	outP := false
	switch {
	case isa.IsBranch(op):
		outP = m.oracle.predictBranch(pc, e.Taken)
		classified = true
	case isa.WritesValue(op):
		if isPass {
			// Memory instructions and register-indirect jumps copy the
			// consumer-side prediction of their data input; they never
			// consult the output predictor and never generate (paper §3).
			outP = dataPred
		} else {
			outP = m.oracle.predictOutput(outputKey(&m.cfg, pc, e), e.DstVal)
		}
		classified = true
	default:
		res.NeutralNodes++
	}

	var outInfl inflSet
	if classified {
		class := classifyNode(anyP, anyN, hasImm, outP)
		res.NodeCount[class]++
		res.NodeByGroup[GroupOf(op)][class]++
		if isa.IsBranch(op) {
			res.Branch.Count[class]++
			res.Branch.Branches++
			if outP {
				res.Branch.Correct++
			}
		}
		if !m.cfg.DisablePaths {
			switch {
			case class.Propagates():
				merged := mergeInfl(contribs, MaxTrackedGens, &m.mergeBuf)
				outInfl = merged.bumped()
				m.recordPropagatingElement(outInfl)
			case class.Generates():
				outInfl = m.singleInfl(3, m.newGen(genClassForNode(class), pc))
			}
		}
	}

	// Install the produced value for downstream consumers. A value nobody
	// would hold (jr's target, which flows to control, and writes to $0)
	// gets no record. The new record takes a copy of outInfl before the
	// record it replaces, which outInfl may view, is released.
	if isa.WritesValue(op) && !isa.IsBranch(op) && op != isa.OpJr &&
		(isa.IsStore(op) || e.DstReg != isa.NoReg && e.DstReg != 0) {
		nv := m.newValue()
		nv.writeOnce = int(pc) < len(m.staticCount) && m.staticCount[pc] == 1
		nv.predicted = outP
		nv.src = NodeRef{ID: m.nodeIdx}
		nv.infl = inflSet{items: append(nv.infl.items, outInfl.items...), off: outInfl.off, over: outInfl.over}
		if isa.IsStore(op) {
			addr := e.Addr &^ 3
			m.release(m.mem[addr])
			m.mem[addr] = nv
		} else {
			// For jalr this attaches the (pass-through) target prediction
			// outcome to the written return address — a simplification;
			// indirect calls are rare in the workloads.
			m.release(m.regs[e.DstReg])
			m.regs[e.DstReg] = nv
		}
	}

	if g := res.Graph; g != nil && m.nodeIdx < uint64(m.cfg.GraphLimit) {
		fn := FragmentNode{ID: m.nodeIdx, PC: pc, Op: op, HasImm: hasImm, Classified: classified}
		if classified {
			fn.Class = classifyNode(anyP, anyN, hasImm, outP)
		}
		g.Nodes = append(g.Nodes, fn)
	}

	// Predictable contiguous sequences (§4.6): an instruction belongs to a
	// run when all its inputs and outputs were predicted correctly
	// (vacuously true for input- and output-less instructions like j/nop).
	if !anyN && (!classified || outP) {
		m.runLen++
	} else {
		m.endRun()
	}

	m.release(inD)
	m.scratch = contribs[:0] // recycle the backing array for the next event
	return nil
}

// checkEvent validates the event fields the model indexes by, keeping
// every downstream array access in bounds.
func (m *modelPass) checkEvent(e *trace.Event) error {
	return checkModelEvent(e, m.staticCount)
}

// checkModelEvent is the model's event validation as a free function, so
// the speculative predictor chains can apply exactly the same acceptance
// rule as the sequential pass (both sides must stop at the same event).
func checkModelEvent(e *trace.Event, staticCount []uint64) error {
	if !isa.Valid(e.Op) {
		return fmt.Errorf("%w: invalid opcode %d", ErrMalformedEvent, e.Op)
	}
	if e.NSrc > 2 {
		return fmt.Errorf("%w: %d source operands", ErrMalformedEvent, e.NSrc)
	}
	for i := uint8(0); i < e.NSrc; i++ {
		if e.SrcReg[i] >= isa.NumRegs {
			return fmt.Errorf("%w: source register %d out of range", ErrMalformedEvent, e.SrcReg[i])
		}
	}
	if e.DstReg != isa.NoReg && e.DstReg >= isa.NumRegs {
		return fmt.Errorf("%w: destination register %d out of range", ErrMalformedEvent, e.DstReg)
	}
	if staticCount != nil && int(e.PC) >= len(staticCount) {
		return fmt.Errorf("%w: pc %d out of range (%d static)", ErrMalformedEvent, e.PC, len(staticCount))
	}
	return nil
}

// endRun closes the current predictable sequence, if any.
func (m *modelPass) endRun() {
	if m.runLen == 0 {
		return
	}
	n := m.runLen
	m.runLen = 0
	bk := BucketOf(uint32(min(n, 1<<31-1)))
	m.res.Seq.InstrByLen[bk] += n
	m.res.Seq.RunsByLen[bk]++
	m.res.Seq.PredictableInstrs += n
}

// Finish closes the run and folds the generator table into TreeStats. The
// pass must not be used afterwards.
func (m *modelPass) Finish() (*Result, error) {
	if m.finished {
		return nil, fmt.Errorf("%w: Finish called twice", ErrConfig)
	}
	m.finished = true
	m.endRun()
	ts := &m.res.Trees
	if !m.cfg.DisablePaths {
		m.res.GenPoints = make(map[uint32]*GenPoint)
	}
	for id := range m.genClass {
		depth := m.genDepth[id]
		size := m.genTree[id]
		bk := BucketOf(depth)
		ts.GensByDepth[bk]++
		ts.SizeByDepth[bk] += size
		ts.Gens++
		ts.Size += size
		if m.res.GenPoints != nil {
			pc := m.genPC[id]
			gp := m.res.GenPoints[pc]
			if gp == nil {
				gp = &GenPoint{PC: pc}
				m.res.GenPoints[pc] = gp
			}
			gp.Gens++
			gp.TreeSize += size
		}
	}
	return m.res, nil
}

// correlationKey folds the instruction's source operand values into its
// output-predictor key (Config.CorrelateOutputs).
func correlationKey(pc uint32, e *trace.Event) uint64 {
	h := uint64(pc)*0x9e3779b97f4a7c15 + 0x100
	for i := uint8(0); i < e.NSrc; i++ {
		h = (h ^ uint64(e.SrcVal[i])) * 0x100000001b3
	}
	return h
}
