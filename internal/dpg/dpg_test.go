package dpg

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/vm"
)

// traceOf assembles and runs src, returning its trace.
func traceOf(t *testing.T, src string, input []uint32, limit uint64) *trace.Trace {
	t.Helper()
	prog, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	var in vm.InputSource
	if input != nil {
		in = vm.SliceInput(input)
	}
	tr, err := vm.Trace(prog, in, limit)
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	return tr
}

// mustRun / mustRunWith run the model, failing the test on error.
func mustRun(t *testing.T, tr *trace.Trace, k predictor.Kind) *Result {
	t.Helper()
	r, err := Run(tr, k)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return r
}

func mustRunWith(t *testing.T, tr *trace.Trace, cfg Config) *Result {
	t.Helper()
	r, err := RunWith(tr, cfg)
	if err != nil {
		t.Fatalf("RunWith: %v", err)
	}
	return r
}

// checkInvariants asserts the structural conservation laws every Result
// must satisfy regardless of workload or predictor.
func checkInvariants(t *testing.T, r *Result) {
	t.Helper()
	var nodeSum uint64
	for c := NodeClass(0); c < numNodeClass; c++ {
		nodeSum += r.NodeCount[c]
	}
	if nodeSum+r.NeutralNodes != r.Nodes {
		t.Errorf("node conservation: classes %d + neutral %d != nodes %d", nodeSum, r.NeutralNodes, r.Nodes)
	}
	var arcSum uint64
	for u := ArcUse(0); u < numArcUse; u++ {
		for l := ArcLabel(0); l < numArcLabel; l++ {
			arcSum += r.ArcCount[u][l]
		}
	}
	if arcSum != r.Arcs {
		t.Errorf("arc conservation: %d != %d", arcSum, r.Arcs)
	}
	if r.DArcs > r.Arcs {
		t.Error("D arcs exceed arcs")
	}
	// Sequence accounting.
	var seqInstr uint64
	for _, c := range r.Seq.InstrByLen {
		seqInstr += c
	}
	if seqInstr != r.Seq.PredictableInstrs {
		t.Errorf("sequence instruction conservation: %d != %d", seqInstr, r.Seq.PredictableInstrs)
	}
	if r.Seq.PredictableInstrs > r.Nodes {
		t.Error("more predictable instructions than nodes")
	}
	// Group attribution conserves node classes.
	for c := NodeClass(0); c < numNodeClass; c++ {
		var byGroup uint64
		for g := OpGroup(0); g < NumOpGroups; g++ {
			byGroup += r.NodeByGroup[g][c]
		}
		if byGroup != r.NodeCount[c] {
			t.Errorf("class %s: group attribution %d != count %d", c, byGroup, r.NodeCount[c])
		}
	}
	// Path and tree statistics exist only with path tracking, which a nil
	// GenPoints marks as off: then they must be absent, not partial.
	if r.GenPoints == nil {
		if r.Path != (PathStats{}) || r.Trees != (TreeStats{}) {
			t.Error("path-disabled Result carries path or tree statistics")
		}
	} else {
		// Propagating elements = propagating arcs + propagating nodes.
		wantElems := r.ArcTotal(ArcPP) + r.NodeProp()
		if r.Path.Elems != wantElems {
			t.Errorf("path elems %d != pp arcs + prop nodes %d", r.Path.Elems, wantElems)
		}
		var comboSum, numGenSum, distSum uint64
		for _, c := range r.Path.ComboElems {
			comboSum += c
		}
		for _, c := range r.Path.NumGenHist {
			numGenSum += c
		}
		for _, c := range r.Path.DistHist {
			distSum += c
		}
		if comboSum != r.Path.Elems || numGenSum != r.Path.Elems || distSum != r.Path.Elems {
			t.Errorf("path histograms inconsistent: combo=%d numgen=%d dist=%d elems=%d",
				comboSum, numGenSum, distSum, r.Path.Elems)
		}
		// Every propagating element is influenced by at least one generator.
		if r.Path.NumGenHist[0] != 0 {
			t.Errorf("%d propagating elements with empty influence", r.Path.NumGenHist[0])
		}
		if r.Path.ComboElems[0] != 0 {
			t.Errorf("%d propagating elements with empty class mask", r.Path.ComboElems[0])
		}
		// Generators = generating arcs + generating nodes.
		wantGens := r.ArcTotal(ArcNP) + r.NodeGen()
		if r.Trees.Gens != wantGens {
			t.Errorf("generators %d != np arcs + gen nodes %d", r.Trees.Gens, wantGens)
		}
		var gensSum, sizeSum, classGens uint64
		for b := 0; b < HistBuckets; b++ {
			gensSum += r.Trees.GensByDepth[b]
			sizeSum += r.Trees.SizeByDepth[b]
		}
		for _, c := range r.Trees.ClassGens {
			classGens += c
		}
		if gensSum != r.Trees.Gens || classGens != r.Trees.Gens {
			t.Errorf("tree gens inconsistent: depth=%d class=%d total=%d", gensSum, classGens, r.Trees.Gens)
		}
		if sizeSum != r.Trees.Size {
			t.Errorf("tree sizes inconsistent: %d != %d", sizeSum, r.Trees.Size)
		}
		// Generate-point aggregation conserves the generator table.
		var gens, size uint64
		for _, gp := range r.GenPoints {
			gens += gp.Gens
			size += gp.TreeSize
		}
		if gens != r.Trees.Gens {
			t.Errorf("generate points hold %d gens, table has %d", gens, r.Trees.Gens)
		}
		if size != r.Trees.Size {
			t.Errorf("generate points hold %d tree size, table has %d", size, r.Trees.Size)
		}
	}
	// Branch accounting.
	var brSum uint64
	for _, c := range r.Branch.Count {
		brSum += c
	}
	if brSum != r.Branch.Branches {
		t.Errorf("branch conservation: %d != %d", brSum, r.Branch.Branches)
	}
	if r.Branch.Correct > r.Branch.Branches {
		t.Error("branch correct exceeds total")
	}
}

func TestStraightLineExact(t *testing.T) {
	tr := traceOf(t, `
	main:	li $t0, 5
		addi $t1, $t0, 1
		halt
	`, nil, 0)
	r := mustRun(t, tr, predictor.KindLast)
	checkInvariants(t, r)

	if r.Nodes != 3 {
		t.Errorf("nodes = %d, want 3", r.Nodes)
	}
	if r.Arcs != 1 {
		t.Errorf("arcs = %d, want 1 (addi reads $t0)", r.Arcs)
	}
	if r.NeutralNodes != 1 {
		t.Errorf("neutral = %d, want 1 (halt)", r.NeutralNodes)
	}
	// Cold predictors: li output unpredicted -> i,i->n; addi input and
	// output unpredicted with an immediate -> i,n->n.
	if r.NodeCount[NodeUnpredII] != 1 {
		t.Errorf("i,i->n = %d, want 1", r.NodeCount[NodeUnpredII])
	}
	if r.NodeCount[NodeUnpredIN] != 1 {
		t.Errorf("i,n->n = %d, want 1", r.NodeCount[NodeUnpredIN])
	}
	// The single arc is single-use <n,n>.
	if r.ArcCount[UseSingle][ArcNN] != 1 {
		t.Errorf("single <n,n> = %d, want 1", r.ArcCount[UseSingle][ArcNN])
	}
	if r.DNodes != 0 || r.DArcs != 0 {
		t.Errorf("D nodes/arcs = %d/%d, want 0/0", r.DNodes, r.DArcs)
	}
	// Only halt (vacuously predictable) forms a run.
	if r.Seq.PredictableInstrs != 1 {
		t.Errorf("predictable instrs = %d, want 1", r.Seq.PredictableInstrs)
	}
}

func TestLoopGeneratesAtCompare(t *testing.T) {
	// With last-value prediction the counter 1,2,3,... is never predicted,
	// but slti's output 1,1,...,0 is — so slti generates (i,n->p, class M).
	const n = 50
	tr := traceOf(t, fmt.Sprintf(`
	main:	li $t0, 0
	loop:	addi $t0, $t0, 1
		slti $t1, $t0, %d
		bne $t1, $zero, loop
		halt
	`, n), nil, 0)
	r := mustRun(t, tr, predictor.KindLast)
	checkInvariants(t, r)

	if r.Nodes != 2+3*n {
		t.Errorf("nodes = %d, want %d", r.Nodes, 2+3*n)
	}
	// slti executes n times; the first execution has a cold output
	// predictor, the last produces 0 after a run of 1s (mispredicted), so
	// n-2 generate events.
	if got := r.NodeCount[NodeGenIN]; got != n-2 {
		t.Errorf("i,n->p (M) nodes = %d, want %d", got, n-2)
	}
	// The counter's addi output is never predicted by last-value, so no
	// non-branch node has all-predicted inputs and a predicted output.
	// (bne itself propagates: its slti input is predictable and gshare
	// predicts the direction.)
	nonBranchPP := r.NodeCount[NodePropPP] - r.Branch.Count[NodePropPP]
	nonBranchPI := r.NodeCount[NodePropPI] - r.Branch.Count[NodePropPI]
	if nonBranchPP+nonBranchPI != 0 {
		t.Errorf("unexpected all-predicted propagation at non-branch nodes: %d", nonBranchPP+nonBranchPI)
	}
	if r.Branch.Count[NodePropPI] == 0 {
		t.Error("bne should propagate (predicted input, predicted direction)")
	}
	// bne consumes slti's result: single-use arcs (each dynamic slti feeds
	// exactly one dynamic bne).
	if got := r.ArcCount[UseRepeated][ArcPP] + r.ArcCount[UseRepeated][ArcNN]; got != 0 {
		t.Errorf("unexpected repeated-use arcs: %d", got)
	}
	if r.ArcCount[UseSingle][ArcPP] == 0 {
		t.Error("expected single-use <p,p> arcs from slti to bne")
	}
}

func TestStridePredictsLoopCounter(t *testing.T) {
	const n = 64
	tr := traceOf(t, fmt.Sprintf(`
	main:	li $t0, 0
	loop:	addi $t0, $t0, 1
		slti $t1, $t0, %d
		bne $t1, $zero, loop
		halt
	`, n), nil, 0)
	last := mustRun(t, tr, predictor.KindLast)
	stride := mustRun(t, tr, predictor.KindStride)
	checkInvariants(t, stride)

	// The stride predictor captures the counter: the addi node becomes a
	// generator (its input comes from its own previous output... the input
	// is also stride-predictable, so addi propagates) — in either case,
	// total predictability must be strictly higher than last-value.
	lp := last.NodeProp() + last.NodeGen()
	sp := stride.NodeProp() + stride.NodeGen()
	if sp <= lp {
		t.Errorf("stride (%d) should classify more predictable nodes than last-value (%d)", sp, lp)
	}
	// With stride, the addi -> addi self-recurrence arcs become <p,p>:
	// long propagation chains exist.
	if stride.ArcTotal(ArcPP) <= last.ArcTotal(ArcPP) {
		t.Errorf("stride should propagate on more arcs (%d vs %d)",
			stride.ArcTotal(ArcPP), last.ArcTotal(ArcPP))
	}
}

func TestWriteOnceRepeatedUse(t *testing.T) {
	// A register initialised once before the loop and read every iteration
	// by the same static instruction: the paper's write-once repeated-use
	// generation (<wl:n,p>). The producer (lw of an input word) executes
	// once and is unpredicted; consumptions become predictable.
	const n = 40
	tr := traceOf(t, fmt.Sprintf(`
	main:	in $s0
		li $t0, 0
	loop:	addi $t1, $s0, 1
		addi $t0, $t0, 1
		slti $t2, $t0, %d
		bne $t2, $zero, loop
		halt
	`, n), []uint32{12345}, 0)
	r := mustRun(t, tr, predictor.KindLast)
	checkInvariants(t, r)

	wl := r.ArcCount[UseWriteOnce][ArcNP]
	if wl == 0 {
		t.Fatal("expected write-once <wl:n,p> generation arcs")
	}
	// $s0 is consumed n times by one static add; all but the cold first
	// consumption are predicted: n-1 generating arcs, all write-once.
	if wl != n-1 {
		t.Errorf("<wl:n,p> = %d, want %d", wl, n-1)
	}
	// The first consumption was retroactively reclassified from single-use:
	// it stays <n,n> but moves to the write-once bucket.
	if r.ArcCount[UseWriteOnce][ArcNN] != 1 {
		t.Errorf("<wl:n,n> = %d, want 1 (retroactive first use)", r.ArcCount[UseWriteOnce][ArcNN])
	}
	// W-class generators exist and root trees.
	if r.Trees.ClassGens[GenW] != wl {
		t.Errorf("W generators = %d, want %d", r.Trees.ClassGens[GenW], wl)
	}
	if r.Path.ClassElems[GenW] == 0 {
		t.Error("W-class influence should reach propagating elements")
	}
}

func TestRepeatedInputUse(t *testing.T) {
	// A loop that re-reads the same statically allocated word every
	// iteration: repeated-input-use generation (<rd:n,p>), the paper's D
	// class.
	const n = 30
	tr := traceOf(t, fmt.Sprintf(`
		.data
	tbl:	.word 777
		.text
	main:	li $t0, 0
	loop:	lw $t1, tbl($zero)
		addi $t0, $t0, 1
		slti $t2, $t0, %d
		bne $t2, $zero, loop
		halt
	`, n), nil, 0)
	r := mustRun(t, tr, predictor.KindLast)
	checkInvariants(t, r)

	if r.DNodes != 1 {
		t.Errorf("D nodes = %d, want 1 (the table word)", r.DNodes)
	}
	if r.DArcs != n {
		t.Errorf("D arcs = %d, want %d", r.DArcs, n)
	}
	rd := r.ArcCount[UseRepeatedInput][ArcNP]
	if rd != n-1 {
		t.Errorf("<rd:n,p> = %d, want %d", rd, n-1)
	}
	if r.Trees.ClassGens[GenD] != rd {
		t.Errorf("D generators = %d, want %d", r.Trees.ClassGens[GenD], rd)
	}
	// The load is pass-through: with a predictable memory input its output
	// is predictable, so it propagates — and must never generate.
	if r.NodeCount[NodeGenII]+r.NodeCount[NodeGenNN] != 0 {
		t.Errorf("unexpected generation at nodes: ii=%d nn=%d",
			r.NodeCount[NodeGenII], r.NodeCount[NodeGenNN])
	}
}

func TestPassThroughLoadTerminatesOnUnpredictableData(t *testing.T) {
	// Predictable address, unpredictable data: the paper's dominant
	// termination p,n->n at memory instructions. The stored data comes
	// from `in` (random-ish input), the address is loop-invariant.
	input := make([]uint32, 64)
	for i := range input {
		input[i] = uint32(i*2654435761 + 12345)
	}
	tr := traceOf(t, `
		.data
	cell:	.word 0
		.text
	main:	li $t0, 0
		la $t5, cell
	loop:	in $t1
		sw $t1, 0($t5)
		lw $t2, 0($t5)
		addi $t0, $t0, 1
		slti $t3, $t0, 60
		bne $t3, $zero, loop
		halt
	`, input, 0)
	r := mustRun(t, tr, predictor.KindLast)
	checkInvariants(t, r)

	if r.NodeCount[NodeTermPN] == 0 {
		t.Error("expected p,n->n termination at loads with unpredictable data")
	}
	// Loads and stores never generate: all generation nodes here are the
	// slti compare (i,n->p).
	if r.NodeCount[NodeGenII] != 0 {
		t.Errorf("i,i->p = %d, want 0", r.NodeCount[NodeGenII])
	}
}

func TestImmediateGeneration(t *testing.T) {
	// An li executed repeatedly: from the second execution its constant
	// output is predicted with no data inputs -> i,i->p, the paper's I
	// class ("load immediate instructions").
	const n = 25
	tr := traceOf(t, fmt.Sprintf(`
	main:	li $t0, 0
	loop:	li $t1, 99
		addi $t0, $t0, 1
		slti $t2, $t0, %d
		bne $t2, $zero, loop
		halt
	`, n), nil, 0)
	r := mustRun(t, tr, predictor.KindLast)
	checkInvariants(t, r)

	if got := r.NodeCount[NodeGenII]; got != n-1 {
		t.Errorf("i,i->p = %d, want %d", got, n-1)
	}
	if r.Trees.ClassGens[GenI] != n-1 {
		t.Errorf("I generators = %d, want %d", r.Trees.ClassGens[GenI], n-1)
	}
	// li $t1 feeds nothing, so I trees are depth 0 here.
	if r.Trees.GensByDepth[0] == 0 {
		t.Error("expected depth-0 trees for unconsumed li values")
	}
}

func TestPropagationChainDepth(t *testing.T) {
	// A loop-invariant value flows through a chain of dependent adds each
	// iteration; the generators at the loop-invariant consumption root
	// paths at least as deep as the chain.
	tr := traceOf(t, `
	main:	in $s0
		li $t0, 0
	loop:	addi $t1, $s0, 1
		addi $t2, $t1, 1
		addi $t3, $t2, 1
		addi $t4, $t3, 1
		addi $t5, $t4, 1
		addi $t0, $t0, 1
		slti $t6, $t0, 30
		bne $t6, $zero, loop
		halt
	`, []uint32{555}, 0)
	r := mustRun(t, tr, predictor.KindLast)
	checkInvariants(t, r)

	// Chain: wl gen arc -> addi node -> arc -> addi ... 5 nodes + 4 arcs
	// = depth >= 9 for the deepest trees.
	deep := uint64(0)
	for b := BucketOf(9); b < HistBuckets; b++ {
		deep += r.Trees.GensByDepth[b]
	}
	if deep == 0 {
		maxB := 0
		for b := 0; b < HistBuckets; b++ {
			if r.Trees.GensByDepth[b] > 0 {
				maxB = b
			}
		}
		t.Errorf("no trees of depth >= 9; deepest bucket %d", maxB)
	}
	// Distances observed at the chain tail must reach >= 9 as well.
	distDeep := uint64(0)
	for b := BucketOf(9); b < HistBuckets; b++ {
		distDeep += r.Path.DistHist[b]
	}
	if distDeep == 0 {
		t.Error("no propagating elements at distance >= 9")
	}
}

func TestBranchStats(t *testing.T) {
	const n = 100
	tr := traceOf(t, fmt.Sprintf(`
	main:	li $t0, 0
	loop:	addi $t0, $t0, 1
		slti $t1, $t0, %d
		bne $t1, $zero, loop
		halt
	`, n), nil, 0)
	r := mustRun(t, tr, predictor.KindStride)
	checkInvariants(t, r)

	if r.Branch.Branches != n {
		t.Errorf("branches = %d, want %d", r.Branch.Branches, n)
	}
	// A long loop branch is nearly always predicted by gshare.
	if r.Branch.Correct < uint64(n*8/10) {
		t.Errorf("gshare correct = %d/%d", r.Branch.Correct, r.Branch.Branches)
	}
	// The bne input ($t1, constant 1 then 0) is stride-predictable, so
	// most branch nodes should classify with predicted inputs.
	pIn := r.Branch.Count[NodePropPP] + r.Branch.Count[NodePropPI] + r.Branch.Count[NodePropPN] +
		r.Branch.Count[NodeTermPP] + r.Branch.Count[NodeTermPI] + r.Branch.Count[NodeTermPN]
	if pIn < uint64(n/2) {
		t.Errorf("branches with predicted inputs = %d, want > %d", pIn, n/2)
	}
}

func TestSequencesInPredictableLoop(t *testing.T) {
	// A constant-bodied loop becomes almost fully predictable under stride
	// prediction: long predictable sequences must appear.
	tr := traceOf(t, `
	main:	li $t0, 0
	loop:	li $t1, 7
		addi $t2, $t1, 3
		addi $t0, $t0, 1
		slti $t3, $t0, 200
		bne $t3, $zero, loop
		halt
	`, nil, 0)
	r := mustRun(t, tr, predictor.KindStride)
	checkInvariants(t, r)

	if r.Seq.PredictableInstrs < r.Nodes/2 {
		t.Errorf("predictable instrs = %d of %d", r.Seq.PredictableInstrs, r.Nodes)
	}
	long := uint64(0)
	for b := BucketOf(16); b < HistBuckets; b++ {
		long += r.Seq.InstrByLen[b]
	}
	if long == 0 {
		t.Error("expected sequences of length >= 16")
	}
}

func TestFig1Kernel(t *testing.T) {
	// The paper's Fig. 1 code from 126.gcc: scan a 64-bit register mask in
	// two words. Reproduced faithfully; the classification phenomena the
	// paper narrates in §1.1 must appear under stride prediction.
	src := `
		.data
	regs_ever_live:	.word 0x8000bfff, 0xfffffff0
		.text
	main:	add $6, $0, $0
		la $19, regs_ever_live
	LL1:	srl $2, $6, 5
		sll $2, $2, 2
		addu $2, $2, $19
		lw $4, 0($2)
		andi $3, $6, 31
		srlv $2, $4, $3
		andi $2, $2, 1
		beq $2, $0, LL2
		nop
	LL2:	addiu $6, $6, 1
		slti $2, $6, 64
		bne $2, $0, LL1
		halt
	`
	tr := traceOf(t, src, nil, 0)
	r := mustRun(t, tr, predictor.KindStride)
	checkInvariants(t, r)

	// §1.1: the counter increment (instruction 9) generates stride
	// predictability that propagates through the shifts and adds: expect
	// substantial propagation.
	if r.Pct(r.NodeProp())+r.Pct(r.ArcTotal(ArcPP)) < 20 {
		t.Errorf("propagation too low: nodes %.1f%% arcs %.1f%%",
			r.Pct(r.NodeProp()), r.Pct(r.ArcTotal(ArcPP)))
	}
	// The lw re-reads the two mask words repeatedly: repeated-input-use D
	// arcs must exist.
	if r.ArcCount[UseRepeatedInput][ArcNP] == 0 {
		t.Error("expected <rd:n,p> generation from the mask table")
	}
	// Generation happens (loop restarts, value changes at word boundary).
	if r.NodeGen()+r.ArcTotal(ArcNP) == 0 {
		t.Error("expected generation events")
	}
	// Control-class generators dominate the influence (paper conclusion).
	if r.Path.ClassElems[GenC] == 0 {
		t.Error("expected C-class influence")
	}
}

func TestRetroactiveReclassificationConserves(t *testing.T) {
	// Heavier mixed workload: invariants (checked inside) prove the
	// retroactive single->repeated moves never lose arcs.
	tr := traceOf(t, `
		.data
	tbl:	.word 5, 6, 7, 8
		.text
	main:	li $s1, 0
	outer:	in $s0
		li $t0, 0
	inner:	sll $t1, $t0, 2
		lw $t2, tbl($t1)
		add $t3, $t2, $s0
		sw $t3, tbl($t1)
		addi $t0, $t0, 1
		slti $t4, $t0, 4
		bne $t4, $zero, inner
		addi $s1, $s1, 1
		slti $t5, $s1, 10
		bne $t5, $zero, outer
		halt
	`, []uint32{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, 0)
	for _, k := range predictor.Kinds {
		r := mustRun(t, tr, k)
		checkInvariants(t, r)
	}
}

func TestZeroRegisterIsImmediate(t *testing.T) {
	// The paper's Fig. 1 initialisation add $6,$0,$0 must classify as an
	// immediate-class node, not as having data inputs.
	const n = 20
	tr := traceOf(t, fmt.Sprintf(`
	main:	li $t9, 0
	loop:	add $6, $0, $0
		addi $t9, $t9, 1
		slti $t8, $t9, %d
		bne $t8, $zero, loop
		halt
	`, n), nil, 0)
	r := mustRun(t, tr, predictor.KindLast)
	checkInvariants(t, r)

	// add $6,$0,$0 yields 0 every time: predicted from exec 2 -> i,i->p.
	if got := r.NodeCount[NodeGenII]; got != n-1 {
		t.Errorf("i,i->p = %d, want %d", got, n-1)
	}
	// No arcs are created by $0 reads.
	// Per-iteration arcs: addi reads $t9 (1), slti reads $t9 (1), bne reads
	// $t8 (1). add reads none.
	if r.Arcs != 3*n {
		t.Errorf("arcs = %d, want %d", r.Arcs, 3*n)
	}
}

func TestSharedInputOutputShortCircuit(t *testing.T) {
	// The ablation configuration: one predictor instance for inputs and
	// outputs. The run must complete and satisfy invariants; the paper's
	// design splits them to avoid short circuits, so the shared setup
	// typically reports more (spurious) predictability.
	tr := traceOf(t, `
	main:	li $t0, 0
	loop:	addi $t0, $t0, 1
		slti $t1, $t0, 40
		bne $t1, $zero, loop
		halt
	`, nil, 0)
	split := mustRunWith(t, tr, Config{Predictor: predictor.KindLast.Factory(), PredictorName: "split"})
	shared := mustRunWith(t, tr, Config{Predictor: predictor.KindLast.Factory(), PredictorName: "shared", SharedInputOutput: true})
	checkInvariants(t, split)
	checkInvariants(t, shared)
	if shared.Predictor != "shared" || split.Predictor != "split" {
		t.Error("predictor names not propagated")
	}
}

func TestDisablePaths(t *testing.T) {
	tr := traceOf(t, `
	main:	li $t0, 0
	loop:	addi $t0, $t0, 1
		slti $t1, $t0, 40
		bne $t1, $zero, loop
		halt
	`, nil, 0)
	full := mustRunWith(t, tr, Config{Predictor: predictor.KindStride.Factory()})
	fast := mustRunWith(t, tr, Config{Predictor: predictor.KindStride.Factory(), DisablePaths: true})
	// Classification identical.
	if full.NodeCount != fast.NodeCount {
		t.Error("node classification differs with paths disabled")
	}
	if full.ArcCount != fast.ArcCount {
		t.Error("arc classification differs with paths disabled")
	}
	if fast.Path.Elems != 0 || fast.Trees.Gens != 0 {
		t.Error("path stats should be zero when disabled")
	}
	if full.Path.Elems == 0 {
		t.Error("full run should have path stats")
	}
}

func TestBuilderMisuse(t *testing.T) {
	// API misuse surfaces as ErrConfig, never a panic.
	if _, err := NewBuilder("x", nil, Config{}); !errors.Is(err, ErrConfig) {
		t.Errorf("nil predictor: err = %v, want ErrConfig", err)
	}
	// A predictor factory whose constructor panics is converted too.
	_, err := NewBuilder("x", nil, Config{Predictor: func() predictor.Predictor {
		panic("bad parameters")
	}})
	if !errors.Is(err, ErrConfig) {
		t.Errorf("panicking factory: err = %v, want ErrConfig", err)
	}

	b, err := NewBuilder("x", nil, Config{Predictor: predictor.KindLast.Factory()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Finish(); err != nil {
		t.Fatalf("first finish: %v", err)
	}
	if _, err := b.Finish(); !errors.Is(err, ErrConfig) {
		t.Errorf("double finish: err = %v, want ErrConfig", err)
	}
	if err := b.Observe(&trace.Event{Op: isa.OpNop, DstReg: isa.NoReg}); !errors.Is(err, ErrConfig) {
		t.Errorf("observe after finish: err = %v, want ErrConfig", err)
	}
}

func TestBuilderRejectsHostileEvents(t *testing.T) {
	newB := func() *Builder {
		t.Helper()
		b, err := NewBuilder("x", []uint64{2, 2}, Config{Predictor: predictor.KindLast.Factory()})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		name string
		e    trace.Event
	}{
		{"invalid opcode", trace.Event{Op: 0xFF, DstReg: isa.NoReg}},
		{"too many sources", trace.Event{Op: isa.OpAdd, NSrc: 3, DstReg: isa.NoReg}},
		{"source register out of range", trace.Event{Op: isa.OpAdd, NSrc: 1,
			SrcReg: [2]uint8{isa.NumRegs, 0}, DstReg: isa.NoReg}},
		{"dest register out of range", trace.Event{Op: isa.OpAdd, DstReg: isa.NumRegs}},
		{"pc past static program", trace.Event{Op: isa.OpNop, PC: 2, DstReg: isa.NoReg}},
	}
	for _, tc := range cases {
		b := newB()
		if err := b.Observe(&tc.e); !errors.Is(err, ErrMalformedEvent) {
			t.Errorf("%s: err = %v, want ErrMalformedEvent", tc.name, err)
		}
	}
	// RunWith reports the offending event index.
	tr := &trace.Trace{Name: "x", NumStatic: 1, StaticCount: []uint64{1},
		Events: []trace.Event{{Op: 0xFF, DstReg: isa.NoReg}}}
	if _, err := RunWith(tr, Config{Predictor: predictor.KindLast.Factory()}); !errors.Is(err, ErrMalformedEvent) {
		t.Errorf("RunWith on hostile trace: err = %v, want ErrMalformedEvent", err)
	}
	if _, err := RunWith(nil, Config{Predictor: predictor.KindLast.Factory()}); !errors.Is(err, ErrConfig) {
		t.Errorf("RunWith(nil): err = %v, want ErrConfig", err)
	}
}

// TestModelRunsOnRecoveredTrace pushes a corrupted encoded stream through
// lenient recovery and the model end to end: whatever the reader salvages
// must run without panic or error.
func TestModelRunsOnRecoveredTrace(t *testing.T) {
	tr := traceOf(t, `
	main:	li $t0, 0
	loop:	addi $t0, $t0, 1
		slti $t1, $t0, 200
		bne $t1, $zero, loop
		halt
	`, nil, 0)
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, tr.Name, tr.NumStatic)
	if err != nil {
		t.Fatal(err)
	}
	w.SetBlockSize(64)
	for i := range tr.Events {
		if err := w.Write(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	for seed := uint64(1); seed <= 10; seed++ {
		rec, stats, err := trace.ReadAllLenient(faultinject.Scatter(bytes.NewReader(stream), seed, 128))
		if err != nil {
			continue // header damage: nothing recoverable
		}
		if len(rec.Events) == 0 {
			continue
		}
		res, err := RunWith(rec, Config{Predictor: predictor.KindLast.Factory(), PredictorName: "last"})
		if err != nil {
			t.Fatalf("seed %d: model rejected recovered trace (skipped %d blocks): %v",
				seed, stats.BlocksSkipped, err)
		}
		if res.Nodes != uint64(len(rec.Events)) {
			t.Fatalf("seed %d: node count %d != recovered events %d", seed, res.Nodes, len(rec.Events))
		}
	}
}

func TestDeterminism(t *testing.T) {
	tr := traceOf(t, `
	main:	li $t0, 0
	loop:	in $t1
		add $t2, $t1, $t0
		sw $t2, 0($sp)
		lw $t3, 0($sp)
		addi $t0, $t0, 1
		slti $t4, $t0, 64
		bne $t4, $zero, loop
		halt
	`, []uint32{3, 1, 4, 1, 5, 9, 2, 6}, 0)
	a := mustRun(t, tr, predictor.KindContext)
	b := mustRun(t, tr, predictor.KindContext)
	if a.NodeCount != b.NodeCount || a.ArcCount != b.ArcCount ||
		a.Path != b.Path || a.Trees != b.Trees || a.Seq != b.Seq {
		t.Error("model runs are not deterministic")
	}
}

func TestInInstructionIsDNode(t *testing.T) {
	tr := traceOf(t, `
	main:	in $t0
		in $t1
		add $t2, $t0, $t1
		halt
	`, []uint32{1, 2}, 0)
	r := mustRun(t, tr, predictor.KindLast)
	checkInvariants(t, r)
	if r.DNodes != 2 {
		t.Errorf("D nodes = %d, want 2", r.DNodes)
	}
	if r.DArcs != 2 {
		t.Errorf("D arcs = %d, want 2", r.DArcs)
	}
}

func TestConstantInputStreamGeneratesDClass(t *testing.T) {
	// A constant input stream: in's memory-data operand becomes
	// predictable at consumption, so <n,p> arcs from fresh D nodes appear
	// — input-data (D class) generation.
	input := make([]uint32, 50)
	for i := range input {
		input[i] = 42
	}
	tr := traceOf(t, `
	main:	li $t0, 0
	loop:	in $t1
		addi $t0, $t0, 1
		slti $t2, $t0, 50
		bne $t2, $zero, loop
		halt
	`, input, 0)
	r := mustRun(t, tr, predictor.KindLast)
	checkInvariants(t, r)
	if r.Trees.ClassGens[GenD] == 0 {
		t.Error("expected D-class generators from the constant input stream")
	}
	// Each in creates its own D node.
	if r.DNodes != 50 {
		t.Errorf("D nodes = %d, want 50", r.DNodes)
	}
}

func TestStringersAndBuckets(t *testing.T) {
	// The notation strings are part of the reporting contract.
	wantArc := map[ArcLabel]string{ArcNN: "n,n", ArcNP: "n,p", ArcPN: "p,n", ArcPP: "p,p"}
	for l, w := range wantArc {
		if l.String() != w {
			t.Errorf("ArcLabel %d = %q, want %q", l, l.String(), w)
		}
	}
	wantUse := map[ArcUse]string{UseSingle: "1", UseRepeated: "r", UseRepeatedInput: "rd", UseWriteOnce: "wl"}
	for u, w := range wantUse {
		if u.String() != w {
			t.Errorf("ArcUse %d = %q, want %q", u, u.String(), w)
		}
	}
	if NodeTermPN.String() != "p,n->n" || NodeGenII.String() != "i,i->p" {
		t.Error("node class notation wrong")
	}
	if !NodeTermPN.Terminates() || NodeTermPN.Generates() || NodeTermPN.Propagates() {
		t.Error("NodeTermPN predicates wrong")
	}
	if GenC.String() != "C" || GenM.String() != "M" {
		t.Error("gen class letters wrong")
	}
	for _, g := range []OpGroup{GroupAddSub, GroupMemory, GroupOther} {
		if g.String() == "?" {
			t.Errorf("group %d has no name", g)
		}
	}
	if ArcLabel(9).String() != "?" || ArcUse(9).String() != "?" ||
		NodeClass(99).String() != "?" || GenClass(99).String() != "?" || OpGroup(99).String() != "?" {
		t.Error("out-of-range stringers should return ?")
	}
	// Bucket helpers partition the value space.
	for _, v := range []uint32{0, 1, 2, 3, 4, 7, 8, 255, 256, 1 << 20} {
		b := BucketOf(v)
		if v < BucketLo(b) || v > BucketHi(b) {
			t.Errorf("value %d outside its bucket %d [%d,%d]", v, b, BucketLo(b), BucketHi(b))
		}
	}
	if BucketLo(0) != 0 || BucketHi(0) != 0 {
		t.Error("bucket 0 must be {0}")
	}
	// Result helpers on an empty result.
	var r Result
	if r.Pct(5) != 0 || r.EdgesPerNode() != 0 {
		t.Error("empty result helpers should return 0")
	}
	r.Nodes, r.Arcs = 10, 20
	if r.EdgesPerNode() != 2.0 {
		t.Error("edges per node wrong")
	}
	if r.NodeTerm() != 0 {
		t.Error("zero result NodeTerm wrong")
	}
}
