package dpg

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/predictor"
)

// hazardKernels are small programs aimed at the model pass's record
// ownership: a value read by the instruction that overwrites it, a memory
// word stored back to the slot it was loaded from, records nobody holds
// (in, jr, writes to $zero), and a fan-in wide enough to overflow
// MaxTrackedGens. Their results are pinned in testdata/hazards.golden.
var hazardKernels = []struct {
	name  string
	src   string
	input []uint32
}{
	{name: "inplace", src: `
	main:	li $t0, 0
		li $t1, 1
		li $t2, 0
		li $t5, 3
	loop:	addi $t0, $t0, 1
		add $t1, $t1, $t1
		andi $t4, $t0, 3
		add $t4, $t4, $t4
		add $t5, $t5, $t4
		sub $t5, $t5, $t4
		addi $t2, $t2, 1
		slti $t3, $t2, 70
		bne $t3, $zero, loop
		halt
	`},
	{name: "load-modify-store", src: `
		.data
	buf:	.space 64
		.text
	main:	la $s0, buf
		li $t2, 0
	loop:	andi $t3, $t2, 7
		sll $t3, $t3, 2
		addu $t3, $t3, $s0
		lw $t0, 0($t3)
		addi $t0, $t0, 1
		sw $t0, 0($t3)
		lw $t1, 0($t3)
		sw $t1, 0($t3)
		lbu $t6, 0($t3)
		sb $t6, 1($t3)
		lw $t7, 32($s0)
		add $t7, $t7, $t2
		sw $t7, 32($s0)
		addi $t2, $t2, 1
		slti $t4, $t2, 90
		bne $t4, $zero, loop
		halt
	`},
	{name: "in-jr-jalr", src: `
	main:	li $s1, 0
		la $s2, fn
	loop:	in $t0
		add $t1, $t0, $t0
		jalr $ra, $s2
		add $s3, $v0, $t0
		in $zero
		addi $s1, $s1, 1
		slti $t4, $s1, 48
		bne $t4, $zero, loop
		halt
	fn:	addi $v0, $t1, 1
		jr $ra
	`, input: hazardInput(96)},
	{name: "zero-writes", src: `
		.data
	w:	.word 7
		.text
	main:	la $s0, w
		li $t0, 0
	loop:	addi $zero, $t0, 1
		add $zero, $zero, $t0
		lw $zero, 0($s0)
		add $t1, $zero, $t0
		li $zero, 5
		addi $t0, $t0, 1
		slti $t4, $t0, 60
		bne $t4, $zero, loop
		halt
	`},
	{name: "fan-in-overflow", src: `
	main:	li $s7, 0
		li $s0, 0
	loop:	li $t0, 1
		li $t1, 2
		li $t2, 3
		li $t3, 4
		li $t4, 5
		li $t5, 6
		li $t6, 7
		li $t7, 8
		li $t8, 9
		li $t9, 10
		li $s1, 11
		li $s2, 12
		li $s3, 13
		li $s4, 14
		add $a0, $t0, $t1
		add $a1, $t2, $t3
		add $a0, $a0, $a1
		add $a1, $t4, $t5
		add $a2, $t6, $t7
		add $a1, $a1, $a2
		add $a0, $a0, $a1
		add $a2, $t8, $t9
		add $a3, $s1, $s2
		add $a2, $a2, $a3
		add $a3, $s3, $s4
		add $a2, $a2, $a3
		add $a0, $a0, $a2
		add $s0, $s0, $a0
		sub $s0, $s0, $a0
		add $s5, $s0, $a0
		addi $s7, $s7, 1
		slti $s6, $s7, 50
		bne $s6, $zero, loop
		halt
	`},
}

// hazardInput is the in-jr-jalr kernel's input: a short repeating pattern,
// so `in` values are sometimes predictable.
func hazardInput(n int) []uint32 {
	in := make([]uint32, n)
	for i := range in {
		in[i] = uint32(i % 3)
	}
	return in
}

// hazardResults renders every kernel under every predictor, paths on and
// a graph fragment recorded, as one canonical wire encoding per line.
func hazardResults(t *testing.T) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, k := range hazardKernels {
		tr := traceOf(t, k.src, k.input, 0)
		for _, kind := range predictor.AllKinds {
			r := mustRunWith(t, tr, Config{
				Predictor:     kind.Factory(),
				PredictorName: kind.String(),
				GraphLimit:    32,
			})
			r.Name = k.name
			data, err := EncodeResult(r, "hazard")
			if err != nil {
				t.Fatalf("%s/%s: encode: %v", k.name, kind, err)
			}
			fmt.Fprintf(&out, "%s\n", data)
		}
	}
	return out.Bytes()
}

// TestHazardGolden pins the model pass's results on the ownership hazard
// kernels. The golden was recorded by a model pass that allocated a fresh
// record for every value, so it does not depend on the recycling it
// guards. A deliberate change to the model's results re-records it by
// writing hazardResults' output to the file.
func TestHazardGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "hazards.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := hazardResults(t)
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("line %d differs:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
}
