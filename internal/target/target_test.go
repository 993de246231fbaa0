package target

import (
	"math"
	"strings"
	"testing"
)

// TestInstrSize pins the encoding model behind E6's object sizes: two
// bytes of opcode+modrm, one of SIB for scaled addressing, four for a
// 32-bit immediate or displacement, eight for a 64-bit immediate.
func TestInstrSize(t *testing.T) {
	for _, tc := range []struct {
		in   Instr
		want uint32
	}{
		{Instr{Op: RET}, 1},
		{Instr{Op: PUSH, Src: R1}, 2},
		{Instr{Op: POP, Dst: R1}, 2},
		{Instr{Op: MOVri, Imm: 0}, 6},
		{Instr{Op: MOVri, Imm: -1}, 6},
		{Instr{Op: MOVri, Imm: math.MaxInt32}, 6},
		{Instr{Op: MOVri, Imm: math.MinInt32}, 6},
		{Instr{Op: MOVri, Imm: math.MaxInt32 + 1}, 10},
		{Instr{Op: MOVri, Imm: math.MinInt32 - 1}, 10},
		{Instr{Op: MOVri, Imm: 1 << 40}, 10},
		{Instr{Op: MOVrr}, 2},
		{Instr{Op: ADDrr}, 2},
		{Instr{Op: SREMrr}, 2},
		{Instr{Op: CMPrr}, 2},
		{Instr{Op: ADDri, Imm: 1}, 6},
		{Instr{Op: SARri, Imm: 3}, 6},
		{Instr{Op: CMPri, Imm: 0}, 6},
		{Instr{Op: LOAD, Size: 4}, 6},
		{Instr{Op: STORE, Size: 8}, 6},
		{Instr{Op: LEA, Src: R1, Imm: 8}, 6},
		{Instr{Op: LEA, Src: R1, Src2: R2, Scale: 4}, 7},
		{Instr{Op: JMP, Target: 1}, 6},
		{Instr{Op: Jcc, Cond: CondSLT, Target: 1}, 6},
		{Instr{Op: CALL, Target: 0}, 6},
		{Instr{Op: MOVSX, Size: 1}, 3},
		{Instr{Op: MOVZX, Size: 2}, 3},
		{Instr{Op: SETcc, Cond: CondEQ}, 3},
		{Instr{Op: CMOVcc, Cond: CondNE}, 3},
	} {
		if got := InstrSize(tc.in); got != tc.want {
			t.Errorf("InstrSize(%s) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestProgramSize: each function's bytes are padded to 16.
func TestProgramSize(t *testing.T) {
	p := &Program{Funcs: []*MFunc{
		{Name: "one", Blocks: [][]Instr{{{Op: RET}}}}, // 1 → 16
		{Name: "sixteen", Blocks: [][]Instr{ // 10+2+1+3 = 16 → 16
			{{Op: MOVri, Imm: 1 << 40}, {Op: ADDrr}},
			{{Op: RET}, {Op: SETcc}},
		}},
		{Name: "seventeen", Blocks: [][]Instr{ // 6+6+2+2+1 = 17 → 32
			{{Op: JMP, Target: 1}},
			{{Op: CALL}, {Op: PUSH}, {Op: POP}, {Op: RET}},
		}},
		{Name: "empty"}, // 0 → 0
	}}
	if got := ProgramSize(p); got != 16+16+32 {
		t.Fatalf("ProgramSize = %d, want %d", got, 16+16+32)
	}
}

// TestCondHolds separates the signed conditions from the unsigned ones
// on operands whose order differs between the two readings.
func TestCondHolds(t *testing.T) {
	neg1 := ^uint64(0) // -1 signed, the largest value unsigned
	minI := uint64(1) << 63
	for _, tc := range []struct {
		c    Cond
		a, b uint64
		want bool
	}{
		{CondEQ, 5, 5, true},
		{CondEQ, 5, 6, false},
		{CondNE, 5, 6, true},
		{CondNE, neg1, neg1, false},
		{CondUGT, neg1, 1, true},
		{CondSGT, neg1, 1, false},
		{CondUGT, 1, neg1, false},
		{CondSGT, 1, neg1, true},
		{CondUGE, 7, 7, true},
		{CondUGE, minI, 1, true},
		{CondSGE, minI, 1, false},
		{CondSGE, 7, 7, true},
		{CondULT, 1, neg1, true},
		{CondSLT, 1, neg1, false},
		{CondULT, minI, minI - 1, false},
		{CondSLT, minI, minI - 1, true},
		{CondULE, 3, 3, true},
		{CondULE, neg1, 0, false},
		{CondSLE, neg1, 0, true},
		{CondSLE, 0, neg1, false},
	} {
		if got := tc.c.Holds(tc.a, tc.b); got != tc.want {
			t.Errorf("%s.Holds(%#x, %#x) = %v, want %v", tc.c, tc.a, tc.b, got, tc.want)
		}
	}
}

// TestLayoutGlobals: every global starts 16-byte aligned at or above
// GlobalBase, and a zero-sized global still takes a slot.
func TestLayoutGlobals(t *testing.T) {
	globals := []GlobalBlob{{Size: 1}, {Size: 16}, {Size: 17}, {Size: 0}, {Size: 32}}
	want := []uint32{4096, 4112, 4128, 4160, 4176}
	got := LayoutGlobals(globals)
	for i := range want {
		if got[i] != want[i] || got[i]%16 != 0 {
			t.Fatalf("LayoutGlobals = %v, want %v", got, want)
		}
	}
}

// run builds a one-or-more-function program and runs function 0.
func run(t *testing.T, p *Program) (uint64, *Machine, error) {
	t.Helper()
	m := NewMachine(p)
	v, err := m.Run(0)
	return v, m, err
}

// TestRunLoop runs a hand-built loop summing 10 down to 1: the return
// value, the instruction count and the cycle count are all known.
func TestRunLoop(t *testing.T) {
	p := &Program{Funcs: []*MFunc{{
		Name:      "sum",
		FrameSize: 16,
		Blocks: [][]Instr{
			{
				{Op: MOVri, Dst: R0, Imm: 0},
				{Op: MOVri, Dst: R1, Imm: 10},
				{Op: JMP, Target: 1},
			},
			{
				{Op: ADDrr, Dst: R0, Src: R1},
				{Op: ADDri, Dst: R1, Imm: -1},
				{Op: CMPri, Dst: R1, Imm: 0},
				{Op: Jcc, Cond: CondNE, Target: 1},
				{Op: RET},
			},
		},
	}}}
	v, m, err := run(t, p)
	if err != nil {
		t.Fatal(err)
	}
	// 3 entry instructions, 4 per iteration × 10, then RET; every
	// instruction costs 1 cycle except RET's 2.
	if v != 55 || m.Instrs != 44 || m.Cycles != 45 {
		t.Fatalf("sum loop: ret %d, %d instrs, %d cycles; want 55, 44, 45", v, m.Instrs, m.Cycles)
	}
	if m.Regs[SP] != MemSize {
		t.Fatalf("SP = %#x after the outermost RET, want %#x", m.Regs[SP], MemSize)
	}
}

// TestRunCallAndLEAPenalty covers a call/return pair and the Queens
// quirk: LEA through a high register (R8+) costs 3 cycles, not 1.
func TestRunCallAndLEAPenalty(t *testing.T) {
	callee := &MFunc{Name: "forty", Blocks: [][]Instr{{
		{Op: MOVri, Dst: R8, Imm: 40},
		{Op: LEA, Dst: R0, Src: R8, Imm: 1}, // high register: 3 cycles
		{Op: RET},
	}}}
	caller := &MFunc{Name: "main", FrameSize: 32, Blocks: [][]Instr{{
		{Op: CALL, Target: 1},
		{Op: MOVri, Dst: R2, Imm: 1},
		{Op: LEA, Dst: R0, Src: R0, Src2: R2, Scale: 1}, // low registers: 1 cycle
		{Op: RET},
	}}}
	v, m, err := run(t, &Program{Funcs: []*MFunc{caller, callee}})
	if err != nil {
		t.Fatal(err)
	}
	// CALL 2 + (MOVri 1 + LEA 3 + RET 2) + MOVri 1 + LEA 1 + RET 2.
	if v != 42 || m.Instrs != 7 || m.Cycles != 12 {
		t.Fatalf("call: ret %d, %d instrs, %d cycles; want 42, 7, 12", v, m.Instrs, m.Cycles)
	}
}

// TestRunMemory loads a global through its laid-out address and stores
// to the stack; an access below GlobalBase or past the end of memory
// faults with an error instead of panicking.
func TestRunMemory(t *testing.T) {
	globals := []GlobalBlob{{Name: "pad", Size: 3}, {Name: "g", Size: 4, Init: []byte{0x2a, 0, 0, 0}}}
	gaddr := int64(LayoutGlobals(globals)[1])
	ok := &Program{Globals: globals, Funcs: []*MFunc{{Name: "ok", FrameSize: 8, Blocks: [][]Instr{{
		{Op: MOVri, Dst: R1, Imm: gaddr},
		{Op: LOAD, Dst: R2, Src: R1, Size: 4},
		{Op: STORE, Dst: FP, Src: R2, Size: 8},
		{Op: LOAD, Dst: R0, Src: FP, Size: 8},
		{Op: RET},
	}}}}}
	if v, _, err := run(t, ok); err != nil || v != 42 {
		t.Fatalf("global round trip: ret %d, err %v; want 42", v, err)
	}

	for _, tc := range []struct {
		name string
		code []Instr
		want string
	}{
		{"null load", []Instr{{Op: MOVri, Dst: R1, Imm: 0}, {Op: LOAD, Dst: R0, Src: R1, Size: 8}}, "load fault"},
		{"guard-region load", []Instr{{Op: LOAD, Dst: R0, Src: UR, Imm: GlobalBase - 1, Size: 1}}, "load fault"},
		{"load past the end", []Instr{{Op: MOVri, Dst: R1, Imm: MemSize - 4}, {Op: LOAD, Dst: R0, Src: R1, Size: 8}}, "load fault"},
		{"null store", []Instr{{Op: STORE, Dst: UR, Src: R1, Size: 4}}, "store fault"},
		{"store past the end", []Instr{{Op: MOVri, Dst: R1, Imm: MemSize}, {Op: STORE, Dst: R1, Src: R0, Size: 1}}, "store fault"},
		{"division by zero", []Instr{{Op: MOVri, Dst: R1, Imm: 0}, {Op: UDIVrr, Dst: R0, Src: R1}}, "division by zero"},
	} {
		p := &Program{Funcs: []*MFunc{{Name: tc.name, Blocks: [][]Instr{append(tc.code, Instr{Op: RET})}}}}
		if _, _, err := run(t, p); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestRunBounds: a missing function and a non-terminating loop are
// errors, the latter once MaxInstrs is spent.
func TestRunBounds(t *testing.T) {
	spin := &Program{Funcs: []*MFunc{{Name: "spin", Blocks: [][]Instr{{{Op: JMP, Target: 0}}}}}}
	m := NewMachine(spin)
	if _, err := m.Run(1); err == nil || !strings.Contains(err.Error(), "no function") {
		t.Fatalf("Run(1) on a one-function program: %v", err)
	}
	m.MaxInstrs = 100
	if _, err := m.Run(0); err == nil || !strings.Contains(err.Error(), "budget exhausted") {
		t.Fatalf("spin loop: %v", err)
	}
	if m.Instrs != 101 {
		t.Fatalf("spin loop stopped after %d instructions, want 101", m.Instrs)
	}
}
