package mi

import (
	"math/rand"
	"strings"
	"testing"

	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/target"
)

// compileAndRun compiles the module and runs @main-equivalent fn with
// the given uint64 args on the simulator.
func compileAndRun(t *testing.T, src string, fnName string, args ...uint64) (uint64, *target.Machine) {
	t.Helper()
	mod, err := ir.ParseModule(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := ir.VerifyModule(mod, ir.VerifyLegacy); err != nil {
		t.Fatalf("verify: %v", err)
	}
	prog, err := CompileModule(mod)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	fi := prog.FuncByName(fnName)
	if fi < 0 {
		t.Fatalf("no function %s", fnName)
	}
	m := target.NewMachine(prog)
	// Stack-convention: push args right-to-left.
	for i := len(args) - 1; i >= 0; i-- {
		m.Regs[target.SP] -= 8
		for b := uint(0); b < 8; b++ {
			m.Mem[m.Regs[target.SP]+uint64(b)] = byte(args[i] >> (8 * b))
		}
	}
	got, err := m.Run(fi)
	if err != nil {
		t.Fatalf("simulate: %v\n%s", err, dumpProgram(prog))
	}
	return got, m
}

func dumpProgram(p *target.Program) string {
	var b strings.Builder
	for _, f := range p.Funcs {
		b.WriteString(f.Name + ":\n")
		for bi, blk := range f.Blocks {
			b.WriteString("  L" + string(rune('0'+bi)) + ":\n")
			for _, in := range blk {
				b.WriteString("    " + in.String() + "\n")
			}
		}
	}
	return b.String()
}

// differential runs the function both through the interpreter (freeze
// semantics, zero oracle) and the backend+simulator and compares.
func differential(t *testing.T, src, fn string, argWidth uint, args ...uint64) {
	t.Helper()
	mod := ir.MustParseModule(src)
	f := mod.FuncByName(fn)
	coreArgs := make([]core.Value, len(args))
	for i, a := range args {
		coreArgs[i] = core.VC(f.Params[i].Ty, a)
	}
	want := core.Exec(f, coreArgs, core.ZeroOracle{}, core.FreezeOptions())
	if want.Kind != core.OutRet {
		t.Fatalf("interpreter did not return: %v", want)
	}
	got, _ := compileAndRun(t, src, fn, args...)
	if got != want.Val.Uint() {
		t.Fatalf("%s(%v): simulator %d, interpreter %d", fn, args, got, want.Val.Uint())
	}
}

func TestBackendArithmetic(t *testing.T) {
	src := `define i32 @f(i32 %a, i32 %b) {
entry:
  %s = add i32 %a, %b
  %d = sub i32 %s, 5
  %m = mul i32 %d, %b
  %x = xor i32 %m, 255
  %sh = shl i32 %x, 2
  %shr = lshr i32 %sh, 1
  ret i32 %shr
}`
	differential(t, src, "f", 32, 100, 7)
	differential(t, src, "f", 32, 0, 0)
	differential(t, src, "f", 32, 0xffffffff, 3)
}

func TestBackendSignedOps(t *testing.T) {
	src := `define i32 @f(i32 %a, i32 %b) {
entry:
  %d = sdiv i32 %a, %b
  %r = srem i32 %a, %b
  %sh = ashr i32 %a, 3
  %s1 = add i32 %d, %r
  %s2 = add i32 %s1, %sh
  ret i32 %s2
}`
	differential(t, src, "f", 32, 100, 7)
	differential(t, src, "f", 32, 0xfffffff0, 3) // negative numerator
	differential(t, src, "f", 32, 0xfffffff0, 0xffffffff)
}

func TestBackendNarrowWidths(t *testing.T) {
	src := `define i8 @f(i8 %a, i8 %b) {
entry:
  %s = add i8 %a, %b
  %c = icmp slt i8 %s, 0
  %z = zext i1 %c to i8
  %m = mul i8 %z, 10
  %r = add i8 %m, %s
  ret i8 %r
}`
	differential(t, src, "f", 8, 200, 100)
	differential(t, src, "f", 8, 1, 2)
	differential(t, src, "f", 8, 127, 1)
}

func TestBackendCasts(t *testing.T) {
	src := `define i64 @f(i16 %a) {
entry:
  %s = sext i16 %a to i64
  %z = zext i16 %a to i64
  %t = trunc i64 %s to i8
  %zz = zext i8 %t to i64
  %r1 = add i64 %s, %z
  %r = add i64 %r1, %zz
  ret i64 %r
}`
	differential(t, src, "f", 16, 0x8001)
	differential(t, src, "f", 16, 42)
}

func TestBackendControlFlowAndPhi(t *testing.T) {
	src := `define i32 @f(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %i1, %body ]
  %acc = phi i32 [ 0, %entry ], [ %acc1, %body ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %acc1 = add i32 %acc, %i
  %i1 = add i32 %i, 1
  br label %head
exit:
  ret i32 %acc
}`
	differential(t, src, "f", 32, 10) // 45
	differential(t, src, "f", 32, 0)
	differential(t, src, "f", 32, 100)
}

func TestBackendSwappingPhis(t *testing.T) {
	src := `define i32 @f(i32 %n) {
entry:
  br label %loop
loop:
  %a = phi i32 [ 0, %entry ], [ %b, %loop ]
  %b = phi i32 [ 1, %entry ], [ %a, %loop ]
  %i = phi i32 [ 0, %entry ], [ %i1, %loop ]
  %i1 = add i32 %i, 1
  %c = icmp ult i32 %i1, %n
  br i1 %c, label %loop, label %exit
exit:
  ret i32 %a
}`
	differential(t, src, "f", 32, 3)
	differential(t, src, "f", 32, 4)
}

func TestBackendMemory(t *testing.T) {
	src := `define i32 @f(i32 %n) {
entry:
  %buf = alloca i32, i32 8
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %i1, %body ]
  %c = icmp ult i32 %i, 8
  br i1 %c, label %body, label %sum
body:
  %p = getelementptr i32, ptr %buf, i32 %i
  %v = mul i32 %i, %n
  store i32 %v, ptr %p
  %i1 = add i32 %i, 1
  br label %head
sum:
  %p3 = getelementptr i32, ptr %buf, i32 3
  %v3 = load i32, ptr %p3
  %p7 = getelementptr i32, ptr %buf, i32 7
  %v7 = load i32, ptr %p7
  %r = add i32 %v3, %v7
  ret i32 %r
}`
	differential(t, src, "f", 32, 5) // 15 + 35 = 50
	differential(t, src, "f", 32, 11)
}

func TestBackendGlobals(t *testing.T) {
	src := `@tab = global 8 init 1 2 3 4 5 6 7 8
define i32 @f(i32 %i) {
entry:
  %p = getelementptr i8, ptr @tab, i32 %i
  %v = load i8, ptr %p
  %z = zext i8 %v to i32
  ret i32 %z
}`
	differential(t, src, "f", 32, 0)
	differential(t, src, "f", 32, 7)
}

func TestBackendCalls(t *testing.T) {
	src := `define i32 @fact(i32 %n) {
entry:
  %z = icmp eq i32 %n, 0
  br i1 %z, label %base, label %rec
base:
  ret i32 1
rec:
  %n1 = sub i32 %n, 1
  %r = call i32 @fact(i32 %n1)
  %m = mul i32 %n, %r
  ret i32 %m
}`
	differential(t, src, "fact", 32, 6) // 720
	differential(t, src, "fact", 32, 0)
}

func TestBackendFreezeLowering(t *testing.T) {
	// §6: freeze lowers to a register copy; poison to the pinned
	// undef register. freeze(poison) - freeze(poison) with two
	// freezes may differ; the same freeze subtracted from itself is 0.
	src := `define i64 @f() {
entry:
  %x = freeze i64 poison
  %d = sub i64 %x, %x
  ret i64 %d
}`
	got, _ := compileAndRun(t, src, "f")
	if got != 0 {
		t.Errorf("freeze stability violated in lowering: got %d", got)
	}
	// Check the copy-from-UR pattern exists.
	mod := ir.MustParseModule(src)
	prog, err := CompileModule(mod)
	if err != nil {
		t.Fatal(err)
	}
	foundCopyFromUR := false
	for _, b := range prog.Funcs[0].Blocks {
		for _, in := range b {
			if in.Op == target.MOVrr && in.Src == target.UR {
				foundCopyFromUR = true
			}
		}
	}
	if !foundCopyFromUR {
		t.Errorf("freeze(poison) should lower to a copy from the pinned undef register:\n%s", dumpProgram(prog))
	}
}

func TestBackendSelect(t *testing.T) {
	src := `define i32 @f(i32 %a, i32 %b) {
entry:
  %c = icmp ugt i32 %a, %b
  %m = select i1 %c, i32 %a, i32 %b
  ret i32 %m
}`
	differential(t, src, "f", 32, 3, 9)
	differential(t, src, "f", 32, 9, 3)
}

func TestBackendRegisterPressureSpills(t *testing.T) {
	// Force spilling: many simultaneously live values.
	var b strings.Builder
	b.WriteString("define i64 @f(i64 %a, i64 %b) {\nentry:\n")
	for i := 0; i < 20; i++ {
		b.WriteString("  %v" + string(rune('a'+i)) + " = add i64 %a, " + itoa(i) + "\n")
	}
	b.WriteString("  %s0 = add i64 %va, %vb\n")
	for i := 2; i < 20; i++ {
		b.WriteString("  %s" + itoa(i-1) + " = add i64 %s" + itoa(i-2) + ", %v" + string(rune('a'+i)) + "\n")
	}
	b.WriteString("  ret i64 %s18\n}\n")
	differential(t, b.String(), "f", 64, 1000, 0)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var d []byte
	for n > 0 {
		d = append([]byte{byte('0' + n%10)}, d...)
		n /= 10
	}
	return string(d)
}

func TestBackendRandomDifferential(t *testing.T) {
	// Randomized straight-line differential testing against the
	// interpreter on i16.
	rng := rand.New(rand.NewSource(7))
	ops := []string{"add", "sub", "mul", "and", "or", "xor"}
	for iter := 0; iter < 60; iter++ {
		var b strings.Builder
		b.WriteString("define i16 @f(i16 %a, i16 %b) {\nentry:\n")
		prev := []string{"%a", "%b"}
		n := 2 + rng.Intn(6)
		for i := 0; i < n; i++ {
			op := ops[rng.Intn(len(ops))]
			x := prev[rng.Intn(len(prev))]
			y := prev[rng.Intn(len(prev))]
			name := "%t" + itoa(i)
			b.WriteString("  " + name + " = " + op + " i16 " + x + ", " + y + "\n")
			prev = append(prev, name)
		}
		b.WriteString("  ret i16 " + prev[len(prev)-1] + "\n}\n")
		differential(t, b.String(), "f", 16, uint64(rng.Intn(65536)), uint64(rng.Intn(65536)))
	}
}

func TestEncoderSizes(t *testing.T) {
	src := `define i32 @f(i32 %a) {
entry:
  %x = add i32 %a, 1
  ret i32 %x
}`
	mod := ir.MustParseModule(src)
	prog, err := CompileModule(mod)
	if err != nil {
		t.Fatal(err)
	}
	sz := target.ProgramSize(prog)
	if sz == 0 || sz%16 != 0 {
		t.Errorf("program size %d not positive multiple of 16", sz)
	}
	// Per-instruction sizes are sane.
	for _, b := range prog.Funcs[0].Blocks {
		for _, in := range b {
			s := target.InstrSize(in)
			if s == 0 || s > 12 {
				t.Errorf("instr %s has size %d", in, s)
			}
		}
	}
}

func TestLEAQuirkLatency(t *testing.T) {
	// The Queens anecdote: LEA with a high register is slower.
	fast := target.Instr{Op: target.LEA, Dst: target.R0, Src: target.R1, Src2: target.R2, Scale: 4}
	slow := target.Instr{Op: target.LEA, Dst: target.R0, Src: target.R13, Src2: target.R2, Scale: 4}
	p := &target.Program{Funcs: []*target.MFunc{{Name: "f", Blocks: [][]target.Instr{{fast, slow, {Op: target.RET}}}}}}
	m := target.NewMachine(p)
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	// fast=1, slow=3, ret=2.
	if m.Cycles != 6 {
		t.Errorf("cycles = %d, want 6 (LEA quirk)", m.Cycles)
	}
}

func TestBackendVectorRejected(t *testing.T) {
	src := `define <2 x i16> @f(<2 x i16> %v) {
entry:
  ret <2 x i16> %v
}`
	mod := ir.MustParseModule(src)
	if _, err := CompileModule(mod); err == nil {
		t.Error("vector function should be rejected by VX64")
	}
}

func TestBackendSpillsAcrossCalls(t *testing.T) {
	// Values live across a call must survive the callee clobbering
	// every register: the allocator pre-spills them.
	src := `define i64 @id(i64 %x) {
entry:
  ret i64 %x
}

define i64 @f(i64 %a, i64 %b) {
entry:
  %p = mul i64 %a, %b
  %q = add i64 %a, %b
  %r1 = call i64 @id(i64 %p)
  %r2 = call i64 @id(i64 %q)
  %s1 = add i64 %r1, %p
  %s2 = add i64 %s1, %q
  %s3 = add i64 %s2, %r2
  ret i64 %s3
}`
	differential(t, src, "f", 64, 6, 7)
	differential(t, src, "f", 64, 1000000, 3)
}

func TestBackendManySpilledOperands(t *testing.T) {
	// Both operands of an instruction spilled, plus a spilled
	// destination: exercises the scratch-register paths.
	var b strings.Builder
	b.WriteString("define i64 @f(i64 %a, i64 %b) {\nentry:\n")
	for i := 0; i < 24; i++ {
		b.WriteString("  %v" + itoa(i) + " = add i64 %a, " + itoa(i*3) + "\n")
	}
	// Sum everything so all 24 values are simultaneously live.
	b.WriteString("  %s0 = add i64 %v0, %v1\n")
	for i := 2; i < 24; i++ {
		b.WriteString("  %s" + itoa(i-1) + " = add i64 %s" + itoa(i-2) + ", %v" + itoa(i) + "\n")
	}
	b.WriteString("  ret i64 %s22\n}\n")
	differential(t, b.String(), "f", 64, 11, 0)
}

func TestBackendCallInLoop(t *testing.T) {
	src := `define i32 @double(i32 %x) {
entry:
  %r = add i32 %x, %x
  ret i32 %r
}

define i32 @f(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %i1, %body ]
  %acc = phi i32 [ 0, %entry ], [ %acc1, %body ]
  %c = icmp ult i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %d = call i32 @double(i32 %i)
  %acc1 = add i32 %acc, %d
  %i1 = add i32 %i, 1
  br label %head
exit:
  ret i32 %acc
}`
	differential(t, src, "f", 32, 10) // 2 * 45 = 90
	differential(t, src, "f", 32, 0)
}

func TestPeepholeRemovesSelfMoves(t *testing.T) {
	src := `define i32 @f(i32 %a) {
entry:
  %r = add i32 %a, 1
  ret i32 %r
}`
	prog, err := CompileModule(ir.MustParseModule(src))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range prog.Funcs[0].Blocks {
		for _, in := range b {
			if in.Op == target.MOVrr && in.Dst == in.Src {
				t.Errorf("self-move survived the peephole: %s", in)
			}
		}
	}
}

// §5.2 at the MI level: expanding conditional moves into branches is
// sound without freeze, because poison does not exist below ISel.
func TestExpandCMovs(t *testing.T) {
	src := `define i32 @f(i32 %a, i32 %b) {
entry:
  %c = icmp ugt i32 %a, %b
  %m = select i1 %c, i32 %a, i32 %b
  %c2 = icmp ult i32 %m, 100
  %m2 = select i1 %c2, i32 %m, i32 100
  ret i32 %m2
}`
	mod := ir.MustParseModule(src)
	prog, err := CompileModule(mod)
	if err != nil {
		t.Fatal(err)
	}
	ExpandCMovs(prog)
	for _, b := range prog.Funcs[0].Blocks {
		for _, in := range b {
			if in.Op == target.CMOVcc {
				t.Fatalf("cmov survived expansion:\n%s", dumpProgram(prog))
			}
		}
	}
	for _, c := range [][2]uint64{{3, 9}, {9, 3}, {200, 500}, {500, 200}, {7, 7}} {
		want := c[0]
		if c[1] > want {
			want = c[1]
		}
		if want > 100 {
			want = 100
		}
		m := target.NewMachine(prog)
		for i := 1; i >= 0; i-- {
			m.Regs[target.SP] -= 8
			for by := uint(0); by < 8; by++ {
				m.Mem[m.Regs[target.SP]+uint64(by)] = byte(c[i] >> (8 * by))
			}
		}
		got, err := m.Run(0)
		if err != nil {
			t.Fatalf("simulate: %v\n%s", err, dumpProgram(prog))
		}
		if got != want {
			t.Errorf("f(%d,%d) = %d, want %d\n%s", c[0], c[1], got, want, dumpProgram(prog))
		}
	}
}

// Expanded and unexpanded programs agree on every benchmark-sized
// kernel (differential check of the §5.2 MI transformation).
func TestExpandCMovsDifferential(t *testing.T) {
	src := `define i32 @clamped(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %i1, %body ]
  %acc = phi i32 [ 0, %entry ], [ %acc1, %body ]
  %c = icmp ult i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %big = icmp ugt i32 %i, 10
  %capped = select i1 %big, i32 10, i32 %i
  %acc1 = add i32 %acc, %capped
  %i1 = add i32 %i, 1
  br label %head
exit:
  ret i32 %acc
}`
	mod1 := ir.MustParseModule(src)
	mod2 := ir.MustParseModule(src)
	p1, err := CompileModule(mod1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := CompileModule(mod2)
	if err != nil {
		t.Fatal(err)
	}
	ExpandCMovs(p2)
	for _, n := range []uint64{0, 5, 15, 40} {
		run := func(p *target.Program) uint64 {
			m := target.NewMachine(p)
			m.Regs[target.SP] -= 8
			for by := uint(0); by < 8; by++ {
				m.Mem[m.Regs[target.SP]+uint64(by)] = byte(n >> (8 * by))
			}
			got, err := m.Run(0)
			if err != nil {
				t.Fatal(err)
			}
			return got
		}
		if a, b := run(p1), run(p2); a != b {
			t.Errorf("n=%d: cmov %d, branches %d", n, a, b)
		}
	}
}
