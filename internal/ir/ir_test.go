package ir

import (
	"fmt"
	"strings"
	"testing"
)

// buildAddCmp builds the paper's Section 2.4 running example:
//
//	%add = add nsw i32 %a, %b
//	%cmp = icmp sgt i32 %add, %a
//	ret i1 %cmp
func buildAddCmp() *Func {
	a, b := NewParam("a", I32), NewParam("b", I32)
	f := NewFunc("f", I1, a, b)
	bb := f.NewBlock("entry")
	bd := NewBuilder(bb)
	add := bd.AddNSW(a, b)
	cmp := bd.ICmp(PredSGT, add, a)
	bd.Ret(cmp)
	return f
}

func TestBuilderAndVerify(t *testing.T) {
	f := buildAddCmp()
	if err := Verify(f, VerifyFreeze); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if n := f.NumInstrs(); n != 3 {
		t.Errorf("NumInstrs = %d, want 3", n)
	}
}

func TestUseLists(t *testing.T) {
	f := buildAddCmp()
	entry := f.Entry()
	add := entry.Instrs()[0]
	cmp := entry.Instrs()[1]
	a := f.Params[0]

	if got := a.NumUses(); got != 2 {
		t.Errorf("a.NumUses = %d, want 2 (add + icmp)", got)
	}
	if got := add.NumUses(); got != 1 {
		t.Errorf("add.NumUses = %d, want 1", got)
	}
	// Replace %add with a constant in all users.
	add.ReplaceAllUsesWith(ConstInt(I32, 7))
	if got := add.NumUses(); got != 0 {
		t.Errorf("after RAUW, add.NumUses = %d, want 0", got)
	}
	if cmp.Arg(0).(*Const).Bits != 7 {
		t.Errorf("icmp operand not rewritten: %v", cmp.Arg(0))
	}
	// a lost the use from add's RAUW? No: add still uses a.
	if got := a.NumUses(); got != 2 {
		t.Errorf("a.NumUses = %d, want 2 (still used by add and icmp)", got)
	}
	entry.Erase(add)
	if got := a.NumUses(); got != 1 {
		t.Errorf("after erasing add, a.NumUses = %d, want 1", got)
	}
}

func TestDuplicateUseCounting(t *testing.T) {
	// %y = add %x, %x — the Section 3.1 shape; x must count 2 uses.
	x := NewParam("x", I32)
	f := NewFunc("g", I32, x)
	bd := NewBuilder(f.NewBlock("entry"))
	y := bd.Add(x, x)
	bd.Ret(y)
	if got := x.NumUses(); got != 2 {
		t.Errorf("x.NumUses = %d, want 2", got)
	}
	y.SetArg(1, ConstInt(I32, 1))
	if got := x.NumUses(); got != 1 {
		t.Errorf("after SetArg, x.NumUses = %d, want 1", got)
	}
}

func TestVerifyRejectsBadIR(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Func
	}{
		{"no blocks", func() *Func { return NewFunc("f", Void) }},
		{"no terminator", func() *Func {
			f := NewFunc("f", Void)
			bd := NewBuilder(f.NewBlock("entry"))
			bd.Add(ConstInt(I32, 1), ConstInt(I32, 2))
			return f
		}},
		{"ret type mismatch", func() *Func {
			f := NewFunc("f", I32)
			bd := NewBuilder(f.NewBlock("entry"))
			bd.Ret(ConstInt(I64, 0))
			return f
		}},
		{"phi after non-phi", func() *Func {
			f := NewFunc("f", I32)
			bb := f.NewBlock("entry")
			bd := NewBuilder(bb)
			add := bd.Add(ConstInt(I32, 1), ConstInt(I32, 2))
			ph := NewInstr(OpPhi, I32)
			ph.Nam = "p"
			ph.AddPhiIncoming(ConstInt(I32, 0), bb)
			bb.Append(ph)
			bd2 := NewBuilder(bb)
			bd2.Ret(add)
			return f
		}},
		{"branch cond not i1", func() *Func {
			f := NewFunc("f", Void)
			b1 := f.NewBlock("entry")
			b2 := f.NewBlock("next")
			in := NewInstr(OpBr, Void, ConstInt(I32, 1))
			in.AddBlockArg(b2)
			in.AddBlockArg(b2)
			b1.Append(in)
			NewBuilder(b2).Ret(nil)
			return f
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := Verify(c.build(), VerifyLegacy); err == nil {
				t.Error("Verify unexpectedly succeeded")
			}
		})
	}
}

func TestVerifyFreezeRejectsUndef(t *testing.T) {
	f := NewFunc("f", I32)
	bd := NewBuilder(f.NewBlock("entry"))
	y := bd.Add(NewUndef(I32), ConstInt(I32, 1))
	bd.Ret(y)
	if err := Verify(f, VerifyLegacy); err != nil {
		t.Errorf("legacy verify should admit undef: %v", err)
	}
	if err := Verify(f, VerifyFreeze); err == nil {
		t.Error("freeze verify should reject undef")
	} else if !strings.Contains(err.Error(), "undef") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	srcs := []string{
		// Figure 1's loop (hoisting example).
		`define void @fig1(i32 %x, i32 %n, ptr %a) {
init:
  br label %head
head:
  %i = phi i32 [ 0, %init ], [ %i1, %body ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %x1 = add nsw i32 %x, 1
  %ptr = getelementptr i32, ptr %a, i32 %i
  store i32 %x1, ptr %ptr
  %i1 = add nsw i32 %i, 1
  br label %head
exit:
  ret void
}`,
		// Constants, poison, undef, select, freeze, casts.
		`define i64 @kitchen(i32 %x, i1 %c) {
entry:
  %f = freeze i32 %x
  %s = select i1 %c, i32 %f, i32 poison
  %u = xor i32 %s, undef
  %w = sext i32 %u to i64
  %t = trunc i64 %w to i8
  %z = zext i8 %t to i64
  ret i64 %z
}`,
		// Vectors, bitcast, memory, alloca, call.
		`define i16 @vecmem(ptr %p) {
entry:
  %buf = alloca i16, i32 4
  %v = load <2 x i16>, ptr %p
  %e = extractelement <2 x i16> %v, i32 0
  %v2 = insertelement <2 x i16> %v, i16 7, i32 1
  %b = bitcast <2 x i16> %v2 to i32
  %tr = trunc i32 %b to i16
  store i16 %tr, ptr %buf
  %r = call i16 @vecmem(ptr %buf)
  %sum = add i16 %r, %e
  ret i16 %sum
}`,
		// Unreachable and udiv exact.
		`define i8 @divs(i8 %a, i8 %b) {
entry:
  %q = udiv exact i8 %a, %b
  %c = icmp eq i8 %q, 0
  br i1 %c, label %dead, label %ok
dead:
  unreachable
ok:
  ret i8 %q
}`,
	}
	for i, src := range srcs {
		m, err := ParseModule(src)
		if err != nil {
			t.Fatalf("case %d: parse: %v", i, err)
		}
		if err := VerifyModule(m, VerifyLegacy); err != nil {
			t.Fatalf("case %d: verify: %v", i, err)
		}
		printed := m.String()
		m2, err := ParseModule(printed)
		if err != nil {
			t.Fatalf("case %d: reparse of\n%s\nfailed: %v", i, printed, err)
		}
		if got := m2.String(); got != printed {
			t.Errorf("case %d: print/parse/print not stable:\n--- first\n%s\n--- second\n%s", i, printed, got)
		}
	}
}

// parseErrorCases are malformed modules and the exact error each must
// produce: the offending token's line:col, and for a name that is used
// but never defined, its first use in source order. FuzzParseModule
// seeds from them too.
var parseErrorCases = []struct {
	name, src, wantErr string
}{
	{
		name:    "missing operand",
		src:     "define i32 @f() {\nentry:\n  %x = add i32 1\n}",
		wantErr: `ir: line 4:1: expected ",", got "}"`,
	},
	{
		name:    "undefined value",
		src:     "define i32 @f() {\nentry:\n  ret i32 %nosuch\n}",
		wantErr: "ir: line 3:11: undefined value %nosuch in @f",
	},
	{
		name:    "first of three undefined values",
		src:     "define i2 @f(i2 %a) {\nentry:\n  %x = add i2 %u, %v\n  %y = add i2 %x, %w\n  ret i2 %y\n}",
		wantErr: "ir: line 3:15: undefined value %u in @f",
	},
	{
		name:    "undefined block",
		src:     "define void @f() {\nentry:\n  br label %nosuch\n}",
		wantErr: "ir: line 3:12: undefined block %nosuch in @f",
	},
	{
		name:    "first of two undefined blocks",
		src:     "define void @f(i1 %c) {\nentry:\n  br i1 %c, label %b2, label %b1\n}",
		wantErr: "ir: line 3:19: undefined block %b2 in @f",
	},
	{
		name:    "unnamed undefined block",
		src:     "define void @f() {\nentry:\n  br label %\n}",
		wantErr: "ir: line 3:12: undefined block % in @f",
	},
	{
		name:    "branch target without %",
		src:     "define void @f(i1 %c) {\nentry:\n  br i1 %c, label a, label %a\na:\n  ret void\n}",
		wantErr: `ir: line 3:19: expected block label, got "a"`,
	},
	{
		name:    "unknown opcode",
		src:     "define i32 @f() {\nentry:\n  %x = bogus i32 1\n  ret i32 %x\n}",
		wantErr: `ir: line 3:8: unknown opcode "bogus"`,
	},
	{
		name:    "unknown icmp predicate",
		src:     "define i1 @f() {\nentry:\n  %x = icmp zz i32 1, 2\n  ret i1 %x\n}",
		wantErr: `ir: line 3:13: unknown icmp predicate "zz"`,
	},
	{
		name:    "init bytes exceed global size",
		src:     "@g = global 2 init 1 2 3",
		wantErr: "ir: line 1:13: global @g: 3 init bytes exceed size 2",
	},
	{
		name:    "call to undefined function",
		src:     "define i32 @f() {\nentry:\n  %r = call i32 @nope()\n  ret i32 %r\n}",
		wantErr: "ir: line 3:17: call to undefined function @nope",
	},
	{
		name:    "call return type mismatch",
		src:     "define i8 @g() {\nentry:\n  ret i8 0\n}\ndefine i32 @f() {\nentry:\n  %r = call i32 @g()\n  ret i32 %r\n}",
		wantErr: "ir: line 7:17: call return type i32 does not match @g's i8",
	},
	{
		name:    "EOF in function body",
		src:     "define i32 @f() {\nentry:\n  ret i32 0",
		wantErr: "ir: line 3:12: unexpected EOF in function body",
	},
	{
		name:    "redefinition",
		src:     "define i32 @f() {\nentry:\n  %x = add i32 1, 2\n  %x = add i32 %x, 2\n  ret i32 %x\n}",
		wantErr: "ir: line 4:3: redefinition of %x",
	},
	{
		name:    "function redefinition",
		src:     "define i2 @f(i2 %x) {\nentry:\n  ret i2 %x\n}\ndefine i2 @f(i2 %x) {\nentry:\n  ret i2 0\n}",
		wantErr: "ir: line 5:11: redefinition of @f",
	},
	{
		name:    "global redefinition",
		src:     "@g = global 1\n@g = global 2",
		wantErr: "ir: line 2:1: redefinition of @g",
	},
	{
		name:    "function named like a global",
		src:     "@g = global 1\ndefine void @g() {\nentry:\n  ret void\n}",
		wantErr: "ir: line 2:13: redefinition of @g",
	},
	{
		name:    "global named like a function",
		src:     "define void @g() {\nentry:\n  ret void\n}\n@g = global 1",
		wantErr: "ir: line 5:1: redefinition of @g",
	},
	{
		name:    "duplicate block label",
		src:     "define void @f() {\nentry:\n  br label %a\na:\n  br label %a\na:\n  ret void\n}",
		wantErr: `ir: line 6:1: duplicate block label "a"`,
	},
	{
		name:    "unnamed result",
		src:     "define i32 @f() {\nentry:\n  add i32 1, 2\n  ret i32 0\n}",
		wantErr: "ir: line 3:3: add result must be named",
	},
	{
		name:    "named void result",
		src:     "define void @f(ptr %p) {\nentry:\n  %s = store i32 1, ptr %p\n  ret void\n}",
		wantErr: "ir: line 3:8: store produces no result but is named %s",
	},
	{
		name:    "zero-length vector",
		src:     "define <0 x i8> @f() {\nentry:\n  ret <0 x i8> poison\n}",
		wantErr: `ir: line 1:9: bad vector length "0"`,
	},
	{
		name:    "unsupported bitwidth",
		src:     "define i99x @f() {\nentry:\n  ret void\n}",
		wantErr: `ir: line 1:8: unsupported bitwidth in "i99x"`,
	},
	{
		name:    "undefined global",
		src:     "define i8 @f() {\nentry:\n  %v = load i8, ptr @nope\n  ret i8 %v\n}",
		wantErr: "ir: line 3:21: undefined global @nope",
	},
	{
		name:    "declaration",
		src:     "declare i32 @f()",
		wantErr: `ir: line 1:1: expected 'define' or global, got "declare"`,
	},
	{
		name:    "vector length over the maximum",
		src:     "define <2000000000 x i8> @f() {\nentry:\n  %x = freeze <2000000000 x i8> poison\n  ret <2000000000 x i8> %x\n}",
		wantErr: "ir: line 1:9: vector length 2000000000 exceeds the maximum 65536",
	},
	{
		name:    "global size over the maximum",
		src:     "@g = global 4000000000",
		wantErr: "ir: line 1:13: global size 4000000000 exceeds the maximum 16777216",
	},
	{
		// Each element is "i8 0, " (6 bytes) after the 16-byte prefix,
		// so the first element past the maximum starts at column
		// 17+6*MaxVecLen.
		name:    "vector constant over the maximum",
		src:     "define <2 x i8> @f() {\nentry:\n  ret <2 x i8> <" + strings.Repeat("i8 0, ", MaxVecLen) + "i8 0>\n}",
		wantErr: fmt.Sprintf("ir: line 3:%d: vector constant has more than 65536 elements", 17+6*MaxVecLen),
	},
}

// TestParseErrors parses every malformed module repeatedly: the error
// must be exact and the same every time, whatever order the parser's
// maps iterate in.
func TestParseErrors(t *testing.T) {
	for _, tc := range parseErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 20; i++ {
				_, err := ParseModule(tc.src)
				if err == nil {
					t.Fatalf("parse succeeded, want %q", tc.wantErr)
				}
				if err.Error() != tc.wantErr {
					t.Fatalf("parse %d: error %q, want %q", i, err, tc.wantErr)
				}
			}
		})
	}
}

// TestParseAcceptsWhatVerifyRejects: a return of the wrong type is the
// verifier's to reject, not the parser's.
func TestParseAcceptsWhatVerifyRejects(t *testing.T) {
	m, err := ParseModule("define i32 @f() { entry:\n ret i64 0 }")
	if err != nil {
		t.Fatal(err)
	}
	if VerifyModule(m, VerifyLegacy) == nil {
		t.Error("verify accepted ret i64 in an i32 function")
	}
}

func TestParseGlobal(t *testing.T) {
	m, err := ParseModule("@tab = global 8 init 1 2 3\n@z = global 4\ndefine void @f() {\nentry:\n ret void\n}")
	if err != nil {
		t.Fatal(err)
	}
	g := m.GlobalByName("tab")
	if g == nil || g.Size != 8 || len(g.Init) != 3 || g.Init[2] != 3 {
		t.Errorf("bad global: %+v", g)
	}
	if z := m.GlobalByName("z"); z == nil || z.Size != 4 || len(z.Init) != 0 {
		t.Errorf("bad global z: %+v", z)
	}
}

func TestCloneFunc(t *testing.T) {
	src := `define i32 @loop(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %inc, %head ]
  %inc = add nsw i32 %i, 1
  %c = icmp slt i32 %inc, %n
  br i1 %c, label %head, label %exit
exit:
  ret i32 %i
}`
	f := MustParseFunc(src)
	g := CloneFunc(f)
	if err := Verify(g, VerifyFreeze); err != nil {
		t.Fatalf("clone fails verify: %v", err)
	}
	if f.String() != g.String() {
		t.Errorf("clone prints differently:\n%s\nvs\n%s", f, g)
	}
	// Mutating the clone must not touch the original.
	g.Entry().Instrs()[0].SetBlockArg(0, g.Blocks[2])
	if f.String() == g.String() {
		t.Error("mutation of clone affected original")
	}
	// The clone's instructions must not alias the original's.
	f.ForEachInstr(func(in *Instr) {
		g.ForEachInstr(func(gin *Instr) {
			if in == gin {
				t.Fatal("clone shares an instruction with original")
			}
		})
	})
}

func TestPredHelpers(t *testing.T) {
	for p := PredEQ; p < predMax; p++ {
		if got := p.Inverse().Inverse(); got != p {
			t.Errorf("double inverse of %s = %s", p, got)
		}
		if got := p.Swapped().Swapped(); got != p {
			t.Errorf("double swap of %s = %s", p, got)
		}
	}
	if !PredSLT.IsSigned() || PredULT.IsSigned() || PredEQ.IsSigned() {
		t.Error("IsSigned misclassifies")
	}
	if PredSGT.Inverse() != PredSLE || PredSGT.Swapped() != PredSLT {
		t.Error("Inverse/Swapped wrong for sgt")
	}
}

func TestConstHelpers(t *testing.T) {
	c := ConstInt(I8, 0xff)
	if !c.IsAllOnes() || c.SInt() != -1 {
		t.Errorf("ConstInt(i8 0xff): IsAllOnes=%v SInt=%d", c.IsAllOnes(), c.SInt())
	}
	if got := c.Ident(); got != "-1" {
		t.Errorf("Ident = %q, want -1", got)
	}
	z := ConstInt(I32, 0)
	if !z.IsZero() || z.Ident() != "0" {
		t.Errorf("zero const misbehaves: %v %q", z.IsZero(), z.Ident())
	}
	if ConstBool(true).Bits != 1 || ConstBool(false).Bits != 0 {
		t.Error("ConstBool wrong")
	}
}

func TestPhiIncomingEditing(t *testing.T) {
	f := MustParseFunc(`define i32 @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %m
b:
  br label %m
m:
  %x = phi i32 [ 1, %a ], [ 2, %b ]
  ret i32 %x
}`)
	m := f.BlockByName("m")
	ph := m.Phis()[0]
	va, ok := ph.PhiIncoming(f.BlockByName("a"))
	if !ok || va.(*Const).Bits != 1 {
		t.Fatalf("PhiIncoming(a) = %v, %v", va, ok)
	}
	ph.RemovePhiIncoming(f.BlockByName("a"))
	if ph.NumArgs() != 1 {
		t.Errorf("after removal, NumArgs = %d", ph.NumArgs())
	}
	if _, ok := ph.PhiIncoming(f.BlockByName("a")); ok {
		t.Error("incoming for a still present")
	}
}

func TestPredsAndSuccs(t *testing.T) {
	f := MustParseFunc(`define void @f(i1 %c) {
entry:
  br i1 %c, label %x, label %y
x:
  br label %z
y:
  br label %z
z:
  ret void
}`)
	z := f.BlockByName("z")
	preds := f.Preds(z)
	if len(preds) != 2 {
		t.Fatalf("Preds(z) = %d blocks", len(preds))
	}
	if succs := f.Entry().Succs(); len(succs) != 2 || succs[0].Nam != "x" || succs[1].Nam != "y" {
		t.Errorf("entry succs wrong: %v", succs)
	}
	// Conditional branch with identical targets counts one predecessor.
	f2 := MustParseFunc(`define void @g(i1 %c) {
entry:
  br i1 %c, label %z, label %z
z:
  ret void
}`)
	if got := len(f2.Preds(f2.BlockByName("z"))); got != 1 {
		t.Errorf("same-target preds = %d, want 1", got)
	}
}

func TestVecConst(t *testing.T) {
	v := NewVecConst([]Value{ConstInt(I8, 1), NewPoison(I8), NewUndef(I8)})
	if !v.Type().Equal(Vec(3, I8)) {
		t.Errorf("type = %s", v.Type())
	}
	want := "<i8 1, i8 poison, i8 undef>"
	if got := v.Ident(); got != want {
		t.Errorf("Ident = %q, want %q", got, want)
	}
}

func TestModuleLookup(t *testing.T) {
	m := MustParseModule(`define void @a() {
entry:
  ret void
}

define void @b() {
entry:
  call void @a()
  ret void
}`)
	if m.FuncByName("a") == nil || m.FuncByName("b") == nil || m.FuncByName("c") != nil {
		t.Error("FuncByName broken")
	}
	call := m.FuncByName("b").Entry().Instrs()[0]
	if call.Callee != m.FuncByName("a") {
		t.Error("call not resolved to @a")
	}
}
