package passes

import (
	"testing"

	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/refine"
)

func TestInlinerBasic(t *testing.T) {
	mod := ir.MustParseModule(`define i8 @sq(i8 %x) {
entry:
  %m = mul i8 %x, %x
  ret i8 %m
}

define i8 @f(i8 %a) {
entry:
  %r = call i8 @sq(i8 %a)
  %s = add i8 %r, 1
  ret i8 %s
}`)
	f := mod.FuncByName("f")
	cfg := DefaultFreezeConfig()
	cfg.VerifyEach = true
	if !RunPass(Inliner{}, f, cfg) {
		t.Fatal("inliner did nothing")
	}
	if countOp(f, ir.OpCall) != 0 {
		t.Fatalf("call not inlined:\n%s", f)
	}
	out := core.Exec(f, []core.Value{core.VC(ir.I8, 7)}, core.ZeroOracle{}, core.FreezeOptions())
	if out.Kind != core.OutRet || out.Val.Uint() != 50 {
		t.Errorf("f(7) = %v, want 50", out)
	}
}

func TestInlinerControlFlow(t *testing.T) {
	mod := ir.MustParseModule(`define i8 @abs(i8 %x) {
entry:
  %neg = icmp slt i8 %x, 0
  br i1 %neg, label %flip, label %keep
flip:
  %n = sub i8 0, %x
  ret i8 %n
keep:
  ret i8 %x
}

define i8 @f(i8 %a, i8 %b) {
entry:
  %r1 = call i8 @abs(i8 %a)
  %r2 = call i8 @abs(i8 %b)
  %s = add i8 %r1, %r2
  ret i8 %s
}`)
	f := mod.FuncByName("f")
	cfg := DefaultFreezeConfig()
	cfg.VerifyEach = true
	RunPass(Inliner{}, f, cfg)
	if countOp(f, ir.OpCall) != 0 {
		t.Fatalf("calls not inlined:\n%s", f)
	}
	for _, c := range []struct{ a, b, want uint64 }{
		{5, 3, 8}, {0xfb, 3, 8}, {0xfb, 0xfd, 8}, {0, 0, 0},
	} {
		out := core.Exec(f, []core.Value{core.VC(ir.I8, c.a), core.VC(ir.I8, c.b)}, core.ZeroOracle{}, core.FreezeOptions())
		if out.Kind != core.OutRet || out.Val.Uint() != c.want {
			t.Errorf("f(%d,%d) = %v, want %d", int8(c.a), int8(c.b), out, c.want)
		}
	}
}

func TestInlinerRefinesExhaustively(t *testing.T) {
	mod := ir.MustParseModule(`define i2 @helper(i2 %x, i2 %y) {
entry:
  %m = add nsw i2 %x, %y
  %c = icmp eq i2 %m, 0
  br i1 %c, label %z, label %nz
z:
  ret i2 3
nz:
  ret i2 %m
}

define i2 @f(i2 %a, i2 %b) {
entry:
  %r = call i2 @helper(i2 %a, i2 %b)
  ret i2 %r
}`)
	orig := ir.CloneFunc(mod.FuncByName("f"))
	// The clone's call still targets the original helper, which is
	// what the interpreter resolves through the module — keep the
	// original module function for execution.
	f := mod.FuncByName("f")
	cfg := DefaultFreezeConfig()
	cfg.VerifyEach = true
	RunPass(Inliner{}, f, cfg)
	if countOp(f, ir.OpCall) != 0 {
		t.Fatalf("call not inlined:\n%s", f)
	}
	// orig is detached from the module; rebuild a module around it so
	// the callee resolves.
	om := ir.NewModule()
	om.AddFunc(mod.FuncByName("helper"))
	om.AddFunc(orig)
	fz := core.FreezeOptions()
	r := refine.Check(orig, f, refine.DefaultConfig(fz, fz))
	if r.Status != refine.Verified {
		t.Errorf("inlining should verify: %s\n%s", r, f)
	}
}

func TestInlinerSkipsRecursion(t *testing.T) {
	mod := ir.MustParseModule(`define i8 @fact(i8 %n) {
entry:
  %z = icmp eq i8 %n, 0
  br i1 %z, label %base, label %rec
base:
  ret i8 1
rec:
  %n1 = sub i8 %n, 1
  %r = call i8 @fact(i8 %n1)
  %m = mul i8 %n, %r
  ret i8 %m
}`)
	f := mod.FuncByName("fact")
	cfg := DefaultFreezeConfig()
	cfg.VerifyEach = true
	RunPass(Inliner{}, f, cfg)
	if countOp(f, ir.OpCall) != 1 {
		t.Errorf("self-recursion must not inline:\n%s", f)
	}
}

func TestInlinerFreezeIsFree(t *testing.T) {
	// A callee stuffed with freezes: under the §6 cost model it still
	// inlines when freeze-aware; the freeze-blind cost model rejects
	// it.
	src := `define i8 @frosty(i8 %x) {
entry:
  %f1 = freeze i8 %x
  %f2 = freeze i8 %f1
  %f3 = freeze i8 %f2
  %f4 = freeze i8 %f3
  %f5 = freeze i8 %f4
  %f6 = freeze i8 %f5
  %a1 = add i8 %f6, 1
  %f7 = freeze i8 %a1
  %f8 = freeze i8 %f7
  %f9 = freeze i8 %f8
  %f10 = freeze i8 %f9
  %f11 = freeze i8 %f10
  %f12 = freeze i8 %f11
  %f13 = freeze i8 %f12
  %f14 = freeze i8 %f13
  %f15 = freeze i8 %f14
  %f16 = freeze i8 %f15
  %f17 = freeze i8 %f16
  %f18 = freeze i8 %f17
  %f19 = freeze i8 %f18
  %f20 = freeze i8 %f19
  %f21 = freeze i8 %f20
  %f22 = freeze i8 %f21
  %f23 = freeze i8 %f22
  %f24 = freeze i8 %f23
  %f25 = freeze i8 %f24
  %f26 = freeze i8 %f25
  %f27 = freeze i8 %f26
  %f28 = freeze i8 %f27
  %f29 = freeze i8 %f28
  %f30 = freeze i8 %f29
  %a2 = add i8 %f30, 1
  ret i8 %a2
}

define i8 @f(i8 %a) {
entry:
  %r = call i8 @frosty(i8 %a)
  ret i8 %r
}`
	// 30 freezes + 2 adds: cost 2 when freeze is free, 32 otherwise.
	mod := ir.MustParseModule(src)
	aware := DefaultFreezeConfig()
	RunPass(Inliner{}, mod.FuncByName("f"), aware)
	if countOp(mod.FuncByName("f"), ir.OpCall) != 0 {
		t.Error("freeze-aware inliner should inline the freeze-heavy callee")
	}

	mod2 := ir.MustParseModule(src)
	blind := DefaultFreezeConfig()
	blind.FreezeAware = false
	RunPass(Inliner{}, mod2.FuncByName("f"), blind)
	if countOp(mod2.FuncByName("f"), ir.OpCall) != 1 {
		t.Error("freeze-blind inliner should reject the freeze-heavy callee (cost 32 > 30)")
	}
}

func TestInlinerPreservesPoisonFlow(t *testing.T) {
	// Inlining must not lose the callee's deferred UB: helper returns
	// poison on overflow, and so must the inlined body.
	mod := ir.MustParseModule(`define i2 @inc(i2 %x) {
entry:
  %r = add nsw i2 %x, 1
  ret i2 %r
}

define i2 @f(i2 %a) {
entry:
  %r = call i2 @inc(i2 %a)
  ret i2 %r
}`)
	f := mod.FuncByName("f")
	RunPass(Inliner{}, f, DefaultFreezeConfig())
	out := core.Exec(f, []core.Value{core.VC(ir.I2, 1)}, core.ZeroOracle{}, core.FreezeOptions())
	if out.Kind != core.OutRet || !out.Val.IsPoison() {
		t.Errorf("inlined nsw overflow should be poison, got %v", out)
	}
}
