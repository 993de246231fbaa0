package passes

import (
	"strings"
	"testing"

	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/refine"
)

// applyPass parses src, runs the pass under cfg, verifies the result,
// and returns (original, transformed).
func applyPass(t *testing.T, src string, p Pass, cfg *Config) (*ir.Func, *ir.Func) {
	t.Helper()
	orig, err := ir.ParseFunc(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	work := ir.CloneFunc(orig)
	cfg.VerifyEach = true
	RunPass(p, work, cfg)
	return orig, work
}

// validatePass additionally checks refinement between original and
// transformed under the config's semantics.
func validatePass(t *testing.T, src string, p Pass, cfg *Config, want refine.Status) (*ir.Func, *ir.Func) {
	t.Helper()
	orig, work := applyPass(t, src, p, cfg)
	r := refine.Check(orig, work, refine.DefaultConfig(cfg.Sem, cfg.Sem))
	if r.Status != want {
		t.Fatalf("%s: refinement %v, want %v\n--- source\n%s\n--- transformed\n%s\n%s",
			p.Name(), r.Status, want, orig, work, r)
	}
	return orig, work
}

func countOp(f *ir.Func, op ir.Op) int {
	n := 0
	f.ForEachInstr(func(in *ir.Instr) {
		if in.Op == op {
			n++
		}
	})
	return n
}

func TestInstSimplifyIdentities(t *testing.T) {
	src := `define i2 @f(i2 %x) {
entry:
  %a = add i2 %x, 0
  %b = mul i2 %a, 1
  %c = sub i2 %b, %b
  %d = or i2 %c, %x
  %e = and i2 %d, %d
  ret i2 %e
}`
	_, work := validatePass(t, src, InstSimplify{}, DefaultFreezeConfig(), refine.Verified)
	if n := work.NumInstrs(); n != 1 {
		t.Errorf("expected full collapse to ret, got %d instrs:\n%s", n, work)
	}
}

func TestInstSimplifyConstFold(t *testing.T) {
	src := `define i8 @f() {
entry:
  %a = add i8 10, 20
  %b = mul i8 %a, 2
  %c = udiv i8 %b, 3
  %d = icmp ult i8 %c, 100
  %e = select i1 %d, i8 %c, i8 0
  ret i8 %e
}`
	_, work := applyPass(t, src, InstSimplify{}, DefaultFreezeConfig())
	if n := work.NumInstrs(); n != 1 {
		t.Fatalf("expected full fold, got:\n%s", work)
	}
	ret := work.Entry().Instrs()[0]
	if c, ok := ret.Arg(0).(*ir.Const); !ok || c.Bits != 20 {
		t.Errorf("folded to %v, want 20", ret.Arg(0))
	}
}

func TestFoldDivByZeroToPoison(t *testing.T) {
	src := `define i8 @f() {
entry:
  %a = udiv i8 1, 0
  ret i8 %a
}`
	_, work := validatePass(t, src, InstSimplify{}, DefaultFreezeConfig(), refine.Verified)
	ret := work.Entry().Instrs()[len(work.Entry().Instrs())-1]
	if _, ok := ret.Arg(0).(*ir.Poison); !ok {
		t.Errorf("udiv 1,0 should fold to poison:\n%s", work)
	}
}

func TestFoldMulUndefNotUndef(t *testing.T) {
	// §3.1 discipline in the folder: mul undef, 2 must not fold to
	// undef (only even values are possible); folding to the member 0
	// is fine.
	src := `define i2 @f() {
entry:
  %a = mul i2 undef, 2
  ret i2 %a
}`
	cfg := DefaultLegacyConfig()
	cfg.Unsound = false
	_, work := validatePass(t, src, InstSimplify{}, cfg, refine.Verified)
	ret := work.Entry().Instrs()[len(work.Entry().Instrs())-1]
	if _, isUndef := ret.Arg(0).(*ir.Undef); isUndef {
		t.Errorf("mul undef, 2 folded to undef — §3.1 violation:\n%s", work)
	}
}

func TestFoldAddUndefIsUndef(t *testing.T) {
	// add is surjective in each operand: add x, undef folds to undef
	// exactly.
	src := `define i2 @f() {
entry:
  %a = add i2 3, undef
  ret i2 %a
}`
	cfg := DefaultLegacyConfig()
	cfg.Unsound = false
	_, work := validatePass(t, src, InstSimplify{}, cfg, refine.Verified)
	ret := work.Entry().Instrs()[len(work.Entry().Instrs())-1]
	if _, isUndef := ret.Arg(0).(*ir.Undef); !isUndef {
		t.Errorf("add 3, undef should fold to undef:\n%s", work)
	}
}

func TestDCE(t *testing.T) {
	src := `define i2 @f(i2 %x) {
entry:
  %dead1 = add i2 %x, 1
  %dead2 = udiv i2 1, %x
  %live = mul i2 %x, 3
  ret i2 %live
}`
	_, work := validatePass(t, src, DCE{}, DefaultFreezeConfig(), refine.Verified)
	if n := work.NumInstrs(); n != 2 {
		t.Errorf("DCE left %d instrs, want 2 (mul+ret):\n%s", n, work)
	}
}

func TestDCERemovesUnreachable(t *testing.T) {
	src := `define i8 @f() {
entry:
  ret i8 1
dead:
  %x = add i8 1, 2
  br label %dead2
dead2:
  ret i8 %x
}`
	_, work := applyPass(t, src, DCE{}, DefaultFreezeConfig())
	if len(work.Blocks) != 1 {
		t.Errorf("unreachable blocks remain:\n%s", work)
	}
}

func TestSimplifyCFGConstBranch(t *testing.T) {
	src := `define i2 @f(i2 %x) {
entry:
  br i1 true, label %a, label %b
a:
  ret i2 %x
b:
  ret i2 0
}`
	_, work := validatePass(t, src, SimplifyCFG{}, DefaultFreezeConfig(), refine.Verified)
	if len(work.Blocks) != 1 {
		t.Errorf("const branch not folded:\n%s", work)
	}
}

func TestSimplifyCFGMergeChain(t *testing.T) {
	src := `define i2 @f(i2 %x) {
entry:
  %a = add i2 %x, 1
  br label %next
next:
  %b = add i2 %a, 2
  br label %last
last:
  ret i2 %b
}`
	_, work := validatePass(t, src, SimplifyCFG{}, DefaultFreezeConfig(), refine.Verified)
	if len(work.Blocks) != 1 {
		t.Errorf("chain not merged:\n%s", work)
	}
}

func TestSimplifyCFGPhiToSelect(t *testing.T) {
	src := `define i2 @f(i1 %c, i2 %a, i2 %b) {
entry:
  br i1 %c, label %t, label %e
t:
  br label %m
e:
  br label %m
m:
  %x = phi i2 [ %a, %t ], [ %b, %e ]
  ret i2 %x
}`
	_, work := validatePass(t, src, SimplifyCFG{}, DefaultFreezeConfig(), refine.Verified)
	if countOp(work, ir.OpSelect) != 1 || countOp(work, ir.OpPhi) != 0 {
		t.Errorf("phi→select missed:\n%s", work)
	}
	// Under the legacy either-arm select semantics, the *fixed*
	// legacy pipeline must NOT do the transformation...
	legacyFixed := &Config{Sem: core.LegacyOptions(core.BranchPoisonIsUB)}
	_, work2 := applyPass(t, src, SimplifyCFG{}, legacyFixed)
	if countOp(work2, ir.OpSelect) != 0 {
		t.Errorf("phi→select performed under either-arm select semantics:\n%s", work2)
	}
	// ...while the historical pipeline does it anyway, and the
	// refinement checker catches the poison leak (§3.4).
	legacyBug := DefaultLegacyConfig()
	legacyBug.Sem.BranchPoison = core.BranchPoisonIsUB
	validatePass(t, src, SimplifyCFG{}, legacyBug, refine.Refuted)
}

func TestSimplifyCFGTriangle(t *testing.T) {
	src := `define i2 @f(i1 %c, i2 %a) {
entry:
  br i1 %c, label %t, label %m
t:
  br label %m
m:
  %x = phi i2 [ 1, %t ], [ %a, %entry ]
  ret i2 %x
}`
	_, work := validatePass(t, src, SimplifyCFG{}, DefaultFreezeConfig(), refine.Verified)
	if countOp(work, ir.OpSelect) != 1 {
		t.Errorf("triangle phi→select missed:\n%s", work)
	}
}

func TestInstCombineMulToAdd(t *testing.T) {
	src := `define i2 @f(i2 %x) {
entry:
  %y = mul i2 %x, 2
  ret i2 %y
}`
	// Freeze semantics: legal (§3.1 becomes permissible).
	_, work := validatePass(t, src, InstCombine{}, DefaultFreezeConfig(), refine.Verified)
	if countOp(work, ir.OpAdd) != 1 {
		t.Errorf("mul x,2 → add x,x not performed under freeze semantics:\n%s", work)
	}
	// Legacy fixed: must not (x may be undef) — it picks shl instead?
	// No: 2 is the special case; the fixed legacy combiner leaves it.
	legacyFixed := &Config{Sem: core.LegacyOptions(core.BranchPoisonNondet)}
	_, work2 := applyPass(t, src, InstCombine{}, legacyFixed)
	if countOp(work2, ir.OpAdd) != 0 {
		t.Errorf("mul x,2 rewritten under legacy semantics:\n%s", work2)
	}
	// Legacy unsound: does it, refinement refutes.
	validatePass(t, src, InstCombine{}, DefaultLegacyConfig(), refine.Refuted)
}

func TestInstCombineMulPow2ToShl(t *testing.T) {
	src := `define i4 @f(i4 %x) {
entry:
  %y = mul i4 %x, 4
  ret i4 %y
}`
	for _, cfg := range []*Config{DefaultFreezeConfig(), {Sem: core.LegacyOptions(core.BranchPoisonNondet)}} {
		_, work := validatePass(t, src, InstCombine{}, cfg, refine.Verified)
		if countOp(work, ir.OpShl) != 1 {
			t.Errorf("mul x,8 → shl x,2 missed:\n%s", work)
		}
	}
}

func TestInstCombineUDivPow2(t *testing.T) {
	src := `define i4 @f(i4 %x) {
entry:
  %y = udiv i4 %x, 4
  ret i4 %y
}`
	_, work := validatePass(t, src, InstCombine{}, DefaultFreezeConfig(), refine.Verified)
	if countOp(work, ir.OpLShr) != 1 {
		t.Errorf("udiv x,4 → lshr x,2 missed:\n%s", work)
	}
}

func TestInstCombineUDivNegConstToSelect(t *testing.T) {
	// §3.4: udiv %a, C → icmp+select for C with the sign bit set.
	src := `define i2 @f(i2 %a) {
entry:
  %r = udiv i2 %a, 3
  ret i2 %r
}`
	_, work := validatePass(t, src, InstCombine{}, DefaultFreezeConfig(), refine.Verified)
	if countOp(work, ir.OpUDiv) != 0 || countOp(work, ir.OpSelect) != 1 {
		t.Errorf("udiv → select missed:\n%s", work)
	}
}

func TestInstCombineSelectToOr(t *testing.T) {
	src := `define i1 @f(i1 %c, i1 %x) {
entry:
  %v = select i1 %c, i1 true, i1 %x
  ret i1 %v
}`
	// Historical unsound rule: or %c, %x. Refuted under Figure 5
	// semantics.
	buggy := DefaultLegacyConfig()
	buggy.Sem = core.FreezeOptions() // judge the historical rule under the adopted semantics
	_, work := applyPass(t, src, InstCombine{}, buggy)
	if countOp(work, ir.OpOr) != 1 {
		t.Fatalf("unsound combiner should produce or:\n%s", work)
	}
	orig := ir.MustParseFunc(src)
	r := refine.Check(orig, work, refine.DefaultConfig(core.FreezeOptions(), core.FreezeOptions()))
	if r.Status != refine.Refuted {
		t.Errorf("historical select→or should be refuted: %s", r)
	}
	// Fixed freeze-mode rule: or %c, freeze(%x) — verified.
	_, fixed := validatePass(t, src, InstCombine{}, DefaultFreezeConfig(), refine.Verified)
	if countOp(fixed, ir.OpOr) != 1 || countOp(fixed, ir.OpFreeze) != 1 {
		t.Errorf("fixed select→or+freeze missed:\n%s", fixed)
	}
}

func TestInstCombineSelectUndefArm(t *testing.T) {
	// PR31633: select %c, %x, undef → %x, wrong because %x could be
	// poison.
	src := `define i2 @f(i1 %c, i2 %x) {
entry:
  %v = select i1 %c, i2 %x, i2 undef
  ret i2 %v
}`
	legacyBug := DefaultLegacyConfig()
	legacyBug.Sem.SelectArmPoisonEither = false
	validatePass(t, src, InstCombine{}, legacyBug, refine.Refuted)
	// The fixed legacy combiner leaves the select alone.
	legacyFixed := &Config{Sem: legacyBug.Sem}
	_, work := applyPass(t, src, InstCombine{}, legacyFixed)
	if countOp(work, ir.OpSelect) != 1 {
		t.Errorf("fixed combiner should keep the select:\n%s", work)
	}
}

func TestInstCombineFreezeOfNonPoison(t *testing.T) {
	src := `define i2 @f(i2 %x) {
entry:
  %fz1 = freeze i2 %x
  %a = add i2 %fz1, 1
  %fz2 = freeze i2 %a
  ret i2 %fz2
}`
	_, work := validatePass(t, src, InstCombine{}, DefaultFreezeConfig(), refine.Verified)
	// fz2 freezes add(freeze(x), 1) which is never poison → folds.
	if n := countOp(work, ir.OpFreeze); n != 1 {
		t.Errorf("redundant freeze not removed (have %d):\n%s", n, work)
	}
}

func TestGVNBasicCSE(t *testing.T) {
	src := `define i2 @f(i2 %x, i2 %y) {
entry:
  %a = add i2 %x, %y
  %b = add i2 %x, %y
  %c = add i2 %y, %x
  %s1 = mul i2 %a, %b
  %s2 = mul i2 %s1, %c
  ret i2 %s2
}`
	_, work := validatePass(t, src, GVN{}, DefaultFreezeConfig(), refine.Verified)
	if n := countOp(work, ir.OpAdd); n != 1 {
		t.Errorf("GVN left %d adds, want 1:\n%s", n, work)
	}
}

func TestGVNDominanceRespected(t *testing.T) {
	src := `define i2 @f(i1 %c, i2 %x) {
entry:
  br i1 %c, label %a, label %b
a:
  %u = add i2 %x, 1
  br label %m
b:
  %v = add i2 %x, 1
  br label %m
m:
  %p = phi i2 [ %u, %a ], [ %v, %b ]
  ret i2 %p
}`
	// Neither add dominates the other; GVN must not merge them.
	_, work := validatePass(t, src, GVN{}, DefaultFreezeConfig(), refine.Verified)
	if n := countOp(work, ir.OpAdd); n != 2 {
		t.Errorf("GVN merged non-dominating exprs:\n%s", work)
	}
}

func TestGVNNeverMergesFreeze(t *testing.T) {
	src := `define i2 @f(i2 %x) {
entry:
  %f1 = freeze i2 %x
  %f2 = freeze i2 %x
  %d = sub i2 %f1, %f2
  ret i2 %d
}`
	_, work := validatePass(t, src, GVN{}, DefaultFreezeConfig(), refine.Verified)
	if n := countOp(work, ir.OpFreeze); n != 2 {
		t.Errorf("GVN merged freezes — §6 says it must not (have %d):\n%s", n, work)
	}
}

func TestGVNEqualityPropagation(t *testing.T) {
	// §3.3's example: in the then-block, t (= x+1) is replaced by y.
	src := `define i8 @f(i8 %x, i8 %y) {
entry:
  %t = add nsw i8 %x, 1
  %cmp = icmp eq i8 %t, %y
  br i1 %cmp, label %then, label %else
then:
  %w = add nsw i8 %x, 1
  ret i8 %w
else:
  ret i8 0
}`
	cfg := DefaultFreezeConfig()
	_, work := applyPass(t, src, GVN{}, cfg)
	then := work.BlockByName("then")
	ret := then.Instrs()[len(then.Instrs())-1]
	if p, ok := ret.Arg(0).(*ir.Param); !ok || p.Name() != "y" {
		t.Errorf("equality not propagated; then returns %v:\n%s", ret.Arg(0), work)
	}
	// Sound under branch-on-poison-is-UB (sampled i8 inputs, so
	// inconclusive rather than exhaustive-verified; a refuted result
	// would be a bug).
	orig := ir.MustParseFunc(src)
	r := refine.Check(orig, work, refine.DefaultConfig(cfg.Sem, cfg.Sem))
	if r.Status == refine.Refuted {
		t.Errorf("GVN propagation unsound under UB-branch: %s", r)
	}
}

func TestGVNPropagationUnsoundUnderNondetBranch(t *testing.T) {
	// The same propagation is WRONG if branch-on-poison is a
	// nondeterministic choice (§3.3): replace w with y, y poison,
	// w concrete.
	src := `define i2 @f(i2 %x, i2 %y) {
entry:
  %t = add i2 %x, 1
  %cmp = icmp eq i2 %t, %y
  br i1 %cmp, label %then, label %else
then:
  %w = add i2 %x, 1
  ret i2 %w
else:
  ret i2 0
}`
	nondet := core.LegacyOptions(core.BranchPoisonNondet)
	cfg := &Config{Sem: nondet, Unsound: true} // historical GVN propagates regardless
	orig, work := applyPass(t, src, GVN{}, cfg)
	r := refine.Check(orig, work, refine.DefaultConfig(nondet, nondet))
	if r.Status != refine.Refuted {
		t.Errorf("GVN propagation should be refuted under nondet branches: %s", r)
	}
	// And the fixed GVN under nondet semantics refuses to propagate.
	fixedCfg := &Config{Sem: nondet}
	_, fixedWork := applyPass(t, src, GVN{}, fixedCfg)
	then := fixedWork.BlockByName("then")
	ret := then.Instrs()[len(then.Instrs())-1]
	if p, isP := ret.Arg(0).(*ir.Param); isP && p.Name() == "y" {
		t.Errorf("fixed GVN propagated t==y under nondet semantics:\n%s", fixedWork)
	}
	rFixed := refine.Check(orig, fixedWork, refine.DefaultConfig(nondet, nondet))
	if rFixed.Status == refine.Refuted {
		t.Errorf("fixed GVN should be sound under nondet semantics: %s", rFixed)
	}
}

func TestLICMHoistsSpeculatable(t *testing.T) {
	// Figure 1: hoist x+1 (nsw) out of the loop — the motivating
	// example for deferred UB.
	src := `define i8 @f(i8 %x, i8 %n) {
entry:
  br label %head
head:
  %i = phi i8 [ 0, %entry ], [ %i1, %body ]
  %c = icmp slt i8 %i, %n
  br i1 %c, label %body, label %exit
body:
  %x1 = add nsw i8 %x, 1
  %acc = add i8 %x1, %i
  %i1 = add nsw i8 %i, 1
  br label %head
exit:
  ret i8 %i
}`
	_, work := applyPass(t, src, LICM{}, DefaultFreezeConfig())
	entry := work.Entry()
	found := false
	for _, in := range entry.Instrs() {
		if in.Op == ir.OpAdd && in.Attrs&ir.NSW != 0 && in.Name() == "x1" {
			found = true
		}
	}
	if !found {
		t.Errorf("x+1 not hoisted to preheader:\n%s", work)
	}
}

func TestLICMDivisionNotHoistedWhenUnsafe(t *testing.T) {
	// §3.2: 1/k guarded by k != 0 must NOT be hoisted (k may be
	// undef/poison).
	src := `define i8 @f(i8 %k, i8 %n) {
entry:
  %nz = icmp ne i8 %k, 0
  br i1 %nz, label %pre, label %out
pre:
  br label %head
head:
  %i = phi i8 [ 0, %pre ], [ %i1, %body ]
  %c = icmp slt i8 %i, %n
  br i1 %c, label %body, label %out
body:
  %q = udiv i8 1, %k
  %i1 = add nsw i8 %i, 1
  br label %head
out:
  ret i8 0
}`
	fixed := &Config{Sem: core.LegacyOptions(core.BranchPoisonNondet)}
	_, work := applyPass(t, src, LICM{}, fixed)
	if work.BlockByName("pre") != nil {
		for _, in := range work.BlockByName("pre").Instrs() {
			if in.Op == ir.OpUDiv {
				t.Errorf("fixed LICM hoisted the guarded division:\n%s", work)
			}
		}
	}
	// The historical behaviour hoists it; the refinement checker
	// refutes it (the k=undef, n=0... n so the loop doesn't run, and
	// undef k can pass the check then divide by zero).
	buggy := DefaultLegacyConfig()
	orig, work2 := applyPass(t, src, LICM{}, buggy)
	hoisted := false
	for _, in := range work2.BlockByName("pre").Instrs() {
		if in.Op == ir.OpUDiv {
			hoisted = true
		}
	}
	if !hoisted {
		t.Fatalf("unsound LICM should hoist the division:\n%s", work2)
	}
	r := refine.Check(orig, work2, refine.DefaultConfig(buggy.Sem, buggy.Sem))
	if r.Status != refine.Refuted {
		t.Errorf("historical division hoist should be refuted: %s", r)
	}
}

func TestLICMConstDivisorHoists(t *testing.T) {
	src := `define i8 @f(i8 %a, i8 %n) {
entry:
  br label %head
head:
  %i = phi i8 [ 0, %entry ], [ %i1, %body ]
  %c = icmp slt i8 %i, %n
  br i1 %c, label %body, label %exit
body:
  %q = udiv i8 %a, 3
  %i1 = add nsw i8 %i, 1
  br label %head
exit:
  ret i8 0
}`
	_, work := applyPass(t, src, LICM{}, DefaultFreezeConfig())
	hoisted := false
	for _, in := range work.Entry().Instrs() {
		if in.Op == ir.OpUDiv {
			hoisted = true
		}
	}
	if !hoisted {
		t.Errorf("udiv by constant 3 should hoist:\n%s", work)
	}
}

func TestReassociate(t *testing.T) {
	src := `define i4 @f(i4 %a, i4 %b) {
entry:
  %t1 = add nsw i4 %a, 3
  %t2 = add nsw i4 %t1, %b
  %t3 = add nsw i4 %t2, 5
  ret i4 %t3
}`
	cfg := DefaultFreezeConfig()
	_, work := validatePass(t, src, Reassociate{}, cfg, refine.Verified)
	// Constants combined: exactly one constant operand of 30 somewhere.
	found := false
	work.ForEachInstr(func(in *ir.Instr) {
		if in.Op != ir.OpAdd {
			return
		}
		if in.Attrs&ir.NSW != 0 {
			t.Errorf("fixed reassociation kept nsw:\n%s", work)
		}
		for _, a := range in.Args() {
			if c, ok := a.(*ir.Const); ok && c.Bits == 8 {
				found = true
			}
		}
	})
	if !found {
		t.Errorf("constants not combined:\n%s", work)
	}
}

func TestReassociateUnsoundKeepsNsw(t *testing.T) {
	// §10.2: keeping nsw through reassociation introduces poison the
	// source never had.
	// (a + 1) + b reassociates to (a + b) + 1; with a=-2, b=-1 the
	// source never overflows but the rebuilt (a+b) does.
	src := `define i2 @f(i2 %a, i2 %b) {
entry:
  %t1 = add nsw i2 %a, 1
  %t2 = add nsw i2 %t1, %b
  ret i2 %t2
}`
	validatePass(t, src, Reassociate{}, DefaultLegacyConfig(), refine.Refuted)
}

func TestSCCP(t *testing.T) {
	src := `define i8 @f(i8 %x) {
entry:
  %a = add i8 2, 3
  %c = icmp eq i8 %a, 5
  br i1 %c, label %t, label %e
t:
  %r = mul i8 %a, 2
  ret i8 %r
e:
  ret i8 %x
}`
	_, work := applyPass(t, src, SCCP{}, DefaultFreezeConfig())
	// %a = 5, %c = true, %r = 10; the false branch is unreachable.
	tb := work.BlockByName("t")
	if tb == nil {
		t.Fatalf("true block removed:\n%s", work)
	}
	ret := tb.Instrs()[len(tb.Instrs())-1]
	if c, ok := ret.Arg(0).(*ir.Const); !ok || c.Bits != 10 {
		t.Errorf("SCCP did not fold to 10:\n%s", work)
	}
}

func TestSCCPThroughPhi(t *testing.T) {
	src := `define i8 @f(i1 %c) {
entry:
  br i1 true, label %a, label %b
a:
  br label %m
b:
  br label %m
m:
  %x = phi i8 [ 7, %a ], [ 9, %b ]
  ret i8 %x
}`
	_, work := applyPass(t, src, SCCP{}, DefaultFreezeConfig())
	// Only edge a→m is feasible, so %x = 7.
	var ret *ir.Instr
	work.ForEachInstr(func(in *ir.Instr) {
		if in.Op == ir.OpRet {
			ret = in
		}
	})
	if c, ok := ret.Arg(0).(*ir.Const); !ok || c.Bits != 7 {
		t.Errorf("SCCP missed the edge-sensitive constant:\n%s", work)
	}
}

func TestSCCPDeferredConsistency(t *testing.T) {
	// A deferred (undef) value feeding both a branch and an arithmetic
	// use resolves consistently to 0 — sound by construction.
	src := `define i8 @f() {
entry:
  %u = add i8 undef, 0
  %c = icmp ne i8 %u, 0
  br i1 %c, label %t, label %e
t:
  %q = udiv i8 1, %u
  ret i8 %q
e:
  ret i8 42
}`
	legacy := &Config{Sem: core.LegacyOptions(core.BranchPoisonNondet)}
	orig, work := applyPass(t, src, SCCP{}, legacy)
	r := refine.Check(orig, work, refine.DefaultConfig(legacy.Sem, legacy.Sem))
	if r.Status == refine.Refuted {
		t.Errorf("SCCP's consistent undef resolution should be sound: %s", r)
	}
}

func TestJumpThreading(t *testing.T) {
	src := `define i2 @f(i1 %c, i2 %v) {
entry:
  br i1 %c, label %p, label %q
p:
  br label %join
q:
  br label %join
join:
  %cc = phi i1 [ true, %p ], [ %c, %q ]
  br i1 %cc, label %yes, label %no
yes:
  ret i2 1
no:
  ret i2 0
}`
	cfg := DefaultFreezeConfig()
	_, work := validatePass(t, src, JumpThreading{}, cfg, refine.Verified)
	// p should now branch straight to yes.
	p := work.BlockByName("p")
	if p == nil {
		t.Fatalf("block p gone:\n%s", work)
	}
	succs := p.Succs()
	if len(succs) != 1 || succs[0].Name() != "yes" {
		t.Errorf("p not threaded to yes:\n%s", work)
	}
}

func TestJumpThreadingThroughFreeze(t *testing.T) {
	src := `define i2 @f(i1 %c, i1 %d) {
entry:
  br i1 %c, label %p, label %q
p:
  br label %join
q:
  br label %join
join:
  %cc = phi i1 [ true, %p ], [ %d, %q ]
  %fcc = freeze i1 %cc
  br i1 %fcc, label %yes, label %no
yes:
  ret i2 1
no:
  ret i2 0
}`
	// Freeze-aware: threads through the freeze.
	aware := DefaultFreezeConfig()
	_, work := validatePass(t, src, JumpThreading{}, aware, refine.Verified)
	p := work.BlockByName("p")
	if succs := p.Succs(); len(succs) != 1 || succs[0].Name() != "yes" {
		t.Errorf("freeze-aware threading missed:\n%s", work)
	}
	// Not freeze-aware: blocked (the §7.2 compile-time anecdote).
	blind := DefaultFreezeConfig()
	blind.FreezeAware = false
	_, work2 := applyPass(t, src, JumpThreading{}, blind)
	p2 := work2.BlockByName("p")
	if succs := p2.Succs(); len(succs) != 1 || succs[0].Name() != "join" {
		t.Errorf("freeze-blind threading should be blocked:\n%s", work2)
	}
}

func TestCodeGenPrepareFreezeICmp(t *testing.T) {
	src := `define i4 @f(i4 %x) {
entry:
  %cmp = icmp ult i4 %x, 5
  %fz = freeze i1 %cmp
  br i1 %fz, label %a, label %b
a:
  ret i4 1
b:
  ret i4 0
}`
	cfg := DefaultFreezeConfig()
	_, work := validatePass(t, src, CodeGenPrepare{}, cfg, refine.Verified)
	// Expect: %fz2 = freeze i4 %x; icmp ult %fz2, 10.
	var foundFreezeOfX bool
	work.ForEachInstr(func(in *ir.Instr) {
		if in.Op == ir.OpFreeze && in.Ty.Equal(ir.Int(4)) {
			foundFreezeOfX = true
		}
	})
	if !foundFreezeOfX {
		t.Errorf("freeze(icmp) not rewritten to icmp(freeze):\n%s", work)
	}
}

func TestLoopSink(t *testing.T) {
	src := `define i8 @f(i8 %a, i8 %b, i8 %n) {
entry:
  %x = mul i8 %a, %b
  br label %head
head:
  %i = phi i8 [ 0, %entry ], [ %i1, %body ]
  %c = icmp slt i8 %i, %n
  br i1 %c, label %body, label %exit
body:
  %u = add i8 %x, %i
  %i1 = add nsw i8 %i, 1
  br label %head
exit:
  ret i8 %n
}`
	_, work := applyPass(t, src, LoopSink{}, DefaultFreezeConfig())
	sunk := false
	for _, in := range work.BlockByName("body").Instrs() {
		if in.Op == ir.OpMul {
			sunk = true
		}
	}
	if !sunk {
		t.Errorf("mul not sunk into loop:\n%s", work)
	}
}

func TestLoopSinkRefusesFreeze(t *testing.T) {
	src := `define i8 @f(i8 %a, i8 %n) {
entry:
  %x = freeze i8 %a
  br label %head
head:
  %i = phi i8 [ 0, %entry ], [ %i1, %body ]
  %acc = phi i8 [ 0, %entry ], [ %acc1, %body ]
  %c = icmp ult i8 %i, %n
  br i1 %c, label %body, label %exit
body:
  %acc1 = add i8 %acc, %x
  %i1 = add i8 %i, 1
  br label %head
exit:
  ret i8 %acc
}`
	// Fixed: freeze stays put.
	_, work := applyPass(t, src, LoopSink{}, DefaultFreezeConfig())
	if work.Entry().Instrs()[0].Op != ir.OpFreeze {
		t.Errorf("fixed loop sink moved the freeze:\n%s", work)
	}
	// Unsound: sinks it; behaviour set grows (each iteration picks its
	// own freeze value), caught by refinement on i2.
	src2 := strings.ReplaceAll(src, "i8", "i2")
	buggy := DefaultLegacyConfig()
	buggy.Sem = core.FreezeOptions()
	orig, work2 := applyPass(t, src2, LoopSink{}, buggy)
	if work2.BlockByName("body").Instrs()[0].Op != ir.OpFreeze {
		t.Fatalf("unsound loop sink should move the freeze:\n%s", work2)
	}
	r := refine.Check(orig, work2, refine.DefaultConfig(core.FreezeOptions(), core.FreezeOptions()))
	if r.Status != refine.Refuted {
		t.Errorf("sinking a freeze into a loop should be refuted (§5.5): %s", r)
	}
}

func TestMem2Reg(t *testing.T) {
	src := `define i2 @f(i1 %c, i2 %a, i2 %b) {
entry:
  %slot = alloca i2, i32 1
  br i1 %c, label %t, label %e
t:
  store i2 %a, ptr %slot
  br label %m
e:
  store i2 %b, ptr %slot
  br label %m
m:
  %v = load i2, ptr %slot
  ret i2 %v
}`
	_, work := validatePass(t, src, Mem2Reg{}, DefaultFreezeConfig(), refine.Verified)
	if countOp(work, ir.OpAlloca) != 0 || countOp(work, ir.OpLoad) != 0 || countOp(work, ir.OpStore) != 0 {
		t.Errorf("alloca not promoted:\n%s", work)
	}
	if countOp(work, ir.OpPhi) != 1 {
		t.Errorf("expected one phi:\n%s", work)
	}
}

func TestMem2RegUninitIsPoisonUnderFreeze(t *testing.T) {
	src := `define i2 @f(i1 %c, i2 %a) {
entry:
  %slot = alloca i2, i32 1
  br i1 %c, label %t, label %m
t:
  store i2 %a, ptr %slot
  br label %m
m:
  %v = load i2, ptr %slot
  ret i2 %v
}`
	// Figure 2's pattern: the phi gets poison (freeze) / undef
	// (legacy) on the path that skips the store.
	_, work := validatePass(t, src, Mem2Reg{}, DefaultFreezeConfig(), refine.Verified)
	phi := work.BlockByName("m").Phis()[0]
	foundPoison := false
	for i := 0; i < phi.NumArgs(); i++ {
		if _, ok := phi.Arg(i).(*ir.Poison); ok {
			foundPoison = true
		}
	}
	if !foundPoison {
		t.Errorf("uninitialized path should contribute poison:\n%s", work)
	}
	legacy := &Config{Sem: core.LegacyOptions(core.BranchPoisonNondet)}
	_, work2 := validatePass(t, src, Mem2Reg{}, legacy, refine.Verified)
	phi2 := work2.BlockByName("m").Phis()[0]
	foundUndef := false
	for i := 0; i < phi2.NumArgs(); i++ {
		if _, ok := phi2.Arg(i).(*ir.Undef); ok {
			foundUndef = true
		}
	}
	if !foundUndef {
		t.Errorf("legacy uninitialized path should contribute undef:\n%s", work2)
	}
}

func TestMem2RegLoop(t *testing.T) {
	src := `define i8 @f(i8 %n) {
entry:
  %acc = alloca i8, i32 1
  store i8 0, ptr %acc
  br label %head
head:
  %i = phi i8 [ 0, %entry ], [ %i1, %body ]
  %c = icmp slt i8 %i, %n
  br i1 %c, label %body, label %exit
body:
  %cur = load i8, ptr %acc
  %next = add i8 %cur, %i
  store i8 %next, ptr %acc
  %i1 = add nsw i8 %i, 1
  br label %head
exit:
  %r = load i8, ptr %acc
  ret i8 %r
}`
	orig, work := applyPass(t, src, Mem2Reg{}, DefaultFreezeConfig())
	if countOp(work, ir.OpAlloca) != 0 {
		t.Fatalf("loop alloca not promoted:\n%s", work)
	}
	// Behavioural spot-check: sum 0..4 = 10.
	for _, f := range []*ir.Func{orig, work} {
		out := core.Exec(f, []core.Value{core.VC(ir.I8, 5)}, core.ZeroOracle{}, core.FreezeOptions())
		if out.Kind != core.OutRet || out.Val.Uint() != 10 {
			t.Errorf("sum(5) = %v, want 10 on\n%s", out, f)
		}
	}
}

func TestIndVarWiden(t *testing.T) {
	// Figure 3: eliminate the sext in the loop body.
	src := `define i64 @f(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %i1, %body ]
  %c = icmp sle i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %iext = sext i32 %i to i64
  %i1 = add nsw i32 %i, 1
  br label %head
exit:
  %r = sext i32 %n to i64
  ret i64 %r
}`
	_, work := applyPass(t, src, IndVarWiden{}, DefaultFreezeConfig())
	// The in-loop sext must be gone (the exit one remains).
	body := work.BlockByName("body")
	for _, in := range body.Instrs() {
		if in.Op == ir.OpSExt {
			t.Errorf("in-loop sext survives widening:\n%s", work)
		}
	}
	if n := countOp(work, ir.OpPhi); n != 2 {
		t.Errorf("expected a second (wide) phi, have %d:\n%s", n, work)
	}
	// Behavioural check with the interpreter.
	orig := ir.MustParseFunc(src)
	for _, n := range []uint64{0, 3, 7} {
		a := core.Exec(orig, []core.Value{core.VC(ir.I32, n)}, core.ZeroOracle{}, core.FreezeOptions())
		b := core.Exec(work, []core.Value{core.VC(ir.I32, n)}, core.ZeroOracle{}, core.FreezeOptions())
		if a.String() != b.String() {
			t.Errorf("n=%d: orig %v, widened %v", n, a, b)
		}
	}
}

func TestIndVarWidenRequiresNSW(t *testing.T) {
	src := `define i64 @f(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %i1, %body ]
  %c = icmp sle i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %iext = sext i32 %i to i64
  %i1 = add i32 %i, 1
  br label %head
exit:
  ret i64 0
}`
	_, work := applyPass(t, src, IndVarWiden{}, DefaultFreezeConfig())
	if countOp(work, ir.OpSExt) != 1 {
		t.Errorf("widening performed without nsw — §2.4 violation:\n%s", work)
	}
}

func TestO2PipelineRuns(t *testing.T) {
	src := `define i8 @f(i8 %x, i8 %n) {
entry:
  %slot = alloca i8, i32 1
  store i8 0, ptr %slot
  br label %head
head:
  %i = phi i8 [ 0, %entry ], [ %i1, %body ]
  %c = icmp slt i8 %i, %n
  br i1 %c, label %body, label %exit
body:
  %x1 = add nsw i8 %x, 1
  %cur = load i8, ptr %slot
  %next = add i8 %cur, %x1
  store i8 %next, ptr %slot
  %i1 = add nsw i8 %i, 1
  br label %head
exit:
  %r = load i8, ptr %slot
  ret i8 %r
}`
	for _, cfg := range []*Config{DefaultFreezeConfig(), DefaultLegacyConfig()} {
		f := ir.MustParseFunc(src)
		cfg.VerifyEach = true
		O2().RunFunc(f, cfg)
		out := core.Exec(f, []core.Value{core.VC(ir.I8, 4), core.VC(ir.I8, 3)}, core.ZeroOracle{}, cfg.Sem)
		if out.Kind != core.OutRet || out.Val.Uint() != 15 {
			t.Errorf("[%s] optimized f(4,3) = %v, want 15\n%s", cfg.Sem.Mode, out, f)
		}
	}
}

// §10.1: "Scalar evolution ... currently fails to analyze expressions
// involving freeze." Our scev-lite has the same property: an induction
// variable whose increment flows through a freeze is not recognized,
// so widening is (conservatively) blocked.
func TestIndVarWidenBlockedByFreeze(t *testing.T) {
	src := `define i64 @f(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %i2, %body ]
  %c = icmp sle i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %iext = sext i32 %i to i64
  %i1 = add nsw i32 %i, 1
  %i2 = freeze i32 %i1
  br label %head
exit:
  ret i64 0
}`
	_, work := applyPass(t, src, IndVarWiden{}, DefaultFreezeConfig())
	if countOp(work, ir.OpSExt) != 1 {
		t.Errorf("widening should be blocked when the IV increment is frozen:\n%s", work)
	}
}

// GVN folding two freezes of the same value is only legal if ALL uses
// are replaced at once (§6); our GVN conservatively never merges, and
// the whole O2 pipeline must preserve freeze-pair distinctness
// end-to-end.
func TestO2PreservesFreezeDistinctness(t *testing.T) {
	src := `define i2 @f(i2 %x) {
entry:
  %f1 = freeze i2 %x
  %f2 = freeze i2 %x
  %d = sub i2 %f1, %f2
  ret i2 %d
}`
	orig := ir.MustParseFunc(src)
	work := ir.CloneFunc(orig)
	cfg := DefaultFreezeConfig()
	cfg.VerifyEach = true
	O2().RunFunc(work, cfg)
	fz := core.FreezeOptions()
	r := refine.Check(orig, work, refine.DefaultConfig(fz, fz))
	if r.Status == refine.Refuted {
		t.Errorf("O2 merged distinct freezes: %s\n%s", r, work)
	}
}

// §6 future work, implemented as an opt-in extension: GVN may merge
// two freezes of the same value if it redirects all the duplicate's
// uses. Merging shrinks nondeterminism (a refinement); the checker
// confirms it, and the distinctness test above confirms the default
// pipeline leaves freezes alone.
func TestGVNFoldFreezeExtension(t *testing.T) {
	src := `define i2 @f(i2 %x) {
entry:
  %f1 = freeze i2 %x
  %f2 = freeze i2 %x
  %d = sub i2 %f1, %f2
  ret i2 %d
}`
	cfg := DefaultFreezeConfig()
	cfg.GVNFoldFreeze = true
	_, work := validatePass(t, src, GVN{}, cfg, refine.Verified)
	if n := countOp(work, ir.OpFreeze); n != 1 {
		t.Errorf("freeze-folding GVN left %d freezes, want 1:\n%s", n, work)
	}
	// After the merge, x - x folds to 0 downstream.
	RunPass(InstSimplify{}, work, cfg)
	ret := work.Entry().Instrs()[len(work.Entry().Instrs())-1]
	if c, ok := ret.Arg(0).(*ir.Const); !ok || !c.IsZero() {
		t.Errorf("merged freezes should fold the sub to 0:\n%s", work)
	}
}

// §6: CodeGenPrepare splits a branch on and/or into a pair of jumps;
// a frozen and/or blocks the split unless the pass pushes the freeze
// onto the operands.
func TestCGPBranchOnAndSplitting(t *testing.T) {
	src := `define i2 @f(i1 %a, i1 %b) {
entry:
  %c = and i1 %a, %b
  br i1 %c, label %t, label %e
t:
  ret i2 1
e:
  ret i2 2
}`
	_, work := validatePass(t, src, CodeGenPrepare{}, DefaultFreezeConfig(), refine.Verified)
	if countOp(work, ir.OpAnd) != 0 {
		t.Errorf("branch-on-and not split:\n%s", work)
	}
	if len(work.Blocks) != 4 {
		t.Errorf("expected a new check block:\n%s", work)
	}

	// Or variant, with phis in the successors.
	orSrc := `define i2 @f(i1 %a, i1 %b) {
entry:
  %c = or i1 %a, %b
  br i1 %c, label %t, label %e
t:
  br label %m
e:
  br label %m
m:
  %x = phi i2 [ 1, %t ], [ 2, %e ]
  ret i2 %x
}`
	_, work2 := validatePass(t, orSrc, CodeGenPrepare{}, DefaultFreezeConfig(), refine.Verified)
	if countOp(work2, ir.OpOr) != 0 {
		t.Errorf("branch-on-or not split:\n%s", work2)
	}
}

func TestCGPBranchOnFrozenAndOr(t *testing.T) {
	src := `define i2 @f(i1 %a, i1 %b) {
entry:
  %c = and i1 %a, %b
  %fc = freeze i1 %c
  br i1 %fc, label %t, label %e
t:
  ret i2 1
e:
  ret i2 2
}`
	// Freeze-aware: freeze is pushed onto the operands and the branch
	// splits (§6's CodeGenPrepare change).
	aware := DefaultFreezeConfig()
	_, work := validatePass(t, src, CodeGenPrepare{}, aware, refine.Verified)
	if countOp(work, ir.OpAnd) != 0 {
		t.Errorf("frozen and-branch not split when freeze-aware:\n%s", work)
	}
	if countOp(work, ir.OpFreeze) != 2 {
		t.Errorf("expected two operand freezes:\n%s", work)
	}
	// Freeze-blind: blocked, like the early prototype.
	blind := DefaultFreezeConfig()
	blind.FreezeAware = false
	_, work2 := applyPass(t, src, CodeGenPrepare{}, blind)
	if countOp(work2, ir.OpAnd) != 1 {
		t.Errorf("freeze-blind CGP should leave the and-branch alone:\n%s", work2)
	}
}

// Pushing a freeze through and/or must itself be a refinement.
func TestFreezePushThroughAndIsRefinement(t *testing.T) {
	src := `define i1 @f(i1 %a, i1 %b) {
entry:
  %c = and i1 %a, %b
  %fc = freeze i1 %c
  ret i1 %fc
}`
	tgt := `define i1 @f(i1 %a, i1 %b) {
entry:
  %fa = freeze i1 %a
  %fb = freeze i1 %b
  %c = and i1 %fa, %fb
  ret i1 %c
}`
	fz := core.FreezeOptions()
	r := refine.Check(ir.MustParseFunc(src), ir.MustParseFunc(tgt), refine.DefaultConfig(fz, fz))
	if r.Status != refine.Verified {
		t.Errorf("freeze distribution over and should verify: %s", r)
	}
}
