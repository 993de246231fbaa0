package passes

import (
	"testing"

	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/refine"
)

// This file reproduces Section 3 of the paper end-to-end (experiment
// E1 in DESIGN.md): each documented inconsistency is demonstrated as a
// refinement violation of the historical pass behaviour, and the
// paper's fix is shown sound.

// §3.3 + PR27506: loop unswitching and GVN assume conflicting
// semantics for branch-on-poison. Whichever semantics is chosen, the
// composition of the two historical passes miscompiles.
//
// The function: t = x+1; c2 = (t == y); loop { if (c2) ret t' else
// ret 0 } where t' is a re-computation of x+1 that GVN's equality
// propagation rewrites to y.
const unswitchGVNSrc = `define i2 @f(i2 %x, i2 %y, i1 %c) {
entry:
  %t = add nsw i2 %x, 1
  %cmp = icmp eq i2 %t, %y
  br label %head
head:
  %cc = phi i1 [ %c, %entry ], [ false, %latch ]
  br i1 %cc, label %body, label %exit
body:
  br i1 %cmp, label %then, label %latch
then:
  %w = add nsw i2 %x, 1
  ret i2 %w
latch:
  br label %head
exit:
  ret i2 3
}`

func runHistoricalUnswitchGVN(t *testing.T) (*ir.Func, *ir.Func) {
	t.Helper()
	orig := ir.MustParseFunc(unswitchGVNSrc)
	work := ir.CloneFunc(orig)
	cfg := &Config{
		Sem:        core.LegacyOptions(core.BranchPoisonNondet),
		Unsound:    true,
		VerifyEach: true,
	}
	RunPass(GVN{}, work, cfg)
	RunPass(LoopUnswitch{}, work, cfg)
	return orig, work
}

func TestSection33UnswitchPlusGVNMiscompilesUnderEitherSemantics(t *testing.T) {
	orig, work := runHistoricalUnswitchGVN(t)

	// Sanity: unswitching hoisted a branch on %cmp into the preheader
	// region without freezing, and GVN rewrote %w to %y somewhere.
	if countOp(work, ir.OpFreeze) != 0 {
		t.Fatalf("historical unswitching must not freeze:\n%s", work)
	}

	// Under branch-on-poison-is-UB (GVN's assumption) the transformed
	// program is refuted: with y=poison and c=false the source returns
	// 3 but the target branches on poison before the loop.
	ub := core.LegacyOptions(core.BranchPoisonIsUB)
	r := refine.Check(orig, work, refine.DefaultConfig(ub, ub))
	if r.Status != refine.Refuted {
		t.Errorf("composition should be refuted under UB-on-branch-poison: %s\n%s", r, work)
	}

	// Under nondeterministic-branch-on-poison (unswitching's
	// assumption) it is ALSO refuted: with y=poison and c=true the
	// nondeterministic branch can enter %then, whose GVN-rewritten
	// return passes poison y where the source returned a concrete
	// value.
	nondet := core.LegacyOptions(core.BranchPoisonNondet)
	r = refine.Check(orig, work, refine.DefaultConfig(nondet, nondet))
	if r.Status != refine.Refuted {
		t.Errorf("composition should be refuted under nondet-branch-on-poison: %s\n%s", r, work)
	}
}

func TestSection33FixedPipelineSound(t *testing.T) {
	// The paper's fix: freeze semantics, unswitching freezes the
	// hoisted condition, GVN keeps its propagation (now justified).
	orig := ir.MustParseFunc(unswitchGVNSrc)
	work := ir.CloneFunc(orig)
	cfg := DefaultFreezeConfig()
	cfg.VerifyEach = true
	RunPass(GVN{}, work, cfg)
	RunPass(LoopUnswitch{}, work, cfg)
	if countOp(work, ir.OpFreeze) == 0 {
		t.Fatalf("fixed unswitching must freeze the hoisted condition:\n%s", work)
	}
	fz := core.FreezeOptions()
	r := refine.Check(orig, work, refine.DefaultConfig(fz, fz))
	if r.Status != refine.Verified {
		t.Errorf("fixed unswitch+GVN should verify: %s\n%s", r, work)
	}
}

// §3.2 / PR21412: hoisting a division past a control-flow check.
func TestSection32DivisionHoistMiscompiles(t *testing.T) {
	src := `define i2 @f(i2 %k, i1 %c) {
entry:
  %nz = icmp ne i2 %k, 0
  br i1 %nz, label %pre, label %out
pre:
  br label %head
head:
  %cc = phi i1 [ %c, %pre ], [ false, %body ]
  br i1 %cc, label %body, label %out
body:
  %q = udiv i2 1, %k
  br label %head
out:
  ret i2 0
}`
	orig := ir.MustParseFunc(src)
	work := ir.CloneFunc(orig)
	cfg := DefaultLegacyConfig()
	cfg.VerifyEach = true
	RunPass(LICM{}, work, cfg)

	hoisted := false
	for _, in := range work.BlockByName("pre").Instrs() {
		if in.Op == ir.OpUDiv {
			hoisted = true
		}
	}
	if !hoisted {
		t.Fatalf("historical LICM should hoist 1/k:\n%s", work)
	}
	// k=undef, c=false: the source never divides (loop does not run);
	// the target divides unconditionally after a check that the
	// undef's *other* use passed.
	r := refine.Check(orig, work, refine.DefaultConfig(cfg.Sem, cfg.Sem))
	if r.Status != refine.Refuted {
		t.Errorf("§3.2 hoist should be refuted: %s\n%s", r, work)
	}
}

// §3.1: increasing the number of uses of a possibly-undef value.
func TestSection31DuplicateUses(t *testing.T) {
	src := `define i2 @f(i2 %x) {
entry:
  %y = mul i2 %x, 2
  ret i2 %y
}`
	orig := ir.MustParseFunc(src)
	work := ir.CloneFunc(orig)
	cfg := DefaultLegacyConfig()
	RunPass(InstCombine{}, work, cfg)
	if countOp(work, ir.OpAdd) != 1 {
		t.Fatalf("historical combiner should rewrite to x+x:\n%s", work)
	}
	legacy := core.LegacyOptions(core.BranchPoisonNondet)
	r := refine.Check(orig, work, refine.DefaultConfig(legacy, legacy))
	if r.Status != refine.Refuted {
		t.Errorf("§3.1 duplicate-uses rewrite should be refuted under legacy semantics: %s", r)
	}
	// Under the paper's semantics the same rewrite verifies (undef is
	// gone, and poison*2 = poison+poison).
	fzWork := ir.CloneFunc(orig)
	RunPass(InstCombine{}, fzWork, DefaultFreezeConfig())
	fz := core.FreezeOptions()
	r = refine.Check(orig, fzWork, refine.DefaultConfig(fz, fz))
	if r.Status != refine.Verified {
		t.Errorf("§3.1 rewrite should verify under freeze semantics: %s", r)
	}
}

// §3.4: the select/arithmetic tension, pass-level.
func TestSection34SelectTension(t *testing.T) {
	src := `define i1 @f(i1 %c, i1 %x) {
entry:
  %v = select i1 %c, i1 true, i1 %x
  ret i1 %v
}`
	orig := ir.MustParseFunc(src)

	// Historical InstCombine under the Figure 5 select: refuted.
	work := ir.CloneFunc(orig)
	cfg := &Config{Sem: core.FreezeOptions(), Unsound: true}
	RunPass(InstCombine{}, work, cfg)
	fz := core.FreezeOptions()
	r := refine.Check(orig, work, refine.DefaultConfig(fz, fz))
	if r.Status != refine.Refuted {
		t.Errorf("historical select→or should be refuted under Figure 5 select: %s\n%s", r, work)
	}

	// Fixed freeze-mode InstCombine: verified.
	fixed := ir.CloneFunc(orig)
	RunPass(InstCombine{}, fixed, DefaultFreezeConfig())
	r = refine.Check(orig, fixed, refine.DefaultConfig(fz, fz))
	if r.Status != refine.Verified {
		t.Errorf("fixed select→or+freeze should verify: %s\n%s", r, fixed)
	}
}

// §5.1: with the new semantics, unswitching alone — with freeze — is a
// refinement, and without freeze it is not.
func TestSection51UnswitchFreezeNecessity(t *testing.T) {
	src := `define i2 @g(i1 %c2, i1 %c) {
entry:
  br label %head
head:
  %cc = phi i1 [ %c, %entry ], [ false, %latch ]
  br i1 %cc, label %body, label %exit
body:
  br i1 %c2, label %foo, label %bar
foo:
  br label %latch
bar:
  br label %latch
latch:
  %v = phi i2 [ 1, %foo ], [ 2, %bar ]
  br label %head
exit:
  ret i2 0
}`
	orig := ir.MustParseFunc(src)
	fz := core.FreezeOptions()

	fixed := ir.CloneFunc(orig)
	cfg := DefaultFreezeConfig()
	cfg.VerifyEach = true
	RunPass(LoopUnswitch{}, fixed, cfg)
	if countOp(fixed, ir.OpFreeze) != 1 {
		t.Fatalf("expected exactly one freeze after unswitching:\n%s", fixed)
	}
	r := refine.Check(orig, fixed, refine.DefaultConfig(fz, fz))
	if r.Status != refine.Verified {
		t.Errorf("frozen unswitching should verify: %s\n%s", r, fixed)
	}

	buggy := ir.CloneFunc(orig)
	bcfg := &Config{Sem: core.FreezeOptions(), Unsound: true, VerifyEach: true}
	RunPass(LoopUnswitch{}, buggy, bcfg)
	if countOp(buggy, ir.OpFreeze) != 0 {
		t.Fatalf("unsound unswitching must not freeze:\n%s", buggy)
	}
	r = refine.Check(orig, buggy, refine.DefaultConfig(fz, fz))
	if r.Status != refine.Refuted {
		t.Errorf("unfrozen unswitching should be refuted under freeze semantics: %s\n%s", r, buggy)
	}
}

// End-to-end: the historical composition produces a concrete wrong
// observable, interpreted under the nondet semantics — the execution
// returns poison where the source could only return 0 or a defined
// value (the "end-to-end miscompilation" of §3.3).
func TestEndToEndMiscompilationWitness(t *testing.T) {
	orig, work := runHistoricalUnswitchGVN(t)
	nondet := core.LegacyOptions(core.BranchPoisonNondet)
	args := []core.Value{core.VC(ir.I2, 0), core.VPoison(ir.I2), core.VBool(true)}
	cfg := refine.DefaultConfig(nondet, nondet)
	sb := refine.Behaviors(orig, args, nondet, cfg)
	tb := refine.Behaviors(work, args, nondet, cfg)
	if sb.Poison || sb.UB {
		t.Fatalf("source must be well-defined on the witness input: %s", sb)
	}
	if !tb.Poison {
		t.Fatalf("miscompiled program should be able to return poison: src=%s tgt=%s\n%s", sb, tb, work)
	}
}

// §5.1's last paragraph: the freeze can be avoided when the hoisted
// branch was guaranteed to execute on loop entry (do-while shape). The
// unswitched program then branches on the raw condition — and still
// verifies, because the original program also branched on it.
func TestSection51FreezeAvoidedWhenBranchGuaranteed(t *testing.T) {
	// Do-while: the body (containing the invariant branch) executes
	// before the exit test.
	src := `define i2 @g(i1 %c2, i2 %n) {
entry:
  br label %body
body:
  %i = phi i2 [ 0, %entry ], [ %i1, %latch ]
  br i1 %c2, label %foo, label %bar
foo:
  br label %latch
bar:
  br label %latch
latch:
  %i1 = add i2 %i, 1
  %c = icmp ult i2 %i1, %n
  br i1 %c, label %body, label %exit
exit:
  ret i2 0
}`
	orig := ir.MustParseFunc(src)
	work := ir.CloneFunc(orig)
	cfg := DefaultFreezeConfig()
	cfg.VerifyEach = true
	RunPass(LoopUnswitch{}, work, cfg)
	if countOp(work, ir.OpFreeze) != 0 {
		t.Errorf("do-while unswitching should not need a freeze:\n%s", work)
	}
	fz := core.FreezeOptions()
	r := refine.Check(orig, work, refine.DefaultConfig(fz, fz))
	if r.Status == refine.Refuted {
		t.Errorf("freeze-free do-while unswitching should be sound: %s\n%s", r, work)
	}

	// Control: a while-shaped loop (branch NOT guaranteed) must still
	// freeze — reuse the §5.1 test's source.
	whileSrc := `define i2 @g(i1 %c2, i1 %c) {
entry:
  br label %head
head:
  %cc = phi i1 [ %c, %entry ], [ false, %latch ]
  br i1 %cc, label %body, label %exit
body:
  br i1 %c2, label %foo, label %bar
foo:
  br label %latch
bar:
  br label %latch
latch:
  br label %head
exit:
  ret i2 0
}`
	w2 := ir.MustParseFunc(whileSrc)
	RunPass(LoopUnswitch{}, w2, cfg)
	if countOp(w2, ir.OpFreeze) != 1 {
		t.Errorf("while-shaped unswitching must freeze:\n%s", w2)
	}
}
