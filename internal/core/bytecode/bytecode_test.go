package bytecode_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"weak"

	"tameir/internal/core"
	"tameir/internal/core/bytecode"
	"tameir/internal/ir"
	"tameir/internal/optfuzz"
)

func outcomeKey(o core.Outcome) string {
	s := o.String()
	if o.Msg != "" {
		s += " | " + o.Msg
	}
	return s
}

// i2Inputs enumerates every i2 argument vector: all four concrete
// values plus poison, plus undef under legacy semantics.
func i2Inputs(fn *ir.Func, mode core.Mode) [][]core.Value {
	cands := make([][]core.Value, len(fn.Params))
	for i, p := range fn.Params {
		ty := p.Ty
		for v := uint64(0); v < 1<<ty.Bits; v++ {
			cands[i] = append(cands[i], core.VC(ty, v))
		}
		cands[i] = append(cands[i], core.VPoison(ty))
		if mode == core.Legacy {
			cands[i] = append(cands[i], core.VUndef(ty))
		}
	}
	var out [][]core.Value
	idx := make([]int, len(cands))
	for {
		args := make([]core.Value, len(cands))
		for i, j := range idx {
			args[i] = cands[i][j]
		}
		out = append(out, args)
		k := len(idx) - 1
		for ; k >= 0; k-- {
			idx[k]++
			if idx[k] < len(cands[k]) {
				break
			}
			idx[k] = 0
		}
		if k < 0 {
			return out
		}
	}
}

// diffBytecode lockstep-compares the bytecode tier against the
// interpreter over the full oracle enumeration for every input.
func diffBytecode(t *testing.T, label string, fn *ir.Func, opts core.Options) {
	t.Helper()
	exB := core.NewExecutor(core.Compile(fn, opts))
	exB.SetTier(core.TierPolicy{Mode: core.TierBytecode})
	for _, args := range i2Inputs(fn, opts.Mode) {
		oi := core.NewEnumOracle(16, 1<<8)
		ob := core.NewEnumOracle(16, 1<<8)
		for exec := 0; exec <= 1<<12; exec++ {
			oi.Reset()
			ob.Reset()
			outI := core.Interpret(fn, args, oi, opts)
			outB := exB.Run(args, ob)
			if ki, kb := outcomeKey(outI), outcomeKey(outB); ki != kb {
				t.Fatalf("%s: args %v exec %d:\ninterpreted: %s\nbytecode:    %s\n%s",
					label, args, exec, ki, kb, fn)
			}
			ni, nb := oi.Next(), ob.Next()
			if ni != nb {
				t.Fatalf("%s: args %v exec %d: Choose sequences diverge (interp next=%t, bytecode next=%t)\n%s",
					label, args, exec, ni, nb, fn)
			}
			if !ni {
				break
			}
		}
	}
	if got := exB.ActiveTier(); got != "bytecode" {
		t.Fatalf("%s: executor runs on %q, want bytecode", label, got)
	}
}

// TestLoweringPreservesOutcomes is the fuzz-style lowering property:
// for randomly sampled straight-line programs (the §6 candidate
// shape, poison and undef leaves included), the bytecode VM's Outcome
// matches the interpreter on every exhaustive i2 input, for every
// oracle resolution. The straight-line shape is exactly what
// superblock fusion compiles to a single fused opcode, so this drives
// the fused fast path, the fold substitutions, and the fuel refund
// logic through their whole input space.
func TestLoweringPreservesOutcomes(t *testing.T) {
	rng := rand.New(rand.NewSource(20170619))
	gen := optfuzz.DefaultConfig(3)
	gen.AllowPoison = true
	gen.EnumAttrs = true

	const want = 150
	var fns []*ir.Func
	next := rng.Intn(200)
	n := 0
	optfuzz.Exhaustive(gen, func(f *ir.Func) bool {
		if n == next {
			fns = append(fns, ir.CloneFunc(f))
			next = n + 1 + rng.Intn(2500)
		}
		n++
		return len(fns) < want
	})
	if len(fns) < want/2 {
		t.Fatalf("sampled only %d functions", len(fns))
	}
	for i, fn := range fns {
		diffBytecode(t, fmt.Sprintf("straightline[%d]/legacy", i), fn, core.LegacyOptions(core.BranchPoisonNondet))
	}
	// Freeze dialect over the poison-only subset (undef leaves are
	// rejected at compile time under freeze).
	gen.AllowUndef = false
	fns = fns[:0]
	n, next = 0, rng.Intn(200)
	optfuzz.Exhaustive(gen, func(f *ir.Func) bool {
		if n == next {
			fns = append(fns, ir.CloneFunc(f))
			next = n + 1 + rng.Intn(2500)
		}
		n++
		return len(fns) < want/2
	})
	for i, fn := range fns {
		diffBytecode(t, fmt.Sprintf("straightline[%d]/freeze", i), fn, core.FreezeOptions())
	}
}

// lowerStats lowers the last function of src and returns the stats.
func lowerStats(t *testing.T, src string, opts core.Options) bytecode.LowerStats {
	t.Helper()
	m, err := ir.ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	fn := m.Funcs[len(m.Funcs)-1]
	p, ok := bytecode.LowerForTest(fn, opts)
	if !ok {
		t.Fatalf("lowering declined:\n%s", fn)
	}
	return p.Stats()
}

// TestFoldSafety pins down what constant pre-folding may and may not
// do: fold oracle-free constant subtrees, never fold through freeze of
// a non-concrete value, never fold a strict read of undef, never fold
// away UB.
func TestFoldSafety(t *testing.T) {
	legacy := core.LegacyOptions(core.BranchPoisonNondet)
	cases := []struct {
		name   string
		src    string
		opts   core.Options
		folded int
	}{
		// A constant subtree folds, including the use of the folded
		// result in the same block.
		{"const-chain", `define i2 @f() {
entry:
  %x = add i2 1, 2
  %y = mul i2 %x, 3
  ret i2 %y
}`, legacy, 2},
		// freeze of a concrete constant is the identity: folds.
		{"freeze-concrete", `define i2 @f() {
entry:
  %x = freeze i2 2
  ret i2 %x
}`, legacy, 1},
		// freeze of poison draws a fresh value from the oracle on
		// every execution — folding it would pin one resolution.
		{"freeze-poison", `define i2 @f() {
entry:
  %x = freeze i2 poison
  ret i2 %x
}`, legacy, 0},
		// freeze of undef likewise.
		{"freeze-undef", `define i2 @f() {
entry:
  %x = freeze i2 undef
  ret i2 %x
}`, legacy, 0},
		// A strict read of undef resolves per use through the oracle:
		// add-of-undef must not fold (xor %u, %u could otherwise
		// "fold" to 0, which is wrong — each use resolves fresh).
		{"strict-undef", `define i2 @f() {
entry:
  %x = add i2 undef, 1
  %y = xor i2 undef, undef
  ret i2 %y
}`, legacy, 0},
		// Poison propagation is deterministic: folding to poison is
		// legal and keeps downstream consumers exact.
		{"poison-prop", `define i2 @f() {
entry:
  %x = add i2 poison, 1
  ret i2 %x
}`, legacy, 1},
		// UB must fire at run time, at the right fuel point: never
		// folded.
		{"udiv-zero-ub", `define i2 @f() {
entry:
  %x = udiv i2 1, 0
  ret i2 %x
}`, legacy, 0},
		// select with a poison condition under the chosen-arm knob is
		// deterministic poison: folds.
		{"select-poison-cond", `define i2 @f() {
entry:
  %x = select i1 poison, i2 1, i2 2
  ret i2 %x
}`, legacy, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := lowerStats(t, tc.src, tc.opts)
			if st.Folded != tc.folded {
				t.Fatalf("folded %d µops, want %d", st.Folded, tc.folded)
			}
			// Folding decisions must never change behaviour: sweep the
			// function against the interpreter regardless.
			m, _ := ir.ParseModule(tc.src)
			diffBytecode(t, tc.name, m.Funcs[len(m.Funcs)-1], tc.opts)
		})
	}
}

// TestSuperblockFusion checks the fusion shape: a straight-line run of
// scalar ops becomes one superblock covering every instruction.
func TestSuperblockFusion(t *testing.T) {
	st := lowerStats(t, `define i2 @f(i2 %a, i2 %b) {
entry:
  %x = add i2 %a, %b
  %c = icmp ult i2 %x, %b
  %s = select i1 %c, i2 %x, i2 %a
  %z = freeze i2 %s
  ret i2 %z
}`, core.LegacyOptions(core.BranchPoisonNondet))
	if st.Superblocks != 1 || st.Fused != 4 {
		t.Fatalf("got %d superblocks / %d fused µops, want 1/4 (stats %+v)", st.Superblocks, st.Fused, st)
	}
}

// TestTierPromotion drives the TierAuto controller: execution starts
// on the closure engine and hops to bytecode once the per-program
// counter trips the threshold, counting exactly one promotion.
func TestTierPromotion(t *testing.T) {
	m, err := ir.ParseModule(`define i2 @f(i2 %a) {
entry:
  %x = add i2 %a, 1
  ret i2 %x
}`)
	if err != nil {
		t.Fatal(err)
	}
	fn := m.Funcs[0]
	opts := core.FreezeOptions()
	ex := core.NewExecutor(core.Compile(fn, opts))
	ex.SetTier(core.TierPolicy{Mode: core.TierAuto, PromoteAfter: 4})

	args := []core.Value{core.VC(ir.Int(2), 1)}
	for i := 0; i < 10; i++ {
		if out := ex.Run(args, core.ZeroOracle{}); out.Kind != core.OutRet || out.Val.Uint() != 2 {
			t.Fatalf("run %d: unexpected outcome %s", i, outcomeKey(out))
		}
		wantTier := "closure"
		if i >= 3 { // the 4th Run trips PromoteAfter=4
			wantTier = "bytecode"
		}
		if got := ex.ActiveTier(); got != wantTier {
			t.Fatalf("run %d: active tier %q, want %q", i, got, wantTier)
		}
	}
	met := ex.Metrics()
	if met.Promotions != 1 {
		t.Fatalf("promotions = %d, want 1", met.Promotions)
	}
	if met.ClosureExecs != 3 || met.BytecodeExecs != 7 {
		t.Fatalf("per-tier execs closure=%d bytecode=%d, want 3/7", met.ClosureExecs, met.BytecodeExecs)
	}
	if met.Execs != 10 {
		t.Fatalf("execs = %d, want 10", met.Execs)
	}
}

// TestSharedLoweringDoesNotPinSource lowers a function through the
// process-wide lowering cache and drops it: the cached lowering, which
// serves every function with the same text, must keep nothing of the
// IR it was lowered from, so the function becomes collectable.
func TestSharedLoweringDoesNotPinSource(t *testing.T) {
	w := lowerAndDrop(t)
	for i := 0; i < 4 && w.Value() != nil; i++ {
		runtime.GC()
	}
	if w.Value() != nil {
		t.Fatal("the lowering cache keeps the function it lowered reachable")
	}
}

// lowerAndDrop promotes a freshly parsed function to the bytecode tier
// through the shared cache and returns a weak pointer to it, leaving no
// strong reference behind.
//
//go:noinline
func lowerAndDrop(t *testing.T) weak.Pointer[ir.Func] {
	fn := ir.MustParseFunc(`define i2 @lowered_then_dropped(i2 %a) {
entry:
  %x = mul i2 %a, 3
  ret i2 %x
}`)
	misses := core.LowerCacheStats().Misses
	ex := core.NewExecutor(core.Compile(fn, core.FreezeOptions()))
	ex.SetTier(core.TierPolicy{Mode: core.TierBytecode})
	if out := ex.Run([]core.Value{core.VC(ir.I2, 1)}, core.ZeroOracle{}); out.Kind != core.OutRet || out.Val.Uint() != 3 {
		t.Fatalf("unexpected outcome %s", outcomeKey(out))
	}
	if ex.ActiveTier() != "bytecode" || core.LowerCacheStats().Misses != misses+1 {
		t.Fatal("the function was not lowered through the shared cache")
	}
	return weak.Make(fn)
}
