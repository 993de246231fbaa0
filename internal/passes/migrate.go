package passes

import (
	"tameir/internal/ir"
)

// MigrateUndef is the §10.1 migration step: "replace the undef value
// with poison in an incremental, but safe, fashion". Every syntactic
// undef operand becomes a fresh `freeze poison`:
//
//   - it is a refinement: freeze(poison) is one arbitrary-but-stable
//     value, a subset of undef's anything-per-use behaviour;
//   - the result is valid under the Freeze dialect (no undef remains),
//     so a legacy module can be moved to the new semantics one
//     function at a time.
//
// Each undef operand gets its *own* freeze, preserving the
// independence of distinct undef uses (sharing one freeze across uses
// would also be a refinement, but a coarser one).
type MigrateUndef struct{}

// Name implements Pass.
func (MigrateUndef) Name() string { return "migrate-undef" }

// Run implements Pass.
func (MigrateUndef) Run(f *ir.Func, cfg *Config, _ *AnalysisManager) bool {
	changed := false
	// Over-shift is the other semantic delta between the dialects: the
	// legacy semantics gives undef (§2.3), the proposed one poison. A
	// shift whose amount is not provably in range therefore gets its
	// result frozen, so the migrated function's over-shift produces an
	// arbitrary stable value — a refinement of the legacy per-use
	// undef. (§10.1: "further work is required to ensure a safe
	// transition to a world without undef".)
	for _, b := range f.Blocks {
		for _, in := range append([]*ir.Instr(nil), b.Instrs()...) {
			if !in.Op.IsShift() || shiftAmountProvablyInRange(in) || in.NumUses() == 0 {
				continue
			}
			fz := ir.NewInstr(ir.OpFreeze, in.Ty)
			fz.Nam = f.GenName("mig.shift")
			in.ReplaceAllUsesWith(fz)
			fz.AddArg(in)
			// Insert immediately after the shift (a terminator always
			// follows, so a next instruction exists).
			instrs := b.Instrs()
			for k, x := range instrs {
				if x == in {
					b.InsertBefore(fz, instrs[k+1])
					break
				}
			}
			changed = true
		}
	}
	for _, b := range f.Blocks {
		for _, in := range append([]*ir.Instr(nil), b.Instrs()...) {
			for i := 0; i < in.NumArgs(); i++ {
				switch u := in.Arg(i).(type) {
				case *ir.Undef:
					fz := ir.NewInstr(ir.OpFreeze, u.Ty, ir.NewPoison(u.Ty))
					fz.Nam = f.GenName("mig")
					insertForUse(f, in, i, fz)
					in.SetArg(i, fz)
					changed = true
				case *ir.VecConst:
					if !vecHasUndef(u) {
						continue
					}
					// Rebuild the vector with poison lanes, then freeze
					// the whole value lane-wise.
					elems := make([]ir.Value, len(u.Elems))
					for k, e := range u.Elems {
						if _, isU := e.(*ir.Undef); isU {
							elems[k] = ir.NewPoison(e.Type())
						} else {
							elems[k] = e
						}
					}
					fz := ir.NewInstr(ir.OpFreeze, u.Ty, ir.NewVecConst(elems))
					fz.Nam = f.GenName("mig")
					insertForUse(f, in, i, fz)
					in.SetArg(i, fz)
					changed = true
				}
			}
		}
	}
	return changed
}

// shiftAmountProvablyInRange reports whether the shift amount is a
// constant below the bitwidth (no over-shift possible).
func shiftAmountProvablyInRange(in *ir.Instr) bool {
	c, ok := in.Arg(1).(*ir.Const)
	return ok && c.Bits < uint64(in.Ty.Bits)
}

func vecHasUndef(v *ir.VecConst) bool {
	for _, e := range v.Elems {
		if _, isU := e.(*ir.Undef); isU {
			return true
		}
	}
	return false
}

// insertForUse places the new instruction so it dominates the use: for
// a phi operand, at the end of the corresponding incoming block; for
// anything else, immediately before the user.
func insertForUse(f *ir.Func, user *ir.Instr, argIdx int, in *ir.Instr) {
	if user.Op == ir.OpPhi {
		pred := user.BlockArg(argIdx)
		pred.InsertBefore(in, pred.Terminator())
		return
	}
	user.Parent().InsertBefore(in, user)
}
