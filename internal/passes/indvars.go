package passes

import (
	"tameir/internal/analysis"
	"tameir/internal/ir"
)

// IndVarWiden implements the §2.4 flagship optimization: eliminating
// the sign-extension of a narrow induction variable by maintaining a
// parallel wide induction variable.
//
//	head:  %i = phi i32 [ C, %ph ], [ %i1, %latch ]
//	body:  %iext = sext %i to i64          ; eliminated
//	       %i1   = add nsw %i, step
//
// The transformation is justified exactly by nsw-overflow-is-poison:
// if the narrow increment overflowed, %i is poison, sext(%i) is
// poison, and the concrete wide value refines it. With wrapping (no
// nsw) or undef-on-overflow semantics the rewrite would be wrong
// (§2.4 walks through why), so the pass requires the nsw attribute.
type IndVarWiden struct{}

// Name implements Pass.
func (IndVarWiden) Name() string { return "indvars" }

// Run implements Pass.
func (IndVarWiden) Run(f *ir.Func, cfg *Config, am *AnalysisManager) bool {
	li := am.LoopInfo()
	changed := false
	for _, l := range li.Loops {
		ph := l.Preheader(f)
		if ph == nil {
			continue
		}
		for _, iv := range analysis.FindInductionVars(f, l) {
			if !iv.NSW {
				continue
			}
			if widenIV(f, l, ph, iv) {
				changed = true
			}
		}
	}
	return changed
}

func widenIV(f *ir.Func, l *analysis.Loop, ph *ir.Block, iv analysis.InductionVar) bool {
	// Collect in-loop sexts of the IV phi, all to the same wide type.
	var sexts []*ir.Instr
	var wideTy ir.Type
	for _, u := range iv.Phi.Users() {
		if u.Op == ir.OpSExt && l.ContainsInstr(u) {
			if len(sexts) == 0 {
				wideTy = u.Ty
			} else if !u.Ty.Equal(wideTy) {
				return false
			}
			sexts = append(sexts, u)
		}
	}
	if len(sexts) == 0 {
		return false
	}

	// Wide start value in the preheader.
	var wideStart ir.Value
	if c, ok := iv.Start.(*ir.Const); ok {
		wideStart = ir.ConstInt(wideTy, uint64(c.SInt()))
	} else {
		se := ir.NewInstr(ir.OpSExt, wideTy, iv.Start)
		se.Nam = f.GenName("widen.start")
		ph.InsertBefore(se, ph.Terminator())
		wideStart = se
	}

	// Wide phi in the header and wide increment next to the narrow one.
	wphi := ir.NewInstr(ir.OpPhi, wideTy)
	wphi.Nam = f.GenName("widen.iv")
	l.Header.InsertBefore(wphi, l.Header.Instrs()[0])

	winc := ir.NewInstr(ir.OpAdd, wideTy, wphi, ir.ConstInt(wideTy, uint64(iv.Step.SInt())))
	winc.Attrs = ir.NSW
	winc.Nam = f.GenName("widen.inc")
	iv.Next.Parent().InsertBefore(winc, iv.Next)

	// Incomings mirror the narrow phi's block structure.
	for i := 0; i < iv.Phi.NumBlocks(); i++ {
		pred := iv.Phi.BlockArg(i)
		if iv.Phi.Arg(i) == ir.Value(iv.Next) {
			wphi.AddPhiIncoming(winc, pred)
		} else {
			wphi.AddPhiIncoming(wideStart, pred)
		}
	}

	// Replace the sexts: sext(%i) is exactly the wide IV whenever %i
	// is not poison, and refined by it when it is.
	for _, se := range sexts {
		replaceAndErase(se, wphi)
	}
	return true
}
