package passes

import (
	"tameir/internal/ir"
)

// Inliner replaces calls to small functions with their bodies. Its
// §6-relevant detail is the cost model: the paper's prototype "changed
// the inliner to recognize freeze instructions as zero cost, even if
// they may not always be free. With this change, we avoid changing the
// behavior of the inliner as much as possible" — otherwise the freezes
// introduced by the new semantics would push functions across the
// inlining threshold and perturb every downstream measurement.
//
// Inlining itself is always sound: the callee's semantics (including
// its poison and UB) is reproduced verbatim at the call site, and
// parameters bind exactly like the call's argument values.
type Inliner struct{}

// Name implements Pass.
func (Inliner) Name() string { return "inline" }

// InlineThreshold is the maximum callee cost that still inlines.
const InlineThreshold = 30

// calleeCost is the inliner's size estimate.
func calleeCost(f *ir.Func, cfg *Config) (cost int, inlinable bool) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs() {
			switch in.Op {
			case ir.OpCall:
				// Recursion (direct or mutual) is not inlined, and
				// calls make size estimation unreliable.
				return 0, false
			case ir.OpAlloca:
				// Would need hoisting into the caller's entry; skip.
				return 0, false
			case ir.OpFreeze:
				if cfg.FreezeAware {
					continue // §6: freeze is free
				}
				cost++
			case ir.OpPhi, ir.OpBr, ir.OpRet:
				// Control-flow plumbing is nearly free after layout.
			default:
				cost++
			}
		}
	}
	return cost, true
}

// Run implements Pass. The inliner is a module-level transformation;
// running it on a single function inlines the calls *within* that
// function.
func (Inliner) Run(f *ir.Func, cfg *Config, _ *AnalysisManager) bool {
	changed := false
	for iter := 0; iter < 4; iter++ {
		var call *ir.Instr
		for _, b := range f.Blocks {
			for _, in := range b.Instrs() {
				if in.Op != ir.OpCall || in.Callee == f {
					continue
				}
				if cost, ok := calleeCost(in.Callee, cfg); ok && cost <= InlineThreshold {
					call = in
					break
				}
			}
			if call != nil {
				break
			}
		}
		if call == nil {
			return changed
		}
		inlineCall(f, call)
		changed = true
	}
	return changed
}

// inlineCall splices a copy of call.Callee into f at the call site.
func inlineCall(f *ir.Func, call *ir.Instr) {
	callee := call.Callee
	callBlock := call.Parent()

	// Split the call block: instructions after the call move to a new
	// continuation block.
	cont := f.NewBlock(callBlock.Name() + ".cont")
	instrs := callBlock.Instrs()
	idx := -1
	for i, in := range instrs {
		if in == call {
			idx = i
			break
		}
	}
	for _, in := range append([]*ir.Instr(nil), instrs[idx+1:]...) {
		callBlock.Remove(in)
		cont.Append(in)
	}
	// Successor phis now receive control from cont.
	for _, s := range cont.Succs() {
		for _, ph := range s.Phis() {
			for i := 0; i < ph.NumBlocks(); i++ {
				if ph.BlockArg(i) == callBlock {
					ph.SetBlockArg(i, cont)
				}
			}
		}
	}

	// Clone the callee's blocks into f.
	vmap := map[ir.Value]ir.Value{}
	for i, p := range callee.Params {
		vmap[p] = call.Arg(i)
	}
	bmap := map[*ir.Block]*ir.Block{}
	for _, b := range callee.Blocks {
		bmap[b] = f.NewBlock(callee.Name() + "." + b.Name())
	}
	// Result phi collects the inlined returns.
	var retPhi *ir.Instr
	if !call.Ty.IsVoid() {
		retPhi = ir.NewInstr(ir.OpPhi, call.Ty)
		retPhi.Nam = f.GenName("inl")
	}

	for _, b := range callee.Blocks {
		nb := bmap[b]
		for _, in := range b.Instrs() {
			if in.Op == ir.OpRet {
				if retPhi != nil {
					v := in.Arg(0)
					if nv, ok := vmap[v]; ok {
						v = nv
					}
					retPhi.AddPhiIncoming(v, nb)
				}
				br := ir.NewInstr(ir.OpBr, ir.Void)
				br.AddBlockArg(cont)
				nb.Append(br)
				continue
			}
			ni := ir.NewInstr(in.Op, in.Ty)
			ni.Attrs = in.Attrs
			ni.Pred = in.Pred
			ni.AllocTy = in.AllocTy
			ni.Callee = in.Callee
			if !in.Ty.IsVoid() {
				ni.Nam = f.GenName("inl." + in.Name())
				vmap[in] = ni
			}
			nb.Append(ni)
		}
	}
	// Wire operands (second pass: phis may reference forward defs).
	for _, b := range callee.Blocks {
		nb := bmap[b]
		ci := 0
		for _, in := range b.Instrs() {
			if in.Op == ir.OpRet {
				ci++ // the br we appended
				continue
			}
			ni := nb.Instrs()[ci]
			ci++
			for _, a := range in.Args() {
				if na, ok := vmap[a]; ok {
					ni.AddArg(na)
				} else {
					ni.AddArg(a)
				}
			}
			for i := 0; i < in.NumBlocks(); i++ {
				ni.AddBlockArg(bmap[in.BlockArg(i)])
			}
		}
	}

	if retPhi != nil && retPhi.NumArgs() > 0 {
		cont.InsertBefore(retPhi, cont.Instrs()[0])
	}

	// Redirect the call block into the inlined entry.
	br := ir.NewInstr(ir.OpBr, ir.Void)
	br.AddBlockArg(bmap[callee.Entry()])
	callBlock.Append(br)

	// Replace the call's value and delete it.
	if retPhi != nil {
		if retPhi.NumArgs() > 0 {
			call.ReplaceAllUsesWith(retPhi)
		} else {
			// The callee never returns; the continuation is
			// unreachable and the value unobservable.
			call.ReplaceAllUsesWith(ir.NewPoison(call.Ty))
		}
	}
	callBlock.Erase(call)
}
