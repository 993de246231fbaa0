package passes

import (
	"tameir/internal/analysis"
	"tameir/internal/core"
	"tameir/internal/ir"
)

// Mem2Reg promotes allocas whose address never escapes into SSA
// registers, inserting phi nodes at dominance frontiers. A load that
// can observe the alloca before any store yields the uninitialized
// value: undef under legacy semantics, poison under the Freeze
// semantics — exactly the §5.3 distinction the frontend's bit-field
// lowering has to cope with.
type Mem2Reg struct{}

// Name implements Pass.
func (Mem2Reg) Name() string { return "mem2reg" }

// Run implements Pass.
func (Mem2Reg) Run(f *ir.Func, cfg *Config, am *AnalysisManager) bool {
	var allocas []*ir.Instr
	for _, in := range f.Entry().Instrs() {
		if in.Op == ir.OpAlloca && promotable(in) {
			allocas = append(allocas, in)
		}
	}
	if len(allocas) == 0 {
		return false
	}
	dt := am.DomTree()
	df := dominanceFrontiers(f, dt, am.Preds())
	for _, a := range allocas {
		promote(f, a, dt, df, cfg)
	}
	return true
}

// promotable reports whether the alloca is a single scalar slot whose
// only uses are whole-slot loads and stores.
func promotable(a *ir.Instr) bool {
	cnt, ok := a.Arg(0).(*ir.Const)
	if !ok || cnt.Bits != 1 {
		return false
	}
	ty := a.AllocTy
	if !ty.IsInt() && !ty.IsPtr() {
		return false
	}
	for _, u := range a.Users() {
		switch u.Op {
		case ir.OpLoad:
			if !u.Ty.Equal(ty) {
				return false
			}
		case ir.OpStore:
			// The alloca must be the address, not the stored value,
			// and the stored type must match.
			if u.Arg(1) != ir.Value(a) || u.Arg(0) == ir.Value(a) || !u.Arg(0).Type().Equal(ty) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// dominanceFrontiers computes DF(b) for every reachable block
// (Cytron et al.'s algorithm over the dominator tree).
func dominanceFrontiers(f *ir.Func, dt *analysis.DomTree, preds map[*ir.Block][]*ir.Block) map[*ir.Block][]*ir.Block {
	df := map[*ir.Block][]*ir.Block{}
	for _, b := range f.Blocks {
		ps := preds[b]
		if len(ps) < 2 {
			continue
		}
		for _, p := range ps {
			runner := p
			for runner != nil && runner != dt.IDom(b) {
				df[runner] = append(df[runner], b)
				runner = dt.IDom(runner)
			}
		}
	}
	return df
}

func uninitValue(ty ir.Type, cfg *Config) ir.Value {
	if cfg.Sem.Mode == core.Freeze {
		return ir.NewPoison(ty)
	}
	return ir.NewUndef(ty)
}

func promote(f *ir.Func, a *ir.Instr, dt *analysis.DomTree, df map[*ir.Block][]*ir.Block, cfg *Config) {
	ty := a.AllocTy

	// Blocks containing stores.
	storeBlocks := map[*ir.Block]bool{}
	for _, u := range a.Users() {
		if u.Op == ir.OpStore {
			storeBlocks[u.Parent()] = true
		}
	}

	// Iterated dominance frontier: phi placement. The worklist is
	// seeded in block order, not map order: the order phis are created
	// in fixes their names and their order within a block.
	phiAt := map[*ir.Block]*ir.Instr{}
	work := make([]*ir.Block, 0, len(storeBlocks))
	for _, b := range f.Blocks {
		if storeBlocks[b] {
			work = append(work, b)
		}
	}
	inWork := map[*ir.Block]bool{}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, d := range df[b] {
			if phiAt[d] != nil {
				continue
			}
			ph := ir.NewInstr(ir.OpPhi, ty)
			ph.Nam = f.GenName("m2r")
			if first := d.Instrs()[0]; first != nil {
				d.InsertBefore(ph, first)
			}
			phiAt[d] = ph
			if !inWork[d] {
				inWork[d] = true
				work = append(work, d)
			}
		}
	}

	// Rename: DFS over the dominator tree carrying the current value.
	type task struct {
		b   *ir.Block
		val ir.Value
	}
	stack := []task{{f.Entry(), uninitValue(ty, cfg)}}
	visited := map[*ir.Block]bool{}
	// Defer phi operand wiring until values for all preds are known:
	// record the out-value per block.
	outVal := map[*ir.Block]ir.Value{}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[t.b] {
			continue
		}
		visited[t.b] = true
		cur := t.val
		if ph := phiAt[t.b]; ph != nil {
			cur = ph
		}
		for _, in := range append([]*ir.Instr(nil), t.b.Instrs()...) {
			switch {
			case in.Op == ir.OpLoad && in.Arg(0) == ir.Value(a):
				replaceAndErase(in, cur)
			case in.Op == ir.OpStore && in.NumArgs() == 2 && in.Arg(1) == ir.Value(a):
				cur = in.Arg(0)
				in.Parent().Remove(in)
				dropOperands(in)
			}
		}
		outVal[t.b] = cur
		for _, kid := range dt.Children(t.b) {
			stack = append(stack, task{kid, cur})
		}
	}
	// Wire phi incomings from each predecessor's out-value.
	for b, ph := range phiAt {
		for _, p := range f.Preds(b) {
			v := outVal[p]
			if v == nil {
				v = uninitValue(ty, cfg) // unreachable pred
			}
			ph.AddPhiIncoming(v, p)
		}
	}
	// Unused phis (no loads below them) die in DCE; the alloca itself
	// is now unused.
	f.Entry().Erase(a)
}
