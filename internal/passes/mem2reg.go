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

// Run implements Pass. It places each alloca's phis at the iterated
// dominance frontier of its stores, then renames every alloca in one
// preorder walk of the dominator tree, which carries one current value
// per alloca.
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
	preds := am.Preds()
	df := dominanceFrontiers(f, dt, preds)
	index := make(map[*ir.Block]int, len(f.Blocks))
	for i, b := range f.Blocks {
		index[b] = i
	}
	// Per-block rows of one entry per alloca: phiOf holds the alloca's
	// phi in the block, out its value at the block's end (nil where the
	// walk never goes: unreachable blocks).
	n := len(allocas)
	phiOf := make([]*ir.Instr, len(f.Blocks)*n)
	out := make([]ir.Value, len(f.Blocks)*n)

	// Phi placement, alloca by alloca. The worklist is seeded in block
	// order, not map order: the order phis are created in fixes their
	// names and their order within a block.
	hasStore := make([]bool, len(f.Blocks))
	var work []*ir.Block
	for a, al := range allocas {
		clear(hasStore)
		for _, u := range al.Users() {
			if u.Op == ir.OpStore {
				hasStore[index[u.Parent()]] = true
			}
		}
		for i, b := range f.Blocks {
			if hasStore[i] {
				work = append(work, b)
			}
		}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, d := range df[b] {
				slot := &phiOf[index[d]*n+a]
				if *slot != nil {
					continue
				}
				ph := ir.NewInstr(ir.OpPhi, al.AllocTy)
				ph.Nam = f.GenName("m2r")
				d.InsertBefore(ph, d.Instrs()[0])
				*slot = ph
				work = append(work, d)
			}
		}
	}

	// Rename: a block starts from its immediate dominator's out-values
	// (the entry from the uninitialized value) and its own phis.
	slotOf := make(map[ir.Value]int, n)
	uninit := make([]ir.Value, n)
	for a, al := range allocas {
		slotOf[al] = a
		uninit[a] = uninitValue(al.AllocTy, cfg)
	}
	snap := newSnapshot()
	defer snap.release()
	stack := []*ir.Block{f.Entry()}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		bi := index[b]
		cur := out[bi*n : bi*n+n]
		if d := dt.IDom(b); d != nil {
			copy(cur, out[index[d]*n:])
		} else {
			copy(cur, uninit)
		}
		for a, ph := range phiOf[bi*n : bi*n+n] {
			if ph != nil {
				cur[a] = ph
			}
		}
		for _, in := range snap.of(b) {
			switch in.Op {
			case ir.OpLoad:
				if a, ok := slotOf[in.Arg(0)]; ok {
					replaceAndErase(in, cur[a])
				}
			case ir.OpStore:
				if a, ok := slotOf[in.Arg(1)]; ok {
					cur[a] = in.Arg(0)
					b.Remove(in)
					dropOperands(in)
				}
			}
		}
		stack = append(stack, dt.Children(b)...)
	}

	// Wire phi incomings from each predecessor's out-value, phis in
	// block order.
	for bi, b := range f.Blocks {
		for a, ph := range phiOf[bi*n : bi*n+n] {
			if ph == nil {
				continue
			}
			for _, p := range preds[b] {
				v := out[index[p]*n+a]
				if v == nil {
					v = uninitValue(ph.Ty, cfg) // unreachable pred
				}
				ph.AddPhiIncoming(v, p)
			}
		}
	}
	// Unused phis (no loads below them) die in DCE; the allocas
	// themselves are now unused.
	for _, al := range allocas {
		f.Entry().Erase(al)
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
