package passes

import (
	"sync"

	"tameir/internal/ir"
)

// snapshot is a reusable copy of a block's instruction list, for the
// passes that erase, insert or move instructions while they walk a
// block: they range over the copy. Snapshots come from a pool, so a
// pass run copies blocks without allocating once the pool is warm.
type snapshot struct{ instrs []*ir.Instr }

var snapshots = sync.Pool{New: func() any { return new(snapshot) }}

// newSnapshot takes a snapshot from the pool; release returns it.
func newSnapshot() *snapshot { return snapshots.Get().(*snapshot) }

// of copies b's instructions into s, replacing what s held, and
// returns the copy. It stays valid until the next call of of on s.
func (s *snapshot) of(b *ir.Block) []*ir.Instr {
	s.instrs = append(s.instrs[:0], b.Instrs()...)
	return s.instrs
}

// release clears the references s holds and returns it to the pool.
func (s *snapshot) release() {
	clear(s.instrs)
	s.instrs = s.instrs[:0]
	snapshots.Put(s)
}

// replaceAndErase replaces all uses of in with v and erases in.
func replaceAndErase(in *ir.Instr, v ir.Value) {
	in.ReplaceAllUsesWith(v)
	in.Parent().Erase(in)
}

// isTriviallyDead reports whether in can be deleted: no uses, no side
// effects. Potential deferred or immediate UB does not keep an
// instruction alive — removing UB is a refinement.
func isTriviallyDead(in *ir.Instr) bool {
	if in.Op.HasSideEffects() || in.Op.IsTerminator() {
		return false
	}
	return in.NumUses() == 0
}

// valueEq reports whether two operands are the same value, treating
// structurally identical constants as equal. Undef is never equal to
// anything (not even itself: two uses may differ).
func valueEq(a, b ir.Value) bool {
	if a == b {
		if _, isUndef := a.(*ir.Undef); isUndef {
			return false
		}
		return true
	}
	ca, ok1 := a.(*ir.Const)
	cb, ok2 := b.(*ir.Const)
	if ok1 && ok2 {
		return ca.Ty.Equal(cb.Ty) && ca.Bits == cb.Bits
	}
	pa, ok1 := a.(*ir.Poison)
	pb, ok2 := b.(*ir.Poison)
	if ok1 && ok2 {
		return pa.Ty.Equal(pb.Ty)
	}
	return false
}

// constOperand returns the operand as an integer constant if it is one.
func constOperand(v ir.Value) (*ir.Const, bool) {
	c, ok := v.(*ir.Const)
	return c, ok
}

// isZeroConst reports whether v is the constant 0.
func isZeroConst(v ir.Value) bool {
	c, ok := v.(*ir.Const)
	return ok && c.IsZero()
}

// isOneConst reports whether v is the constant 1.
func isOneConst(v ir.Value) bool {
	c, ok := v.(*ir.Const)
	return ok && c.Bits == 1
}

// isAllOnesConst reports whether v is the all-ones constant.
func isAllOnesConst(v ir.Value) bool {
	c, ok := v.(*ir.Const)
	return ok && c.IsAllOnes()
}

// canonicalizeCommutative moves a constant operand of a commutative
// binop to the right-hand side, returning whether it changed anything.
func canonicalizeCommutative(in *ir.Instr) bool {
	if !in.Op.IsCommutative() {
		return false
	}
	if ir.IsConstLeaf(in.Arg(0)) && !ir.IsConstLeaf(in.Arg(1)) {
		a0, a1 := in.Arg(0), in.Arg(1)
		in.SetArg(0, a1)
		in.SetArg(1, a0)
		return true
	}
	return false
}

// removeUnreachableBlocks deletes blocks not reachable from the entry,
// fixing up phi nodes in surviving blocks.
func removeUnreachableBlocks(f *ir.Func) bool {
	reach := map[*ir.Block]bool{}
	work := []*ir.Block{f.Entry()}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		if reach[b] {
			continue
		}
		reach[b] = true
		work = append(work, b.Succs()...)
	}
	var dead []*ir.Block
	for _, b := range f.Blocks {
		if !reach[b] {
			dead = append(dead, b)
		}
	}
	if len(dead) == 0 {
		return false
	}
	// Remove phi incomings from dead predecessors.
	for _, b := range f.Blocks {
		if !reach[b] {
			continue
		}
		for _, ph := range b.Phis() {
			for _, d := range dead {
				ph.RemovePhiIncoming(d)
			}
		}
	}
	// Break def-use links inside the dead region: replace uses of dead
	// instructions in live code (there should be none if dominance
	// held, but be safe) and drop dead instructions' operand uses.
	for _, d := range dead {
		for _, in := range d.Instrs() {
			for _, u := range in.Users() {
				if u.Parent() != nil && reach[u.Parent()] {
					for i := 0; i < u.NumArgs(); i++ {
						if u.Arg(i) == ir.Value(in) {
							u.SetArg(i, ir.NewPoison(in.Ty))
						}
					}
				}
			}
		}
	}
	for _, d := range dead {
		f.RemoveBlock(d)
	}
	// Single-incoming phis left behind become copies.
	for _, b := range f.Blocks {
		for _, ph := range b.Phis() {
			if ph.NumArgs() == 1 {
				replaceAndErase(ph, ph.Arg(0))
			}
		}
	}
	return true
}
