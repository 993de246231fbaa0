package analysis

import (
	"slices"

	"tameir/internal/ir"
)

// DomTree is a dominator tree over the reachable blocks of a function,
// built with the Cooper–Harvey–Kennedy iterative algorithm.
type DomTree struct {
	fn    *ir.Func
	idom  map[*ir.Block]*ir.Block // immediate dominator; entry maps to itself
	order map[*ir.Block]int       // reverse postorder index
	kids  map[*ir.Block][]*ir.Block

	// Storage kept for the next computation (a Manager recomputes into
	// the same tree): the reverse postorder, the search stack, the
	// array the children lists are carved from and its offsets.
	rpo    []*ir.Block
	stack  []dfsFrame
	kidBuf []*ir.Block
	offs   []int
}

// NewDomTree computes the dominator tree of f.
func NewDomTree(f *ir.Func) *DomTree {
	dt := new(DomTree)
	dt.compute(f, Preds(f))
	return dt
}

// compute refills dt with the dominator tree of f, built from an
// existing predecessor map (shared with the Manager's cached CFG
// analysis).
func (dt *DomTree) compute(f *ir.Func, preds map[*ir.Block][]*ir.Block) {
	if dt.idom == nil {
		dt.idom = make(map[*ir.Block]*ir.Block, len(f.Blocks))
		dt.order = make(map[*ir.Block]int, len(f.Blocks))
		dt.kids = make(map[*ir.Block][]*ir.Block, len(f.Blocks))
	}
	dt.reset()
	dt.fn = f
	dt.rpo, dt.stack = reversePostorder(f, dt.order, dt.rpo, dt.stack)
	order, idom, rpo := dt.order, dt.idom, dt.rpo
	for i, b := range rpo {
		order[b] = i
	}
	entry := f.Entry()
	idom[entry] = entry

	intersect := func(a, b *ir.Block) *ir.Block {
		for a != b {
			for order[a] > order[b] {
				a = idom[a]
			}
			for order[b] > order[a] {
				b = idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, b := range rpo[1:] {
			var newIdom *ir.Block
			for _, p := range preds[b] {
				if _, ok := idom[p]; !ok {
					continue // unreachable or not yet processed
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != nil && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}

	// Children lists, carved from one array: count each block's
	// children, turn the counts into offsets, then place every child,
	// in reverse postorder, at its parent's next free slot.
	n := len(rpo)
	dt.offs = slices.Grow(dt.offs[:0], n+1)[:n+1]
	offs := dt.offs
	clear(offs)
	for _, b := range rpo[1:] {
		offs[order[idom[b]]+1]++
	}
	for i := 1; i <= n; i++ {
		offs[i] += offs[i-1]
	}
	dt.kidBuf = slices.Grow(dt.kidBuf[:0], n-1)[:n-1]
	for _, b := range rpo[1:] {
		p := order[idom[b]]
		dt.kidBuf[offs[p]] = b
		offs[p]++
	}
	// offs[p] is now where p's children end; they start where p-1's do.
	start := 0
	for p, b := range rpo {
		if end := offs[p]; end > start {
			dt.kids[b] = dt.kidBuf[start:end:end]
			start = end
		}
	}
}

// reset drops every reference dt holds, keeping its storage.
func (dt *DomTree) reset() {
	dt.fn = nil
	clear(dt.idom)
	clear(dt.order)
	clear(dt.kids)
	clear(dt.rpo)
	clear(dt.kidBuf)
}

// IDom returns the immediate dominator of b (nil for the entry block or
// unreachable blocks).
func (dt *DomTree) IDom(b *ir.Block) *ir.Block {
	d := dt.idom[b]
	if d == b {
		return nil
	}
	return d
}

// Children returns the blocks immediately dominated by b.
func (dt *DomTree) Children(b *ir.Block) []*ir.Block { return dt.kids[b] }

// Dominates reports whether a dominates b (reflexively).
func (dt *DomTree) Dominates(a, b *ir.Block) bool {
	if _, ok := dt.idom[b]; !ok {
		return false // unreachable
	}
	for {
		if a == b {
			return true
		}
		d := dt.idom[b]
		if d == b {
			return false // reached entry
		}
		b = d
	}
}

// StrictlyDominates reports whether a dominates b and a != b.
func (dt *DomTree) StrictlyDominates(a, b *ir.Block) bool {
	return a != b && dt.Dominates(a, b)
}

// InstrDominates reports whether the definition point of value v
// dominates instruction user. Constant leaves and parameters dominate
// everything; an instruction dominates users in later positions of its
// own block and in strictly dominated blocks. A phi's value is
// available from the top of its block.
func (dt *DomTree) InstrDominates(v ir.Value, user *ir.Instr) bool {
	def, ok := v.(*ir.Instr)
	if !ok {
		return true
	}
	if def == user {
		// An instruction never dominates its own use sites: a non-phi
		// self-operand is invalid SSA, and phi self-references are
		// checked against the incoming edge's terminator instead.
		return false
	}
	db, ub := def.Parent(), user.Parent()
	if db == nil || ub == nil {
		return false
	}
	if db != ub {
		return dt.StrictlyDominates(db, ub)
	}
	for _, in := range db.Instrs() {
		if in == def {
			return true
		}
		if in == user {
			return false
		}
	}
	return false
}
