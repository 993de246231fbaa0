package passes

import (
	"tameir/internal/ir"
)

// Reassociate rewrites chains of adds into a canonical form with
// constants combined:  (x + C1) + (y + C2)  →  (x + y) + (C1+C2).
//
// Section 10.2: reassociation changes how and whether subexpressions
// overflow, so it must drop nsw/nuw from the rebuilt expressions. The
// fixed variant does; Config.Unsound keeps the attributes on the
// rebuilt adds — the historical LLVM/MSVC bug, where a later
// optimization trusted the stale attribute.
type Reassociate struct{}

// Name implements Pass.
func (Reassociate) Name() string { return "reassociate" }

// Run implements Pass.
func (Reassociate) Run(f *ir.Func, cfg *Config, _ *AnalysisManager) bool {
	snap := newSnapshot()
	defer snap.release()
	changed := false
	for _, b := range f.Blocks {
		for _, in := range snap.of(b) {
			if in.Parent() == nil || in.Op != ir.OpAdd {
				continue
			}
			// Only rewrite roots: adds not solely feeding another add
			// we would also rewrite.
			if isAddTreeInternal(in) {
				continue
			}
			if reassociateAddTree(f, in, cfg) {
				changed = true
			}
		}
	}
	return changed
}

func isAddTreeInternal(in *ir.Instr) bool {
	if in.NumUses() != 1 {
		return false
	}
	for _, u := range in.Users() {
		if u.Op == ir.OpAdd && u.Parent() == in.Parent() {
			return true
		}
	}
	return false
}

// collectAddTerms flattens the single-use add tree rooted at in into
// leaf terms and a constant accumulator. attrsSeen accumulates the
// attributes found on the chain.
func collectAddTerms(in *ir.Instr, terms *[]ir.Value, constSum *uint64, attrsSeen *ir.Attrs, internals *[]*ir.Instr) {
	*attrsSeen |= in.Attrs
	for _, a := range in.Args() {
		if sub, ok := a.(*ir.Instr); ok && sub.Op == ir.OpAdd && sub.NumUses() == 1 && sub.Parent() == in.Parent() {
			*internals = append(*internals, sub)
			collectAddTerms(sub, terms, constSum, attrsSeen, internals)
			continue
		}
		if c, ok := a.(*ir.Const); ok {
			*constSum += c.Bits
			continue
		}
		*terms = append(*terms, a)
	}
}

func reassociateAddTree(f *ir.Func, root *ir.Instr, cfg *Config) bool {
	var terms []ir.Value
	var constSum uint64
	var attrs ir.Attrs
	var internals []*ir.Instr
	collectAddTerms(root, &terms, &constSum, &attrs, &internals)
	if len(internals) == 0 {
		// Nothing to flatten: at most fold "x + C" ordering, which
		// canonicalizeCommutative already does.
		return false
	}

	newAttrs := ir.Attrs(0)
	if cfg.Unsound {
		// Historical bug: keep overflow attributes on the rewritten
		// subexpressions even though association changed.
		newAttrs = attrs
	}

	// Rebuild: ((t0 + t1) + t2 ...) + constSum.
	b := root.Parent()
	var acc ir.Value
	w := uint(root.Ty.Bits)
	if len(terms) == 0 {
		acc = ir.ConstInt(root.Ty, constSum)
	} else {
		acc = terms[0]
		for _, t := range terms[1:] {
			add := ir.NewInstr(ir.OpAdd, root.Ty, acc, t)
			add.Attrs = newAttrs
			add.Nam = f.GenName("reass")
			b.InsertBefore(add, root)
			acc = add
		}
		if ir.TruncBits(constSum, w) != 0 {
			add := ir.NewInstr(ir.OpAdd, root.Ty, acc, ir.ConstInt(root.Ty, constSum))
			add.Attrs = newAttrs
			add.Nam = f.GenName("reass")
			b.InsertBefore(add, root)
			acc = add
		}
	}
	root.ReplaceAllUsesWith(acc)
	b.Erase(root)
	// The internal nodes are now dead (they had a single use each).
	for _, in := range internals {
		if in.Parent() != nil && in.NumUses() == 0 {
			in.Parent().Erase(in)
		}
	}
	return true
}
