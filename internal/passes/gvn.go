package passes

import (
	"bytes"
	"strconv"
	"sync"

	"tameir/internal/analysis"
	"tameir/internal/core"
	"tameir/internal/ir"
)

// GVN performs global value numbering: syntactically equal pure
// expressions are merged when one dominates the other, and equalities
// learned from dominating branch conditions are propagated (the §3.3
// example: after "if (t == y)", t may be replaced by y in the "then"
// region).
//
// The equality propagation is the optimization whose soundness forces
// branch-on-poison to be immediate UB: if branching on poison were a
// nondeterministic choice, the comparison could be poison with t and y
// unrelated, and substituting y for t would be wrong. GVN therefore
// performs propagation only when the semantics makes branch-on-poison
// UB — or when Config.Unsound replicates the historical behaviour of
// assuming it anyway (while loop unswitching simultaneously assumes
// the opposite; the combination is the paper's end-to-end
// miscompilation, PR27506).
//
// Freeze instructions are not merged by default: each freeze of the
// same value may return a different result, and §6 notes GVN could
// fold equivalent freezes only by replacing all uses at once. The
// paper's prototype conservatively skipped this; Config.GVNFoldFreeze
// enables it here as the described extension (sound: replaceAndErase
// redirects every use, and merging only shrinks nondeterminism).
type GVN struct{}

// Name implements Pass.
func (GVN) Name() string { return "gvn" }

// Run implements Pass.
func (GVN) Run(f *ir.Func, cfg *Config, am *AnalysisManager) bool {
	g := gvnPool.Get().(*gvnState)
	g.f, g.dt, g.foldFreeze = f, am.DomTree(), cfg.GVNFoldFreeze
	defer g.release()
	propagate := cfg.Sem.BranchPoison == core.BranchPoisonIsUB || cfg.Unsound
	return g.walk(f.Entry(), nil, propagate)
}

// gvnState is one run's state. Everything but the function and its
// dominator tree is scratch the next run reuses (from gvnPool): the
// leader table, the copy of the block being numbered, and the buffers
// expression keys are rendered into.
type gvnState struct {
	f          *ir.Func
	dt         *analysis.DomTree
	foldFreeze bool

	leaders map[string]*ir.Instr
	instrs  []*ir.Instr
	key     []byte
	opnds   []byte // operand keys, back to back
	ends    []int  // where each operand key ends in opnds
}

var gvnPool = sync.Pool{New: func() any {
	return &gvnState{leaders: map[string]*ir.Instr{}}
}}

// release clears every reference to the function and returns g to the
// pool.
func (g *gvnState) release() {
	g.f, g.dt = nil, nil
	clear(g.leaders)
	clear(g.instrs[:cap(g.instrs)])
	g.instrs = g.instrs[:0]
	gvnPool.Put(g)
}

// exprKey renders a structural key for a pure instruction under the
// current equality substitution into g.key, or returns nil if the
// instruction must not be numbered. The key is valid until the next
// call.
func (g *gvnState) exprKey(in *ir.Instr, subst map[ir.Value]ir.Value) []byte {
	switch in.Op {
	case ir.OpFreeze:
		if !g.foldFreeze {
			return nil
		}
		// Freeze numbering is keyed on the operand like any other
		// unary op; replacement redirects every use of the duplicate,
		// satisfying the §6 all-uses caveat.
	case ir.OpPhi, ir.OpLoad, ir.OpStore, ir.OpCall, ir.OpAlloca:
		return nil
	}
	if in.Op.IsTerminator() {
		return nil
	}
	g.opnds, g.ends = g.opnds[:0], g.ends[:0]
	for i := 0; i < in.NumArgs(); i++ {
		var ok bool
		if g.opnds, ok = appendOperandKey(g.opnds, resolve(in.Arg(i), subst)); !ok {
			return nil
		}
		g.ends = append(g.ends, len(g.opnds))
	}
	b := strconv.AppendUint(g.key[:0], uint64(in.Op), 10)
	b = strconv.AppendUint(append(b, ':'), uint64(in.Attrs), 10)
	b = strconv.AppendUint(append(b, ':'), uint64(in.Pred), 10)
	b = in.Ty.AppendTo(append(b, ':'))
	b = append(b, ':')
	first := 0
	if len(g.ends) == 2 && bytes.Compare(g.operand(1), g.operand(0)) < 0 {
		// Canonical operand order for commutative ops; swapping an
		// icmp's operands requires swapping the predicate.
		switch {
		case in.Op.IsCommutative():
			first = 1
		case in.Op == ir.OpICmp:
			b = strconv.AppendUint(append(b, "swapped:"...), uint64(in.Pred.Swapped()), 10)
			b = append(b, ':')
			first = 1
		}
	}
	for i := range g.ends {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, g.operand(i^first)...)
	}
	g.key = b
	return b
}

// operand returns the i'th operand key exprKey rendered.
func (g *gvnState) operand(i int) []byte {
	start := 0
	if i > 0 {
		start = g.ends[i-1]
	}
	return g.opnds[start:g.ends[i]]
}

// appendOperandKey appends v's part of an expression key, or reports
// false for an operand that must not be numbered.
func appendOperandKey(b []byte, v ir.Value) ([]byte, bool) {
	switch x := v.(type) {
	case *ir.Const:
		b = x.Ty.AppendTo(append(b, 'c'))
		return strconv.AppendUint(append(b, ':'), x.Bits, 10), true
	case *ir.Poison:
		return x.Ty.AppendTo(append(b, "poison:"...)), true
	case *ir.Undef:
		return b, false // undef never equals undef
	case *ir.Global:
		return append(append(b, "g:"...), x.Nam...), true
	case *ir.Param:
		return strconv.AppendInt(append(b, 'p'), int64(x.Idx), 10), true
	case *ir.Instr:
		return append(append(b, "i:"...), x.Nam...), true
	case *ir.VecConst:
		return append(append(b, "v:"...), x.Ident()...), true
	}
	return b, false
}

func resolve(v ir.Value, subst map[ir.Value]ir.Value) ir.Value {
	for i := 0; i < 8; i++ {
		nv, ok := subst[v]
		if !ok {
			return v
		}
		v = nv
	}
	return v
}

// walk numbers instructions in dominator-tree preorder, carrying the
// branch-implied equality substitution.
func (g *gvnState) walk(b *ir.Block, subst map[ir.Value]ir.Value, propagate bool) bool {
	changed := false
	// The copy is reused by the walk below this block, which starts
	// only after the loop is done with it.
	g.instrs = append(g.instrs[:0], b.Instrs()...)
	for _, in := range g.instrs {
		if in.Parent() == nil {
			continue
		}
		// Apply pending substitutions to the operands.
		for i := 0; i < in.NumArgs(); i++ {
			if nv := resolve(in.Arg(i), subst); nv != in.Arg(i) {
				// Never substitute into a phi: the equality only
				// holds on this edge-dominated region, while phi
				// operands are evaluated on the incoming edge.
				if in.Op == ir.OpPhi {
					continue
				}
				if g.operandAvailable(nv, in) {
					in.SetArg(i, nv)
					changed = true
				}
			}
		}
		key := g.exprKey(in, subst)
		if key == nil {
			continue
		}
		if leader, ok := g.leaders[string(key)]; ok && leader.Parent() != nil && g.dt.InstrDominates(leader, in) {
			replaceAndErase(in, leader)
			changed = true
			continue
		}
		g.leaders[string(key)] = in
	}

	// Learn equalities from this block's conditional branch for
	// children dominated by a single out-edge.
	t := b.Terminator()
	for _, kid := range g.dt.Children(b) {
		kidSubst := subst
		if propagate && t != nil && t.IsConditionalBr() {
			if eqV, eqW, onTrue, ok := branchEquality(t); ok {
				// kid is dominated by b; the equality holds in kid if
				// kid is reachable only through the matching edge.
				edge := t.BlockArg(0)
				if !onTrue {
					edge = t.BlockArg(1)
				}
				other := t.BlockArg(1)
				if !onTrue {
					other = t.BlockArg(0)
				}
				if edge != other && g.edgeDominates(b, edge, kid) {
					kidSubst = map[ir.Value]ir.Value{}
					for k, v := range subst {
						kidSubst[k] = v
					}
					kidSubst[eqV] = eqW
				}
			}
		}
		changed = g.walk(kid, kidSubst, propagate) || changed
	}
	return changed
}

// operandAvailable reports whether the replacement value's definition
// dominates the use site.
func (g *gvnState) operandAvailable(v ir.Value, user *ir.Instr) bool {
	return g.dt.InstrDominates(v, user)
}

// branchEquality extracts "a == b" facts from a conditional branch on
// an icmp eq/ne. It returns the value to replace, its replacement
// (preferring a constant or an earlier definition), and whether the
// fact holds on the true edge.
func branchEquality(t *ir.Instr) (from, to ir.Value, onTrue, ok bool) {
	cmp, isInstr := t.Arg(0).(*ir.Instr)
	if !isInstr || cmp.Op != ir.OpICmp {
		return nil, nil, false, false
	}
	if cmp.Pred != ir.PredEQ && cmp.Pred != ir.PredNE {
		return nil, nil, false, false
	}
	a, b := cmp.Arg(0), cmp.Arg(1)
	onTrue = cmp.Pred == ir.PredEQ
	// Prefer replacing a non-constant with a constant.
	switch {
	case ir.IsConstLeaf(b) && !ir.IsConstLeaf(a):
		return a, b, onTrue, true
	case ir.IsConstLeaf(a) && !ir.IsConstLeaf(b):
		return b, a, onTrue, true
	case !ir.IsConstLeaf(a) && !ir.IsConstLeaf(b):
		// Replace the later definition with the earlier one; between
		// an instruction and a parameter, prefer the parameter.
		if _, isP := b.(*ir.Param); isP {
			return a, b, onTrue, true
		}
		return b, a, onTrue, true
	}
	return nil, nil, false, false
}

// edgeDominates reports whether every path from the entry to kid goes
// through the edge b→edge: true when edge's only predecessor is b and
// edge dominates kid.
func (g *gvnState) edgeDominates(b, edge, kid *ir.Block) bool {
	preds := g.f.Preds(edge)
	if len(preds) != 1 || preds[0] != b {
		return false
	}
	return g.dt.Dominates(edge, kid)
}
