package analysis

import "tameir/internal/ir"

// This file implements the flow-sensitive poison dataflow analysis the
// paper's deployment story depends on (§5, §7): freeze is only cheap if
// the compiler can prove most values are never poison and delete the
// redundant freezes the §10.1 migration sprays over every undef use.
// Unlike IsGuaranteedNotToBePoison (a local, operand-chasing query),
// this analysis walks the CFG once to a fixpoint, so it reasons about
// phi merges and loop-carried values, and its result is cached in the
// analysis Manager like the dominator tree.

// PoisonLattice is the per-value fact: NeverPoison is the optimistic
// bottom element, MayPoison the conservative top. Join is max.
type PoisonLattice uint8

const (
	// NeverPoison: the value cannot be poison — nor, under legacy
	// semantics, undef. The two are deliberately conflated, exactly as
	// in IsGuaranteedNotToBePoison: every consumer of the fact (freeze
	// elimination, speculation) needs "no deferred UB at all", and a
	// multi-use freeze of undef is not removable even though undef is
	// not poison (§3.1's use-count trap).
	NeverPoison PoisonLattice = iota
	// MayPoison: the analysis cannot rule poison out.
	MayPoison
)

// String renders the fact for diagnostics.
func (l PoisonLattice) String() string {
	if l == NeverPoison {
		return "never-poison"
	}
	return "may-poison"
}

func joinPoison(a, b PoisonLattice) PoisonLattice {
	if a > b {
		return a
	}
	return b
}

// PoisonFacts is the computed result for one function: one lattice
// element per reachable value-producing instruction. Leaves (constants,
// parameters, deferred-UB constants) are classified structurally at
// query time. The facts are valid for the IR state they were computed
// from; the Manager drops them after any pass step that reports a
// change, whether or not the pass preserves the CFG.
type PoisonFacts struct {
	fn     *ir.Func
	facts  map[*ir.Instr]PoisonLattice
	reach  map[*ir.Block]bool
	rounds int

	queries *uint64 // bound to Manager.Stats when cached there
	local   uint64  // standalone query count (tame-lint, tests)
}

// AnalyzePoison runs the dataflow to fixpoint over the reachable blocks
// of f. The iteration is optimistic: every instruction starts at
// NeverPoison and is raised by monotone transfer functions until
// nothing changes, which gives the least fixpoint — the standard
// loop-safe treatment: a phi whose incomings are all clean-or-itself
// stays NeverPoison, justified by induction over loop iterations.
func AnalyzePoison(f *ir.Func) *PoisonFacts {
	p := &PoisonFacts{
		fn:    f,
		facts: make(map[*ir.Instr]PoisonLattice, f.NumInstrs()),
		reach: Reachable(f),
	}
	rpo := ReversePostorder(f)
	for {
		p.rounds++
		changed := false
		for _, b := range rpo {
			for _, in := range b.Instrs() {
				nf := p.transfer(in)
				old, seen := p.facts[in]
				if !seen || nf > old {
					p.facts[in] = nf
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return p
}

// leafFact classifies a non-instruction value structurally.
func (p *PoisonFacts) leafFact(v ir.Value) PoisonLattice {
	switch x := v.(type) {
	case *ir.Const, *ir.Global:
		return NeverPoison
	case *ir.VecConst:
		for _, e := range x.Elems {
			if p.leafFact(e) == MayPoison {
				return MayPoison
			}
		}
		return NeverPoison
	case *ir.Undef, *ir.Poison:
		return MayPoison
	case *ir.Param:
		// Parameters may always be poison; §10 notes LLVM could change
		// that, which would strengthen this whole analysis at once.
		return MayPoison
	}
	return MayPoison
}

// operandFact is the in-flight view used by transfer: instructions not
// yet visited read as the optimistic bottom so loops converge to the
// least fixpoint.
func (p *PoisonFacts) operandFact(v ir.Value) PoisonLattice {
	if in, ok := v.(*ir.Instr); ok {
		return p.facts[in] // zero value is NeverPoison (bottom)
	}
	return p.leafFact(v)
}

// transfer computes the fact for one instruction from its operands'
// current facts. Every case is monotone in the operands.
func (p *PoisonFacts) transfer(in *ir.Instr) PoisonLattice {
	switch {
	case in.Op == ir.OpFreeze, in.Op == ir.OpAlloca:
		return NeverPoison
	case in.Op == ir.OpPhi:
		// Phi merge across incoming edges: self-references contribute
		// nothing new (any execution reaching the phi through the
		// backedge read an earlier iterate, covered by induction), and
		// edges from unreachable predecessors never execute.
		out := NeverPoison
		for i := 0; i < in.NumArgs(); i++ {
			if in.Arg(i) == ir.Value(in) {
				continue
			}
			if pred := in.BlockArg(i); pred != nil && !p.reach[pred] {
				continue
			}
			out = joinPoison(out, p.operandFact(in.Arg(i)))
		}
		return out
	case in.Op.IsBinop():
		// Poison-generating attributes can introduce poison even from
		// clean operands, unless knownbits proves the overflow
		// impossible; shifts can over-shift unless the amount is
		// provably in range.
		if in.Attrs != 0 && !attrsCannotPoison(in) {
			return MayPoison
		}
		if in.Op.IsShift() && !shiftAmountInRangeKB(in) {
			return MayPoison
		}
		return joinPoison(p.operandFact(in.Arg(0)), p.operandFact(in.Arg(1)))
	case in.Op == ir.OpICmp:
		return joinPoison(p.operandFact(in.Arg(0)), p.operandFact(in.Arg(1)))
	case in.Op.IsCast():
		return p.operandFact(in.Arg(0))
	case in.Op == ir.OpSelect:
		// Condition plus both arms: conservative under every
		// SelectPoison knob (Figure 5, either-arm, cond-UB).
		out := p.operandFact(in.Arg(0))
		out = joinPoison(out, p.operandFact(in.Arg(1)))
		return joinPoison(out, p.operandFact(in.Arg(2)))
	case in.Op == ir.OpGEP:
		if in.Attrs&ir.NSW != 0 {
			return MayPoison // inbounds-style overflow poison
		}
		return joinPoison(p.operandFact(in.Arg(0)), p.operandFact(in.Arg(1)))
	}
	// Loads (uninitialized memory reads give undef), calls, vector
	// element ops with dynamic indices, terminators: conservative.
	return MayPoison
}

// attrsCannotPoison uses knownbits to prove a flagged operation cannot
// trigger its poison condition: currently add nuw whose operands'
// known-zero high bits bound the sum inside the width (§5.6's "up to"
// caveat applies — the bound holds when the operands are not poison,
// and poison operands already force MayPoison through the operand
// join).
func attrsCannotPoison(in *ir.Instr) bool {
	if in.Op != ir.OpAdd || in.Attrs != ir.NUW || !in.Ty.IsInt() {
		return false
	}
	mask := ir.TruncBits(^uint64(0), uint(in.Ty.Bits))
	la := ComputeKnownBits(in.Arg(0))
	lb := ComputeKnownBits(in.Arg(1))
	maxA := mask &^ la.Zero
	maxB := mask &^ lb.Zero
	return maxB <= mask-maxA
}

// shiftAmountInRangeKB extends the constant-amount check with
// knownbits: an amount whose possible maximum (mask with known-zero
// bits cleared) is below the width can never over-shift.
func shiftAmountInRangeKB(in *ir.Instr) bool {
	if shiftAmountInRange(in) {
		return true
	}
	if !in.Ty.IsInt() {
		return false
	}
	kb := ComputeKnownBits(in.Arg(1))
	mask := ir.TruncBits(^uint64(0), kb.Width)
	return mask&^kb.Zero < uint64(in.Ty.Bits)
}

// SetQueryCounter redirects the query counter into an external
// accumulator (the Manager's Stats), so eviction cannot lose counts.
func (p *PoisonFacts) SetQueryCounter(c *uint64) {
	if c != nil {
		*c += p.local
		p.local = 0
	}
	p.queries = c
}

// Queries returns the number of Fact/NeverPoison/NeverPoisonAt queries
// answered (only meaningful for standalone facts; Manager-owned facts
// report through analysis.Stats.PoisonQueries).
func (p *PoisonFacts) Queries() uint64 {
	if p.queries != nil {
		return *p.queries
	}
	return p.local
}

func (p *PoisonFacts) countQuery() {
	if p.queries != nil {
		*p.queries++
	} else {
		p.local++
	}
}

// Fact returns the lattice element for v. Instructions in unreachable
// blocks (absent from the fixpoint) answer MayPoison: nothing executes
// there, so no claim is ever made about them.
func (p *PoisonFacts) Fact(v ir.Value) PoisonLattice {
	p.countQuery()
	if in, ok := v.(*ir.Instr); ok {
		if f, seen := p.facts[in]; seen {
			return f
		}
		return MayPoison
	}
	return p.leafFact(v)
}

// NeverPoison reports whether the analysis proved v free of deferred UB
// (neither poison nor, under legacy, undef) on every execution.
func (p *PoisonFacts) NeverPoison(v ir.Value) bool { return p.Fact(v) == NeverPoison }

// NeverPoisonAt refines Fact with dominating branch conditions — the
// "branch-condition refinement where cheap" tier. Under the freeze
// dialect, branching on poison is immediate UB (§3.3), so on every
// execution that reaches `at`, each conditional branch in a strictly
// dominating block already executed without UB: its condition was not
// poison, and since an icmp propagates operand poison, neither were the
// icmp's operands. SSA values are immutable once evaluated, so the fact
// holds for every later use dominated by `at`.
//
// VALIDITY: only sound when branching on poison is UB AND the dialect
// has no undef — i.e. core.Freeze semantics. (Under legacy, a branch on
// an undef-derived condition resolves nondeterministically instead of
// trapping, so nothing is learned about undef, and NeverPoison promises
// undef-freedom too.) Callers gate on the semantics mode; the facts
// returned by Fact need no such gate.
func (p *PoisonFacts) NeverPoisonAt(v ir.Value, at *ir.Block, dt *DomTree) bool {
	if p.Fact(v) == NeverPoison {
		return true
	}
	if at == nil || dt == nil {
		return false
	}
	for d := dt.IDom(at); d != nil; d = dt.IDom(d) {
		term := d.Terminator()
		if term == nil || !term.IsConditionalBr() {
			continue
		}
		cond := term.Arg(0)
		if cond == v {
			return true
		}
		if c, ok := cond.(*ir.Instr); ok && c.Op == ir.OpICmp && (c.Arg(0) == v || c.Arg(1) == v) {
			return true
		}
	}
	return false
}

// Rounds returns how many fixpoint sweeps the analysis took (≥ 2; loops
// with poison-raising backedges take more).
func (p *PoisonFacts) Rounds() int { return p.rounds }

// Counts tallies the facts over reachable instructions, for diagnostics
// (tame-lint's per-function summary).
func (p *PoisonFacts) Counts() (never, may int) {
	for _, f := range p.facts {
		if f == NeverPoison {
			never++
		} else {
			may++
		}
	}
	return never, may
}

// equalFacts reports whether two fact tables agree on every reachable
// instruction of the (shared) function — the verify-each invariant: a
// cached analysis must match a fresh recomputation.
func (p *PoisonFacts) equalFacts(fresh *PoisonFacts) bool {
	if len(p.facts) != len(fresh.facts) {
		return false
	}
	for in, f := range p.facts {
		if ff, ok := fresh.facts[in]; !ok || ff != f {
			return false
		}
	}
	return true
}
