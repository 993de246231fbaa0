package passes

import (
	"sync"

	"tameir/internal/core"
	"tameir/internal/ir"
)

// SCCP is sparse conditional constant propagation: a lattice of
// ⊤ (unvisited) → constant → ⊥ (overdefined) per value, with branch
// feasibility tracked so constants propagate through not-yet-taken
// edges.
//
// Deferred UB is folded by *consistently* resolving it: a lattice cell
// that only ever saw undef or poison folds to the constant 0 — a sound
// refinement, because choosing one member of the value set (or
// dropping poison to a value) only shrinks behaviours. (GCC does
// something similar, §9; the historical LLVM bugs came from resolving
// the same undef differently in the value lattice and the branch
// logic, which this implementation cannot do by construction: branches
// consult the same lattice.)
type SCCP struct{}

// Name implements Pass.
func (SCCP) Name() string { return "sccp" }

func init() {
	// Folds branches and deletes unreachable blocks.
	Register(PassInfo{Name: "sccp", New: func() Pass { return SCCP{} }, Preserves: PreservesNone})
}

type latKind uint8

const (
	latTop latKind = iota
	latDeferred
	latConst
	latBottom
)

type latVal struct {
	kind latKind
	bits uint64
}

func (a latVal) meet(b latVal) latVal {
	switch {
	case a.kind == latTop:
		return b
	case b.kind == latTop:
		return a
	case a.kind == latBottom || b.kind == latBottom:
		return latVal{kind: latBottom}
	case a.kind == latDeferred:
		return b
	case b.kind == latDeferred:
		return a
	case a.bits == b.bits:
		return a
	}
	return latVal{kind: latBottom}
}

// Run implements Pass.
func (SCCP) Run(f *ir.Func, cfg *Config, _ *AnalysisManager) bool {
	s := sccpPool.Get().(*sccpState)
	defer s.release()
	s.markAlive(f.Entry())
	for len(s.workI) > 0 || len(s.workB) > 0 {
		for len(s.workI) > 0 {
			in := s.workI[len(s.workI)-1]
			s.workI = s.workI[:len(s.workI)-1]
			s.visit(in)
		}
		for len(s.workB) > 0 {
			b := s.workB[len(s.workB)-1]
			s.workB = s.workB[:len(s.workB)-1]
			for _, in := range b.Instrs() {
				s.visit(in)
			}
		}
	}

	// Rewrite: constants replace instructions; deferred-only cells
	// fold to 0; infeasible branch edges become unconditional.
	changed := false
	for _, b := range f.Blocks {
		if !s.alive[b] {
			continue
		}
		s.instrs = append(s.instrs[:0], b.Instrs()...)
		for _, in := range s.instrs {
			if in.Parent() == nil || in.Ty.IsVoid() || !in.Ty.IsInt() {
				continue
			}
			switch lv := s.vals[in]; lv.kind {
			case latConst:
				replaceAndErase(in, ir.ConstInt(in.Ty, lv.bits))
				changed = true
			case latDeferred:
				replaceAndErase(in, ir.ConstInt(in.Ty, 0))
				changed = true
			}
		}
	}
	if changed {
		changed = removeUnreachableBlocks(f) || changed
	}
	return changed
}

// sccpState is one run's lattice, feasible edges, live blocks and
// worklists. It is scratch the next run reuses (from sccpPool), cleared
// when the run ends.
type sccpState struct {
	vals   map[ir.Value]latVal
	edges  map[[2]*ir.Block]bool
	alive  map[*ir.Block]bool
	workI  []*ir.Instr
	workB  []*ir.Block
	instrs []*ir.Instr // the rewrite's copy of one block
	args   []latVal    // visit's operand lattice values
}

var sccpPool = sync.Pool{New: func() any {
	return &sccpState{
		vals:  map[ir.Value]latVal{},
		edges: map[[2]*ir.Block]bool{},
		alive: map[*ir.Block]bool{},
	}
}}

// release clears every reference to the function and returns s to the
// pool.
func (s *sccpState) release() {
	clear(s.vals)
	clear(s.edges)
	clear(s.alive)
	clear(s.workI[:cap(s.workI)])
	clear(s.workB[:cap(s.workB)])
	clear(s.instrs[:cap(s.instrs)])
	s.workI, s.workB, s.instrs = s.workI[:0], s.workB[:0], s.instrs[:0]
	sccpPool.Put(s)
}

func (s *sccpState) markAlive(b *ir.Block) {
	if s.alive[b] {
		return
	}
	s.alive[b] = true
	s.workB = append(s.workB, b)
}

func (s *sccpState) markEdge(from, to *ir.Block) {
	key := [2]*ir.Block{from, to}
	if s.edges[key] {
		return
	}
	s.edges[key] = true
	if s.alive[to] {
		// Re-visit the phis: a new incoming edge became feasible.
		for _, ph := range to.Phis() {
			s.workI = append(s.workI, ph)
		}
	} else {
		s.markAlive(to)
	}
}

func (s *sccpState) lattice(v ir.Value) latVal {
	switch c := v.(type) {
	case *ir.Const:
		return latVal{kind: latConst, bits: c.Bits}
	case *ir.Undef, *ir.Poison:
		return latVal{kind: latDeferred}
	case *ir.Param, *ir.Global, *ir.VecConst:
		return latVal{kind: latBottom}
	}
	return s.vals[v]
}

func (s *sccpState) setLattice(in *ir.Instr, lv latVal) {
	old := s.vals[in]
	nv := old.meet(lv)
	if nv == old {
		return
	}
	s.vals[in] = nv
	for _, u := range in.Users() {
		if u.Parent() != nil && s.alive[u.Parent()] {
			s.workI = append(s.workI, u)
		}
	}
}

func (s *sccpState) visit(in *ir.Instr) {
	bottom := latVal{kind: latBottom}
	switch {
	case in.Op == ir.OpBr:
		if !in.IsConditionalBr() {
			s.markEdge(in.Parent(), in.BlockArg(0))
			return
		}
		switch c := s.lattice(in.Arg(0)); c.kind {
		case latTop:
			// not yet known
		case latConst:
			if c.bits != 0 {
				s.markEdge(in.Parent(), in.BlockArg(0))
			} else {
				s.markEdge(in.Parent(), in.BlockArg(1))
			}
		case latDeferred:
			// Consistently resolve deferred branch conditions to 0:
			// take the false edge (matches folding the value to 0).
			s.markEdge(in.Parent(), in.BlockArg(1))
		default:
			s.markEdge(in.Parent(), in.BlockArg(0))
			s.markEdge(in.Parent(), in.BlockArg(1))
		}
		return
	case in.Op == ir.OpPhi:
		acc := latVal{kind: latTop}
		for i := 0; i < in.NumArgs(); i++ {
			if !s.edges[[2]*ir.Block{in.BlockArg(i), in.Parent()}] {
				continue
			}
			acc = acc.meet(s.lattice(in.Arg(i)))
		}
		s.setLattice(in, acc)
		return
	case in.Op.IsTerminator() || in.Ty.IsVoid():
		return
	case !in.Ty.IsInt():
		s.setLattice(in, bottom)
		return
	}

	// Pure scalar instructions: evaluate over the lattice.
	if cap(s.args) < in.NumArgs() {
		s.args = make([]latVal, in.NumArgs())
	}
	args := s.args[:in.NumArgs()]
	anyTop := false
	for i := range args {
		args[i] = s.lattice(in.Arg(i))
		if args[i].kind == latTop {
			anyTop = true
		}
	}
	if anyTop {
		return // wait for more information
	}
	conc := func(lv latVal) core.Scalar {
		if lv.kind == latDeferred {
			return core.C(0) // the consistent resolution
		}
		return core.C(lv.bits)
	}
	switch {
	case in.Op.IsBinop():
		if args[0].kind == latBottom || args[1].kind == latBottom {
			s.setLattice(in, bottom)
			return
		}
		res, ub := core.EvalBinopLane(in.Op, in.Attrs, uint(in.Ty.Bits), conc(args[0]), conc(args[1]), core.Freeze)
		if ub != "" || res.Kind != core.Concrete {
			s.setLattice(in, latVal{kind: latDeferred})
			return
		}
		s.setLattice(in, latVal{kind: latConst, bits: res.Bits})
	case in.Op == ir.OpICmp:
		if args[0].kind == latBottom || args[1].kind == latBottom {
			s.setLattice(in, bottom)
			return
		}
		w := uint(in.Arg(0).Type().Bits)
		r := core.EvalICmpConcrete(in.Pred, w, conc(args[0]).Bits, conc(args[1]).Bits)
		bit := uint64(0)
		if r {
			bit = 1
		}
		s.setLattice(in, latVal{kind: latConst, bits: bit})
	case in.Op == ir.OpZExt, in.Op == ir.OpSExt, in.Op == ir.OpTrunc:
		if args[0].kind == latBottom {
			s.setLattice(in, bottom)
			return
		}
		if !in.Arg(0).Type().IsInt() {
			s.setLattice(in, bottom)
			return
		}
		res := core.EvalCastLane(in.Op, uint(in.Arg(0).Type().Bits), uint(in.Ty.Bits), conc(args[0]))
		s.setLattice(in, latVal{kind: latConst, bits: res.Bits})
	case in.Op == ir.OpSelect:
		switch args[0].kind {
		case latBottom:
			s.setLattice(in, args[1].meet(args[2]))
		case latConst:
			if args[0].bits != 0 {
				s.setLattice(in, args[1])
			} else {
				s.setLattice(in, args[2])
			}
		case latDeferred:
			s.setLattice(in, args[2]) // consistent: condition resolves to 0
		}
	case in.Op == ir.OpFreeze:
		switch args[0].kind {
		case latDeferred:
			s.setLattice(in, latVal{kind: latConst, bits: 0})
		default:
			s.setLattice(in, args[0])
		}
	default:
		s.setLattice(in, bottom)
	}
}
