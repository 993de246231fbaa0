// Package bytecode is the tier-2 execution engine: it lowers a
// function to a flat, register-based bytecode — a dense []uint64
// instruction stream over frame-slot operands — executed by a
// direct-threaded switch dispatch loop (exec.go).
//
// Two lowering optimizations do the work the closure engine cannot:
//
//   - Superblock fusion: a straight-line run of side-effect-free
//     scalar ops (binop, icmp, cast, freeze, scalar select) becomes
//     ONE fused opcode whose unrolled µop body runs without
//     per-instruction dispatch, without per-instruction fuel checks
//     (the fuel is charged in bulk and refunded on early abort), and
//     without per-value lane allocation — scalar results go straight
//     into a static Scalar slot plane.
//
//   - Constant pre-folding: a µop whose operands are all constants is
//     evaluated at lower time against a trip-wire oracle (fold.go); if
//     the evaluation completes without consulting the oracle and
//     without UB, the µop is replaced by a constant move and the
//     result is substituted into later operands of the same block.
//
// Everything the fast path does not cover — vectors, memory, calls,
// malformed-IR error operands — lowers to generic ops that replay the
// closure engine's evaluation order exactly, so the three engines stay
// in oracle-call lockstep (TestCompiledMatchesInterpreter).
package bytecode

import (
	"fmt"

	"tameir/internal/core"
	"tameir/internal/ir"
)

// Opcodes of the dense instruction stream. Each instruction packs
// op(8) | A(16) | B(16) | C(16) into one uint64; A/B/C index the
// program's side tables.
const (
	opFail    = iota // uncharged abort: outs[A] (preErr / fallErr)
	opFuse           // fused superblock: fused[A]
	opGen            // generic op: gops[A]
	opBr             // unconditional: take edges[A]
	opCondBr         // cond opds[A]; true edges[B], false edges[C]
	opRet            // return opds[A]
	opRetVoid        // return void
	opUnreach        // UB "reached unreachable"
	opErrStep        // charged abort: outs[A] (unhandled opcode)
)

func pack(op int, a, b, c int) uint64 {
	return uint64(op) | uint64(uint16(a))<<8 | uint64(uint16(b))<<24 | uint64(uint16(c))<<40
}

// µop kinds of a fused body.
const (
	uMovC   = iota // s[dst] = sconsts[^a] (pre-folded constant)
	uBin           // s[dst] = binop(strict a, strict b)
	uICmp          // s[dst] = icmp(strict a, strict b)
	uCast          // s[dst] = cast(strict a)
	uFreeze        // s[dst] = freeze(plain a)
	uSel           // s[dst] = select(plain a, plain b, plain c)
)

// uop is one unrolled instruction of a fused superblock. Operand refs
// are scalar-plane slots when >= 0 and ^index into sconsts when
// negative; w is the operand lane width (the width undef resolves at,
// and the binop width), toW the cast target width.
type uop struct {
	kind  uint8
	op    ir.Op
	attrs ir.Attrs
	pred  ir.Pred
	w     uint
	toW   uint
	dst   int32
	a     int32
	b     int32
	c     int32
}

// fusedBody is one superblock: fuel is the µop count, charged in bulk
// when enough fuel remains (exec.go refunds the unexecuted tail on
// abort so Steps and timeout points match the closure engine exactly).
type fusedBody struct {
	uops []uop
	fuel int
}

// Generic-operand kinds (the bytecode mirror of the closure engine's
// opd): constants, a slot in either plane, a global, or a compile-time
// error that fires when evaluated.
const (
	gcConst = iota
	gcSlotS
	gcSlotV
	gcGlobal
	gcErr
)

type gopd struct {
	kind   uint8
	val    core.Value
	slot   int32
	ty     ir.Type
	ident  string
	global *ir.Global
	errMsg string
}

func errGopd(msg string) gopd { return gopd{kind: gcErr, errMsg: msg} }

// Generic-op kinds.
const (
	gBin = iota
	gICmp
	gSelect
	gFreeze
	gAlloca
	gLoad
	gStore
	gGEP
	gCast
	gBitcast
	gExtract
	gInsert
	gCall
)

// gop is one generic (non-fusible) instruction.
type gop struct {
	kind     uint8
	op       ir.Op
	attrs    ir.Attrs
	pred     ir.Pred
	ty       ir.Type // result type
	w        uint    // lane/operand width
	toW      uint
	idxW     uint
	elemSize uint32
	szBits   uint   // load bitwidth
	cnt      uint64 // alloca count
	dst      int32  // result slot (-1: void)
	dstVec   bool
	args     []gopd
	callee   *fnProg
}

// bmove is one phi assignment on a CFG edge; vec selects the dst plane
// (and the scratch buffer the simultaneous read goes through).
type bmove struct {
	src gopd
	dst int32 // -1: evaluate for effect only
	vec bool
}

// bedge is one compiled CFG edge: target pc plus phi moves.
type bedge struct {
	target int32
	moves  []bmove
}

// fnProg is one lowered function. It keeps nothing of the IR it was
// lowered from: a shared lowering (core's lowering cache) serves every
// function with the same text and must not pin the first one.
type fnProg struct {
	nS   int // scalar slot-plane size
	nV   int // vector slot-plane size
	code []uint64

	fused   []fusedBody
	gops    []gop
	edges   []bedge
	opds    []gopd
	outs    []core.Outcome
	sconsts []core.Scalar

	// slotIdent names each scalar slot for "read of unset register"
	// diagnostics; vslotIdent likewise for the vector plane.
	slotIdent  []string
	vslotIdent []string

	params []pslot

	// For core's liveness, which numbers slots and instructions as the
	// closure engine does: planes maps each closure slot (params, then
	// every non-void instruction) to its scalar-plane index, or ^index
	// on the vector plane; ords maps each pc to the ordinal of its
	// instruction among the non-phi instructions (a fused body's first
	// µop).
	planes []int32
	ords   []int32
}

// pslot is one parameter: its slot and plane, and its type for the
// argument check.
type pslot struct {
	slot int32
	vec  bool
	ty   ir.Type
}

// Prog is a whole lowered call graph: the core.TierProgram the
// backend hands the tiering controller. Immutable after lowering. mod
// is kept only when the program touches memory, whose globals the
// runner lays out.
type Prog struct {
	root     *fnProg
	opts     core.Options
	mod      *ir.Module
	needsMem bool
	stats    LowerStats
}

// LowerStats describes what the lowering did — test and telemetry
// introspection for fusion and folding.
type LowerStats struct {
	Funcs       int // functions lowered
	Instrs      int // non-phi instructions lowered
	Fused       int // instructions absorbed into fused superblocks
	Superblocks int // fused runs emitted
	Folded      int // µops replaced by constant moves
}

// Stats returns the lowering statistics.
func (p *Prog) Stats() LowerStats { return p.stats }

// NewRunner implements core.TierProgram.
func (p *Prog) NewRunner(src *core.Program) core.TierRunner {
	return &Runner{p: p, opts: p.opts, src: src}
}

// tooLarge guards the 16-bit instruction fields; functions this big do
// not occur in the fuzz campaigns, and the backend declines them
// rather than mis-encode.
const tableMax = 1 << 16

// lower lowers fn and its transitive callees. ok=false when some
// encoding limit is hit (the caller stays on the closure engine).
func lower(fn *ir.Func, opts core.Options) (p *Prog, ok bool) {
	lk := &linker{opts: opts, fns: map[*ir.Func]*fnProg{}}
	defer func() {
		if r := recover(); r == errTooLarge || r == errUnsupported {
			p, ok = nil, false
		} else if r != nil {
			panic(r)
		}
	}()
	root := lk.lowerFn(fn)
	p = &Prog{root: root, opts: opts, needsMem: lk.needsMem, stats: lk.stats}
	if lk.needsMem {
		p.mod = fn.Parent()
	}
	return p, true
}

var (
	errTooLarge = fmt.Errorf("bytecode: function exceeds encoding limits")
	// errUnsupported declines constructs whose closure-engine behaviour
	// the bytecode tier cannot reproduce faithfully (e.g. an alloca
	// count that is not a constant, which the other engines only fault
	// on if it actually executes).
	errUnsupported = fmt.Errorf("bytecode: unsupported construct")
)

type linker struct {
	opts     core.Options
	fns      map[*ir.Func]*fnProg
	needsMem bool
	stats    LowerStats
}

// lowerFn lowers one function, registering the (still filling) fnProg
// first so recursive calls resolve.
func (lk *linker) lowerFn(fn *ir.Func) *fnProg {
	if p := lk.fns[fn]; p != nil {
		return p
	}
	p := &fnProg{}
	lk.fns[fn] = p
	lw := &fnLower{lk: lk, fn: fn, p: p, opts: lk.opts, slotOf: map[ir.Value]slotInfo{}}
	lw.lower()
	lk.stats.Funcs++
	return p
}

type slotInfo struct {
	slot int32
	vec  bool
}

type fnLower struct {
	lk     *linker
	fn     *ir.Func
	p      *fnProg
	opts   core.Options
	slotOf map[ir.Value]slotInfo

	// folded maps a scalar slot defined earlier in the CURRENT block
	// by a pre-folded µop to its constant ref. Substitution is only
	// ever same-block-after-def: across blocks a use might not be
	// dominated by the def in malformed IR, where the slot must still
	// report "read of unset register".
	folded map[int32]int32

	blockPC []int32
	// edgeBlock records, per emitted edge, the ir block index its
	// target must be patched to once every block's pc is known.
	edgeBlock []int32

	// scratch is the fold evaluation frame (fold.go).
	scratch *frame
}

func (lw *fnLower) lower() {
	fn := lw.fn

	// Slot layout mirrors the closure engine — params first, then
	// every non-void instruction in block order — but split into two
	// statically typed planes: scalars (ints, i1, pointers) in a
	// Scalar plane, vectors in a Value plane.
	assign := func(v ir.Value, ty ir.Type, ident string) {
		if ty.IsVoid() {
			return
		}
		if ty.IsVec() {
			lw.slotOf[v] = slotInfo{slot: int32(lw.p.nV), vec: true}
			lw.p.vslotIdent = append(lw.p.vslotIdent, ident)
			lw.p.planes = append(lw.p.planes, ^int32(lw.p.nV))
			lw.p.nV++
		} else {
			lw.slotOf[v] = slotInfo{slot: int32(lw.p.nS), vec: false}
			lw.p.slotIdent = append(lw.p.slotIdent, ident)
			lw.p.planes = append(lw.p.planes, int32(lw.p.nS))
			lw.p.nS++
		}
	}
	for _, prm := range fn.Params {
		assign(prm, prm.Ty, prm.Ident())
	}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs() {
			assign(in, in.Ty, in.Ident())
		}
	}
	lw.p.params = make([]pslot, len(fn.Params))
	for i, prm := range fn.Params {
		si := lw.slotOf[prm]
		lw.p.params[i] = pslot{slot: si.slot, vec: si.vec, ty: prm.Ty}
	}

	lw.blockPC = make([]int32, len(fn.Blocks))
	for i, b := range fn.Blocks {
		lw.blockPC[i] = int32(len(lw.p.code))
		lw.lowerBlock(i, b)
	}
	// Edge targets were recorded as block indices; patch to pcs.
	for i := range lw.p.edges {
		lw.p.edges[i].target = lw.blockPC[lw.edgeBlock[i]]
	}
	// Every charged op is one instruction, a fused body one per µop.
	lw.p.ords = make([]int32, len(lw.p.code))
	n := int32(0)
	for pc, ins := range lw.p.code {
		lw.p.ords[pc] = n
		switch ins & 0xff {
		case opFail:
		case opFuse:
			n += int32(lw.p.fused[uint16(ins>>8)].fuel)
		default:
			n++
		}
	}
	if len(lw.p.code) >= tableMax || len(lw.p.sconsts) >= 1<<15 ||
		len(lw.p.gops) >= tableMax || len(lw.p.edges) >= tableMax ||
		len(lw.p.opds) >= tableMax || len(lw.p.fused) >= tableMax {
		panic(errTooLarge)
	}
}

func (lw *fnLower) blockIndex(b *ir.Block) int {
	for i, bb := range lw.fn.Blocks {
		if bb == b {
			return i
		}
	}
	return 0
}

func (lw *fnLower) emit(op int, a, b, c int) {
	lw.p.code = append(lw.p.code, pack(op, a, b, c))
}

func (lw *fnLower) addOut(o core.Outcome) int {
	lw.p.outs = append(lw.p.outs, o)
	return len(lw.p.outs) - 1
}

func (lw *fnLower) addOpd(g gopd) int {
	lw.p.opds = append(lw.p.opds, g)
	return len(lw.p.opds) - 1
}

// addConst interns a scalar constant and returns its µop ref (^idx).
func (lw *fnLower) addConst(s core.Scalar) int32 {
	for i, c := range lw.p.sconsts {
		if c == s {
			return ^int32(i)
		}
	}
	lw.p.sconsts = append(lw.p.sconsts, s)
	return ^int32(len(lw.p.sconsts) - 1)
}

// edge compiles the CFG edge from→to and returns its index. Phi moves
// preserve the closure engine's order and error timing exactly.
func (lw *fnLower) edge(from, to *ir.Block) int {
	e := bedge{}
	for _, ph := range to.Phis() {
		mv := bmove{dst: -1, vec: ph.Ty.IsVec()}
		if si, ok := lw.slotOf[ph]; ok {
			mv.dst = si.slot
		}
		if incoming, ok := ph.PhiIncoming(from); ok {
			mv.src = lw.gopd(incoming)
		} else {
			mv.src = errGopd(fmt.Sprintf("phi %%%s has no incoming for %%%s", ph.Name(), from.Name()))
		}
		e.moves = append(e.moves, mv)
	}
	lw.p.edges = append(lw.p.edges, e)
	lw.edgeBlock = append(lw.edgeBlock, int32(lw.blockIndex(to)))
	return len(lw.p.edges) - 1
}

func (lw *fnLower) lowerBlock(idx int, b *ir.Block) {
	if idx == 0 && len(b.Phis()) > 0 {
		// The interpreter reports this on entry before any fuel
		// charge; opFail is the uncharged abort.
		lw.emit(opFail, lw.addOut(core.Outcome{Kind: core.OutError, Msg: "phi in entry block"}), 0, 0)
	}
	lw.folded = map[int32]int32{}

	var pending []uop
	flush := func() {
		if len(pending) == 0 {
			return
		}
		body := fusedBody{uops: pending, fuel: len(pending)}
		lw.p.fused = append(lw.p.fused, body)
		lw.emit(opFuse, len(lw.p.fused)-1, 0, 0)
		lw.lk.stats.Fused += len(pending)
		lw.lk.stats.Superblocks++
		pending = nil
	}

	for _, in := range b.Instrs() {
		if in.Op == ir.OpPhi {
			continue // assigned by the incoming edge's moves
		}
		lw.lk.stats.Instrs++
		if u, ok := lw.fuseInstr(in); ok {
			pending = append(pending, lw.tryFold(u))
			continue
		}
		flush()
		lw.lowerGeneric(b, in)
	}
	flush()
	// Reached only when the steps run out without a terminator
	// transferring control; uncharged, like the interpreter.
	lw.emit(opFail, lw.addOut(core.Outcome{Kind: core.OutError, Msg: "block fell through without terminator"}), 0, 0)
}

// sref lowers an operand to a fused-µop scalar ref, with same-block
// constant substitution from earlier folds. ok=false forces the
// instruction onto the generic path.
func (lw *fnLower) sref(v ir.Value) (int32, bool) {
	switch x := v.(type) {
	case *ir.Const:
		return lw.addConst(core.C(x.Bits)), true
	case *ir.Poison:
		return lw.addConst(core.PoisonScalar), true
	case *ir.Undef:
		if lw.opts.Mode == core.Freeze {
			return 0, false // compile-time error operand: generic path
		}
		return lw.addConst(core.UndefScalar), true
	default:
		si, ok := lw.slotOf[v]
		if !ok || si.vec {
			return 0, false
		}
		if c, ok := lw.folded[si.slot]; ok {
			return c, true
		}
		return si.slot, true
	}
}

// fuseInstr builds the fused µop for a fusible instruction: scalar
// result, scalar operands, no globals, no error operands. Everything
// else goes generic.
func (lw *fnLower) fuseInstr(in *ir.Instr) (uop, bool) {
	if in.Ty.IsVoid() || in.Ty.IsVec() {
		return uop{}, false
	}
	si, ok := lw.slotOf[in]
	if !ok || si.vec {
		return uop{}, false
	}
	u := uop{dst: si.slot, op: in.Op, attrs: in.Attrs, pred: in.Pred}
	switch {
	case in.Op.IsBinop():
		u.kind = uBin
		u.w = in.Ty.ElemType().Bits
	case in.Op == ir.OpICmp:
		if in.Arg(0).Type().IsVec() {
			return uop{}, false
		}
		u.kind = uICmp
		u.w = in.Arg(0).Type().ElemType().Bits
	case in.Op == ir.OpZExt, in.Op == ir.OpSExt, in.Op == ir.OpTrunc:
		if in.Arg(0).Type().IsVec() {
			return uop{}, false
		}
		u.kind = uCast
		u.w = in.Arg(0).Type().ElemType().Bits
		u.toW = in.Ty.ElemType().Bits
	case in.Op == ir.OpFreeze:
		u.kind = uFreeze
		u.w = in.Ty.ElemType().Bits
	case in.Op == ir.OpSelect:
		if in.Arg(0).Type().IsVec() {
			return uop{}, false
		}
		u.kind = uSel
	default:
		return uop{}, false
	}
	refs := [3]int32{}
	for i := 0; i < in.NumArgs(); i++ {
		r, ok := lw.sref(in.Arg(i))
		if !ok {
			return uop{}, false
		}
		refs[i] = r
	}
	u.a = refs[0]
	if in.NumArgs() > 1 {
		u.b = refs[1]
	}
	if in.NumArgs() > 2 {
		u.c = refs[2]
	}
	return u, true
}

// gopd lowers an operand for the generic path, mirroring the closure
// engine's operandRaw case by case.
func (lw *fnLower) gopd(v ir.Value) gopd {
	switch x := v.(type) {
	case *ir.Const:
		return gopd{kind: gcConst, val: core.VC(x.Ty, x.Bits)}
	case *ir.Poison:
		return gopd{kind: gcConst, val: core.VPoison(x.Ty)}
	case *ir.Undef:
		if lw.opts.Mode == core.Freeze {
			return errGopd("undef under freeze semantics")
		}
		return gopd{kind: gcConst, val: core.VUndef(x.Ty)}
	case *ir.VecConst:
		lanes := make([]core.Scalar, len(x.Elems))
		for i, e := range x.Elems {
			switch el := e.(type) {
			case *ir.Const:
				lanes[i] = core.C(el.Bits)
			case *ir.Poison:
				lanes[i] = core.PoisonScalar
			case *ir.Undef:
				if lw.opts.Mode == core.Freeze {
					return errGopd("undef lane under freeze semantics")
				}
				lanes[i] = core.UndefScalar
			}
		}
		return gopd{kind: gcConst, val: core.Value{Ty: x.Ty, Lanes: lanes}}
	case *ir.Global:
		lw.lk.needsMem = true
		return gopd{kind: gcGlobal, global: x}
	default:
		si, ok := lw.slotOf[v]
		if !ok {
			return errGopd("read of unset register " + v.Ident())
		}
		if si.vec {
			return gopd{kind: gcSlotV, slot: si.slot, ty: v.Type(), ident: v.Ident()}
		}
		return gopd{kind: gcSlotS, slot: si.slot, ty: v.Type(), ident: v.Ident()}
	}
}

// lowerGeneric lowers a non-fusible instruction: a terminator, or a
// generic op dispatched through the gop table.
func (lw *fnLower) lowerGeneric(b *ir.Block, in *ir.Instr) {
	switch {
	case in.Op == ir.OpBr:
		if !in.IsConditionalBr() {
			lw.emit(opBr, lw.edge(b, in.BlockArg(0)), 0, 0)
			return
		}
		cond := lw.addOpd(lw.gopd(in.Arg(0)))
		e0 := lw.edge(b, in.BlockArg(0))
		e1 := lw.edge(b, in.BlockArg(1))
		lw.emit(opCondBr, cond, e0, e1)

	case in.Op == ir.OpRet:
		if in.NumArgs() == 0 {
			lw.emit(opRetVoid, 0, 0, 0)
			return
		}
		lw.emit(opRet, lw.addOpd(lw.gopd(in.Arg(0))), 0, 0)

	case in.Op == ir.OpUnreachable:
		lw.emit(opUnreach, 0, 0, 0)

	default:
		g, ok := lw.buildGop(in)
		if !ok {
			lw.emit(opErrStep, lw.addOut(core.Outcome{Kind: core.OutError, Msg: "unhandled opcode " + in.Op.String()}), 0, 0)
			return
		}
		lw.p.gops = append(lw.p.gops, g)
		lw.emit(opGen, len(lw.p.gops)-1, 0, 0)
	}
}

func (lw *fnLower) buildGop(in *ir.Instr) (gop, bool) {
	g := gop{op: in.Op, attrs: in.Attrs, pred: in.Pred, ty: in.Ty, dst: -1}
	if si, ok := lw.slotOf[in]; ok {
		g.dst = si.slot
		g.dstVec = si.vec
	}
	nargs := func() {
		g.args = make([]gopd, in.NumArgs())
		for i := range g.args {
			g.args[i] = lw.gopd(in.Arg(i))
		}
	}
	switch {
	case in.Op.IsBinop():
		g.kind = gBin
		g.w = in.Ty.ElemType().Bits
		nargs()
	case in.Op == ir.OpICmp:
		g.kind = gICmp
		g.w = in.Arg(0).Type().ElemType().Bits
		nargs()
	case in.Op == ir.OpSelect:
		g.kind = gSelect
		nargs()
	case in.Op == ir.OpFreeze:
		g.kind = gFreeze
		g.w = in.Ty.ElemType().Bits
		nargs()
	case in.Op == ir.OpAlloca:
		lw.lk.needsMem = true
		g.kind = gAlloca
		g.elemSize = core.SizeOfType(in.AllocTy)
		cst, isConst := in.Arg(0).(*ir.Const)
		if !isConst {
			panic(errUnsupported)
		}
		g.cnt = cst.Bits
	case in.Op == ir.OpLoad:
		lw.lk.needsMem = true
		g.kind = gLoad
		g.szBits = in.Ty.Bitwidth()
		nargs()
	case in.Op == ir.OpStore:
		lw.lk.needsMem = true
		g.kind = gStore
		nargs()
	case in.Op == ir.OpGEP:
		lw.lk.needsMem = true
		g.kind = gGEP
		g.idxW = in.Arg(1).Type().Bits
		g.elemSize = core.SizeOfType(in.AllocTy)
		nargs()
	case in.Op == ir.OpZExt, in.Op == ir.OpSExt, in.Op == ir.OpTrunc:
		g.kind = gCast
		g.w = in.Arg(0).Type().ElemType().Bits
		g.toW = in.Ty.ElemType().Bits
		nargs()
	case in.Op == ir.OpBitcast:
		g.kind = gBitcast
		nargs()
	case in.Op == ir.OpExtractElement:
		g.kind = gExtract
		nargs()
	case in.Op == ir.OpInsertElement:
		g.kind = gInsert
		nargs()
	case in.Op == ir.OpCall:
		g.kind = gCall
		nargs()
		g.callee = lw.lk.lowerFn(in.Callee)
	default:
		return gop{}, false
	}
	return g, true
}
