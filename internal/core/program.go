package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tameir/internal/ir"
)

// Program is a function compiled for repeated execution: operands are
// resolved to dense frame slots, blocks and instructions to indices,
// every instruction to a pre-dispatched evaluator closure, and phi
// moves are precomputed per CFG edge. Compiling hoists all the work
// that core's tree-walking interpreter redoes on every execution —
// operand type switches, register-map lookups, option checks — so a
// Program can be run many times (the refinement checker's input ×
// oracle sweep) at a fraction of the interpreter's cost, while making
// oracle choices in exactly the same order and producing byte-identical
// Outcomes.
//
// A Program is immutable after Compile and safe for concurrent use; its
// frame pool is shared by all executors. It captures the function
// structurally at compile time: mutating the function afterwards and
// re-running the Program gives stale results; compile it again.
type Program struct {
	fn   *ir.Func
	opts Options // normalized

	nSlots   int // params first, then every non-void instruction
	maxMoves int // widest phi-move set over all CFG edges
	blocks   []cblock

	// needsMem is whether any execution can touch memory: an alloca,
	// load, store, or global reference anywhere in the compiled call
	// graph. Memory-free programs skip Memory setup entirely, which is
	// most of the per-execution saving on §6-style candidates.
	needsMem bool

	framePool sync.Pool // *cframe

	// live is the function's register liveness, computed the first
	// time a run of it checks a state for merging (merge.go).
	live atomic.Pointer[liveness]
}

// Func returns the compiled function.
func (p *Program) Func() *ir.Func { return p.fn }

// stepFn executes one instruction. It returns the index of the block to
// jump to (negative: fall through to the next step) and a non-nil
// outcome when the execution finished (return, UB, timeout, error).
type stepFn func(env *Env, fr *cframe) (int32, *Outcome)

// evalFn computes one instruction's value.
type evalFn func(env *Env, fr *cframe) (Value, *Outcome)

// cblock is one compiled basic block.
type cblock struct {
	// preErr, when non-nil, aborts the execution on block entry before
	// any step runs (the interpreter's "phi in entry block" check,
	// which precedes the first fuel charge).
	preErr *Outcome
	steps  []stepFn
	// fallErr is returned when the steps run out without a terminator
	// transferring control; like the interpreter it is not charged
	// fuel.
	fallErr *Outcome
}

// cframe is one activation record: a dense register file indexed by
// slot, plus scratch space for the simultaneous phi reads.
type cframe struct {
	regs   []Value
	phiBuf []Value
}

// newLanes carves an n-lane slice out of the env's bump arena. Compiled
// evaluators produce one fresh lane slice per value-producing step; the
// arena turns those per-step heap allocations into a pointer bump,
// reset once per top-level Run. Values carved here live until the end
// of the current execution (they may sit in any frame's registers or be
// the final return value), so the arena is per-Env and only ever grows
// within an execution; an Executor.Run outcome's lanes are therefore
// valid until the executor's next Run. The three-index slice keeps later appends
// from stomping earlier carvings.
func (env *Env) newLanes(n int) []Scalar {
	if cap(env.arena)-len(env.arena) < n {
		// A full chunk stays alive through the values pointing into it;
		// only the arena head moves to a fresh, larger chunk.
		// Start small: an executor often lives for a single short sweep,
		// and a typical execution carves only a handful of lanes.
		c := 2 * cap(env.arena)
		if c < 32 {
			c = 32
		}
		if c > 1<<16 {
			c = 1 << 16
		}
		for c < n {
			c *= 2
		}
		env.arena = make([]Scalar, 0, c)
	}
	m := len(env.arena)
	env.arena = env.arena[:m+n]
	return env.arena[m : m+n : m+n]
}

// opdKind discriminates compiled operands.
type opdKind uint8

const (
	opdConst  opdKind = iota // val holds the precomputed value
	opdSlot                  // read frame slot
	opdGlobal                // resolve global address through the env
	opdErr                   // evaluating the operand is an immediate error
)

// opd is a compiled operand: the closed form of the interpreter's
// operand() type switch.
type opd struct {
	kind     opdKind
	val      Value // opdConst
	slot     int32 // opdSlot
	ident    string
	global   *ir.Global // opdGlobal
	errMsg   string     // opdErr
	hasUndef bool       // opdConst with at least one undef lane
	// noUndef marks operands whose value provably never carries an
	// undef lane, letting evalStrict skip the per-use scan: constants
	// without undef lanes, and — since undef is rejected at compile
	// time, freeze resolves it, and uninitialized memory is poison —
	// every operand under the Freeze semantics.
	noUndef bool
}

func errOpd(msg string) opd { return opd{kind: opdErr, errMsg: msg} }

// eval is ⟦op⟧R without undef resolution, mirroring Env.operand.
func (o *opd) eval(env *Env, fr *cframe) (Value, *Outcome) {
	switch o.kind {
	case opdConst:
		return o.val, nil
	case opdSlot:
		v := fr.regs[o.slot]
		if v.Lanes == nil {
			return Value{}, &Outcome{Kind: OutError, Msg: "read of unset register " + o.ident}
		}
		return v, nil
	case opdGlobal:
		addr, ok := env.globalAddr[o.global]
		if !ok {
			return Value{}, &Outcome{Kind: OutError, Msg: "unmapped global @" + o.global.Name()}
		}
		return VC(ir.Ptr, uint64(addr)), nil
	default:
		return Value{}, &Outcome{Kind: OutError, Msg: o.errMsg}
	}
}

// evalStrict additionally resolves undef lanes per use, mirroring
// Env.strictOperand. The common all-defined case returns the operand
// as it is; when a lane is undef it resolves every lane in order, as
// ResolveUndef does (and thus makes the interpreter's oracle choices),
// into lanes carved from the run's arena.
func (o *opd) evalStrict(env *Env, fr *cframe) (Value, *Outcome) {
	v, out := o.eval(env, fr)
	if out != nil {
		return v, out
	}
	if o.noUndef {
		return v, nil
	}
	for i := range v.Lanes {
		if v.Lanes[i].Kind == UndefVal {
			w := v.Ty.ElemType().Bits
			lanes := env.newLanes(len(v.Lanes))
			for j, l := range v.Lanes {
				lanes[j] = ResolveLane(l, w, env.Oracle)
			}
			return Value{Ty: v.Ty, Lanes: lanes}, nil
		}
	}
	return v, nil
}

// phiMove is one phi assignment on a CFG edge. A phi whose incoming for
// the edge's source block is missing compiles to an error operand, so
// the interpreter's error ordering across a block's phi list is
// preserved exactly.
type phiMove struct {
	src opd
	dst int32 // -1: evaluate for effect only (void phi)
}

// cedge is one compiled CFG edge: the target block plus its phi moves.
type cedge struct {
	target int32
	moves  []phiMove
}

// take performs the edge's simultaneous phi assignment — all sources
// are read into scratch before any destination is written, so
// self-referential and mutually-referential phis see the pre-edge
// values — and returns the target block.
func (e *cedge) take(env *Env, fr *cframe) (int32, *Outcome) {
	if len(e.moves) == 0 {
		return e.target, nil
	}
	buf := fr.phiBuf[:len(e.moves)]
	for i := range e.moves {
		v, out := e.moves[i].src.eval(env, fr)
		if out != nil {
			return 0, out
		}
		buf[i] = v
	}
	for i := range e.moves {
		if d := e.moves[i].dst; d >= 0 {
			fr.regs[d] = buf[i]
		}
	}
	return e.target, nil
}

// Compile translates fn (and, transitively, every function it calls)
// into a Program under the given semantics. Compilation is purely
// structural: it never executes anything and makes no oracle choices.
func Compile(fn *ir.Func, opts Options) *Program {
	opts = opts.normalized()
	linker := make(map[*ir.Func]*Program)
	p := compileInto(fn, opts, linker)
	// Memory use is a property of the whole call graph: if any callee
	// can touch memory, the root must set the heap up (globals are
	// allocated before any frame runs, like NewEnv does).
	needs := false
	for _, q := range linker {
		needs = needs || q.needsMem
	}
	if needs {
		for _, q := range linker {
			q.needsMem = true
		}
	}
	return p
}

// compileInto compiles fn, registering the Program in the linker before
// compiling the body so recursive and mutually-recursive calls resolve
// to the (still filling) Program.
func compileInto(fn *ir.Func, opts Options, linker map[*ir.Func]*Program) *Program {
	if p := linker[fn]; p != nil {
		return p
	}
	p := &Program{fn: fn, opts: opts}
	linker[fn] = p
	c := &compiler{p: p, opts: opts, linker: linker}
	c.compile()
	return p
}

// newFrame allocates a frame sized for the program. The frame pool has
// no New hook on purpose: invoke distinguishes a pool hit from a fresh
// allocation so the env's frame counters stay honest.
func (p *Program) newFrame() *cframe {
	return &cframe{regs: make([]Value, p.nSlots), phiBuf: make([]Value, p.maxMoves)}
}

type compiler struct {
	p      *Program
	opts   Options
	linker map[*ir.Func]*Program
}

// Slot layout: params occupy slots [0, len(Params)), then every
// non-void instruction in block order. The lookups below rescan the
// function instead of building maps — compilation is one-shot and §6
// functions are a handful of instructions, so positional scans beat
// three pointer-keyed map allocations per compile.

// slotOfParam returns the frame slot of a parameter of the compiled
// function, or false for a parameter belonging to some other function.
func (c *compiler) slotOfParam(x *ir.Param) (int32, bool) {
	for i, prm := range c.p.fn.Params {
		if prm == x {
			return int32(i), true
		}
	}
	return 0, false
}

// slotOfInstr returns the frame slot of a non-void instruction of the
// compiled function, or false for void instructions and instructions
// of other functions.
func (c *compiler) slotOfInstr(x *ir.Instr) (int32, bool) {
	n := int32(len(c.p.fn.Params))
	for _, b := range c.p.fn.Blocks {
		for _, in := range b.Instrs() {
			if in == x {
				return n, !in.Ty.IsVoid()
			}
			if !in.Ty.IsVoid() {
				n++
			}
		}
	}
	return 0, false
}

// blockIndex returns the index of a block of the compiled function.
func (c *compiler) blockIndex(b *ir.Block) int32 {
	for i, bb := range c.p.fn.Blocks {
		if bb == b {
			return int32(i)
		}
	}
	return 0
}

func (c *compiler) compile() {
	fn := c.p.fn
	n := int32(len(fn.Params))
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs() {
			if !in.Ty.IsVoid() {
				n++
			}
		}
	}
	c.p.nSlots = int(n)

	c.p.blocks = make([]cblock, len(fn.Blocks))
	for i, b := range fn.Blocks {
		c.compileBlock(i, b)
	}
}

func (c *compiler) compileBlock(idx int, b *ir.Block) {
	cb := &c.p.blocks[idx]
	if idx == 0 && len(b.Phis()) > 0 {
		// The interpreter reports this before charging any fuel; no
		// execution can enter the entry block a second time because the
		// first entry already aborted.
		cb.preErr = &Outcome{Kind: OutError, Msg: "phi in entry block"}
	}
	cb.steps = make([]stepFn, 0, len(b.Instrs()))
	for _, in := range b.Instrs() {
		if in.Op == ir.OpPhi {
			continue // assigned by the incoming edge's moves
		}
		cb.steps = append(cb.steps, c.compileInstr(b, in))
	}
	cb.fallErr = &Outcome{Kind: OutError, Msg: "block fell through without terminator"}
}

// edge compiles the CFG edge from→to: target index plus phi moves for
// to's leading phis, in phi order.
func (c *compiler) edge(from, to *ir.Block) *cedge {
	e := &cedge{target: c.blockIndex(to)}
	for _, ph := range to.Phis() {
		mv := phiMove{dst: -1}
		if s, ok := c.slotOfInstr(ph); ok {
			mv.dst = s
		}
		if incoming, ok := ph.PhiIncoming(from); ok {
			mv.src = c.operand(incoming)
		} else {
			mv.src = errOpd(fmt.Sprintf("phi %%%s has no incoming for %%%s", ph.Name(), from.Name()))
		}
		e.moves = append(e.moves, mv)
	}
	if len(e.moves) > c.p.maxMoves {
		c.p.maxMoves = len(e.moves)
	}
	return e
}

// operand compiles an IR operand, precomputing constants and resolving
// registers to slots. Error cases (undef under Freeze, unknown
// registers) compile to operands that fail when evaluated, preserving
// the interpreter's error timing for dead code.
func (c *compiler) operand(v ir.Value) opd {
	o := c.operandRaw(v)
	o.noUndef = c.opts.Mode == Freeze || (o.kind == opdConst && !o.hasUndef)
	return o
}

func (c *compiler) operandRaw(v ir.Value) opd {
	switch x := v.(type) {
	case *ir.Const:
		return opd{kind: opdConst, val: VC(x.Ty, x.Bits)}
	case *ir.Poison:
		return opd{kind: opdConst, val: VPoison(x.Ty)}
	case *ir.Undef:
		if c.opts.Mode == Freeze {
			return errOpd("undef under freeze semantics")
		}
		return opd{kind: opdConst, val: VUndef(x.Ty), hasUndef: true}
	case *ir.VecConst:
		lanes := make([]Scalar, len(x.Elems))
		hasUndef := false
		for i, e := range x.Elems {
			switch el := e.(type) {
			case *ir.Const:
				lanes[i] = C(el.Bits)
			case *ir.Poison:
				lanes[i] = PoisonScalar
			case *ir.Undef:
				if c.opts.Mode == Freeze {
					return errOpd("undef lane under freeze semantics")
				}
				lanes[i] = UndefScalar
				hasUndef = true
			}
		}
		return opd{kind: opdConst, val: Value{Ty: x.Ty, Lanes: lanes}, hasUndef: hasUndef}
	case *ir.Global:
		c.p.needsMem = true
		return opd{kind: opdGlobal, global: x}
	case *ir.Param:
		if s, ok := c.slotOfParam(x); ok {
			return opd{kind: opdSlot, slot: s, ident: x.Ident()}
		}
		return errOpd("read of unset register " + x.Ident())
	case *ir.Instr:
		if s, ok := c.slotOfInstr(x); ok {
			return opd{kind: opdSlot, slot: s, ident: x.Ident()}
		}
		return errOpd("read of unset register " + x.Ident())
	default:
		return errOpd("read of unset register " + v.Ident())
	}
}

// valStep wraps an instruction's evaluator with the result write.
func (c *compiler) valStep(in *ir.Instr, eval evalFn) stepFn {
	slot := int32(-1)
	if s, ok := c.slotOfInstr(in); ok {
		slot = s
	}
	return func(env *Env, fr *cframe) (int32, *Outcome) {
		v, out := eval(env, fr)
		if out != nil {
			return 0, out
		}
		if slot >= 0 {
			fr.regs[slot] = v
		}
		return -1, nil
	}
}

func (c *compiler) compileInstr(b *ir.Block, in *ir.Instr) stepFn {
	switch {
	case in.Op == ir.OpBr:
		if !in.IsConditionalBr() {
			e := c.edge(b, in.BlockArg(0))
			return e.take
		}
		cond := c.operand(in.Arg(0))
		bp := c.opts.BranchPoison
		e0 := c.edge(b, in.BlockArg(0))
		e1 := c.edge(b, in.BlockArg(1))
		return func(env *Env, fr *cframe) (int32, *Outcome) {
			cv, out := cond.eval(env, fr)
			if out != nil {
				return 0, out
			}
			s := cv.Scalar()
			switch s.Kind {
			case PoisonVal:
				if bp == BranchPoisonIsUB {
					return 0, ubOut("branch on poison")
				}
				s = C(env.Oracle.Choose(2))
			case UndefVal:
				s = C(env.Oracle.Choose(2))
			}
			if s.Bits != 0 {
				return e0.take(env, fr)
			}
			return e1.take(env, fr)
		}

	case in.Op == ir.OpRet:
		if in.NumArgs() == 0 {
			out := &Outcome{Kind: OutRet, Val: Value{Ty: ir.Void}}
			return func(*Env, *cframe) (int32, *Outcome) { return 0, out }
		}
		v := c.operand(in.Arg(0))
		return func(env *Env, fr *cframe) (int32, *Outcome) {
			rv, out := v.eval(env, fr)
			if out != nil {
				return 0, out
			}
			env.retOut = Outcome{Kind: OutRet, Val: rv}
			return 0, &env.retOut
		}

	case in.Op == ir.OpUnreachable:
		out := &Outcome{Kind: OutUB, Msg: "reached unreachable"}
		return func(*Env, *cframe) (int32, *Outcome) { return 0, out }

	case in.Op == ir.OpCall:
		args := make([]opd, in.NumArgs())
		for i := range args {
			args[i] = c.operand(in.Arg(i))
		}
		callee := compileInto(in.Callee, c.opts, c.linker)
		slot := int32(-1)
		if s, ok := c.slotOfInstr(in); ok {
			slot = s
		}
		return func(env *Env, fr *cframe) (int32, *Outcome) {
			if cap(env.callBuf) < len(args) {
				env.callBuf = make([]Value, len(args))
			}
			callArgs := env.callBuf[:len(args)]
			for i := range args {
				v, out := args[i].eval(env, fr)
				if out != nil {
					return 0, out
				}
				callArgs[i] = v
			}
			res := callee.invoke(env, callArgs)
			if res.Kind != OutRet {
				return 0, &res
			}
			if slot >= 0 {
				fr.regs[slot] = res.Val
			}
			return -1, nil
		}

	default:
		return c.valStep(in, c.compileEval(in))
	}
}

// compileEval closes over one non-control instruction's evaluator,
// mirroring Env.evalInstr case by case.
func (c *compiler) compileEval(in *ir.Instr) evalFn {
	mode := c.opts.Mode
	ty := in.Ty
	switch {
	case in.Op.IsBinop():
		x := c.operand(in.Arg(0))
		y := c.operand(in.Arg(1))
		op, attrs := in.Op, in.Attrs
		w := ty.ElemType().Bits
		return func(env *Env, fr *cframe) (Value, *Outcome) {
			xv, out := x.evalStrict(env, fr)
			if out != nil {
				return Value{}, out
			}
			yv, out := y.evalStrict(env, fr)
			if out != nil {
				return Value{}, out
			}
			lanes := env.newLanes(len(xv.Lanes))
			for i := range lanes {
				s, ub := EvalBinopLane(op, attrs, w, xv.Lanes[i], yv.Lanes[i], mode)
				if ub != "" {
					return Value{}, ubOut(ub)
				}
				lanes[i] = s
			}
			return Value{Ty: ty, Lanes: lanes}, nil
		}

	case in.Op == ir.OpICmp:
		x := c.operand(in.Arg(0))
		y := c.operand(in.Arg(1))
		pred := in.Pred
		w := in.Arg(0).Type().ElemType().Bits
		return func(env *Env, fr *cframe) (Value, *Outcome) {
			xv, out := x.evalStrict(env, fr)
			if out != nil {
				return Value{}, out
			}
			yv, out := y.evalStrict(env, fr)
			if out != nil {
				return Value{}, out
			}
			lanes := env.newLanes(len(xv.Lanes))
			for i := range lanes {
				lanes[i] = EvalICmpLane(pred, w, xv.Lanes[i], yv.Lanes[i])
			}
			return Value{Ty: ty, Lanes: lanes}, nil
		}

	case in.Op == ir.OpSelect:
		return c.compileSelect(in)

	case in.Op == ir.OpFreeze:
		x := c.operand(in.Arg(0))
		w := ty.ElemType().Bits
		return func(env *Env, fr *cframe) (Value, *Outcome) {
			xv, out := x.eval(env, fr)
			if out != nil {
				return Value{}, out
			}
			lanes := env.newLanes(len(xv.Lanes))
			for i, l := range xv.Lanes {
				lanes[i] = FreezeLane(l, w, env.Oracle)
			}
			return Value{Ty: ty, Lanes: lanes}, nil
		}

	case in.Op == ir.OpAlloca:
		c.p.needsMem = true
		cntOp := in.Arg(0)
		elemSize := uint64(SizeOfType(in.AllocTy))
		return func(env *Env, fr *cframe) (Value, *Outcome) {
			cnt := cntOp.(*ir.Const).Bits
			size := elemSize * cnt
			if size > 1<<24 {
				return Value{}, &Outcome{Kind: OutError, Msg: "alloca too large"}
			}
			addr, err := env.Mem.Allocate(uint32(size), env.Opts.Mode)
			if err != nil {
				return Value{}, &Outcome{Kind: OutError, Msg: err.Error()}
			}
			return VC(ir.Ptr, uint64(addr)), nil
		}

	case in.Op == ir.OpLoad:
		c.p.needsMem = true
		ptr := c.operand(in.Arg(0))
		sz := ty.Bitwidth()
		return func(env *Env, fr *cframe) (Value, *Outcome) {
			p, out := ptr.evalStrict(env, fr)
			if out != nil {
				return Value{}, out
			}
			ps := p.Scalar()
			if ps.Kind == PoisonVal {
				return Value{}, ubOut("load from poison address")
			}
			bits, err := env.Mem.Load(uint32(ps.Bits), sz)
			if err != nil {
				return Value{}, ubOut(err.Error())
			}
			return Raise(ty, bits, env.Oracle), nil
		}

	case in.Op == ir.OpStore:
		c.p.needsMem = true
		val := c.operand(in.Arg(0))
		ptr := c.operand(in.Arg(1))
		return func(env *Env, fr *cframe) (Value, *Outcome) {
			v, out := val.eval(env, fr)
			if out != nil {
				return Value{}, out
			}
			p, out := ptr.evalStrict(env, fr)
			if out != nil {
				return Value{}, out
			}
			ps := p.Scalar()
			if ps.Kind == PoisonVal {
				return Value{}, ubOut("store to poison address")
			}
			if err := env.Mem.Store(uint32(ps.Bits), Lower(v)); err != nil {
				return Value{}, ubOut(err.Error())
			}
			return Value{Ty: ir.Void}, nil
		}

	case in.Op == ir.OpGEP:
		c.p.needsMem = true
		base := c.operand(in.Arg(0))
		idx := c.operand(in.Arg(1))
		attrs := in.Attrs
		idxW := in.Arg(1).Type().Bits
		elemSize := SizeOfType(in.AllocTy)
		return func(env *Env, fr *cframe) (Value, *Outcome) {
			bv, out := base.evalStrict(env, fr)
			if out != nil {
				return Value{}, out
			}
			iv, out := idx.evalStrict(env, fr)
			if out != nil {
				return Value{}, out
			}
			lanes := env.newLanes(1)
			lanes[0] = EvalGEP(attrs, bv.Scalar(), iv.Scalar(), idxW, elemSize)
			return Value{Ty: ir.Ptr, Lanes: lanes}, nil
		}

	case in.Op == ir.OpZExt, in.Op == ir.OpSExt, in.Op == ir.OpTrunc:
		x := c.operand(in.Arg(0))
		op := in.Op
		fromW := in.Arg(0).Type().ElemType().Bits
		toW := ty.ElemType().Bits
		return func(env *Env, fr *cframe) (Value, *Outcome) {
			xv, out := x.evalStrict(env, fr)
			if out != nil {
				return Value{}, out
			}
			lanes := env.newLanes(len(xv.Lanes))
			for i, l := range xv.Lanes {
				lanes[i] = EvalCastLane(op, fromW, toW, l)
			}
			return Value{Ty: ty, Lanes: lanes}, nil
		}

	case in.Op == ir.OpBitcast:
		x := c.operand(in.Arg(0))
		return func(env *Env, fr *cframe) (Value, *Outcome) {
			xv, out := x.eval(env, fr)
			if out != nil {
				return Value{}, out
			}
			return Raise(ty, Lower(xv), env.Oracle), nil
		}

	case in.Op == ir.OpExtractElement:
		vec := c.operand(in.Arg(0))
		idx := c.operand(in.Arg(1))
		return func(env *Env, fr *cframe) (Value, *Outcome) {
			vv, out := vec.eval(env, fr)
			if out != nil {
				return Value{}, out
			}
			iv, out := idx.evalStrict(env, fr)
			if out != nil {
				return Value{}, out
			}
			is := iv.Scalar()
			if is.Kind == PoisonVal || is.Bits >= uint64(len(vv.Lanes)) {
				return VPoison(ty), nil
			}
			lanes := env.newLanes(1)
			lanes[0] = vv.Lanes[is.Bits]
			return Value{Ty: ty, Lanes: lanes}, nil
		}

	case in.Op == ir.OpInsertElement:
		vec := c.operand(in.Arg(0))
		sc := c.operand(in.Arg(1))
		idx := c.operand(in.Arg(2))
		return func(env *Env, fr *cframe) (Value, *Outcome) {
			vv, out := vec.eval(env, fr)
			if out != nil {
				return Value{}, out
			}
			sv, out := sc.eval(env, fr)
			if out != nil {
				return Value{}, out
			}
			iv, out := idx.evalStrict(env, fr)
			if out != nil {
				return Value{}, out
			}
			is := iv.Scalar()
			if is.Kind == PoisonVal || is.Bits >= uint64(len(vv.Lanes)) {
				return VPoison(ty), nil
			}
			lanes := env.newLanes(len(vv.Lanes))
			copy(lanes, vv.Lanes)
			lanes[is.Bits] = sv.Scalar()
			return Value{Ty: ty, Lanes: lanes}, nil
		}
	}
	out := &Outcome{Kind: OutError, Msg: "unhandled opcode " + in.Op.String()}
	return func(*Env, *cframe) (Value, *Outcome) { return Value{}, out }
}

func (c *compiler) compileSelect(in *ir.Instr) evalFn {
	cond := c.operand(in.Arg(0))
	x := c.operand(in.Arg(1))
	y := c.operand(in.Arg(2))
	spc := c.opts.SelectPoisonCond
	armEither := c.opts.SelectArmPoisonEither
	ty := in.Ty
	condIsVec := in.Arg(0).Type().IsVec()

	if !condIsVec {
		return func(env *Env, fr *cframe) (Value, *Outcome) {
			cv, out := cond.eval(env, fr)
			if out != nil {
				return Value{}, out
			}
			xv, out := x.eval(env, fr)
			if out != nil {
				return Value{}, out
			}
			yv, out := y.eval(env, fr)
			if out != nil {
				return Value{}, out
			}
			s := cv.Scalar()
			switch s.Kind {
			case PoisonVal:
				switch spc {
				case SelectPoisonCondUB:
					return Value{}, ubOut("select on poison condition")
				case SelectPoisonCondNondet:
					s = C(env.Oracle.Choose(2))
				default:
					return VPoison(ty), nil
				}
			case UndefVal:
				s = C(env.Oracle.Choose(2))
			}
			if armEither && (xv.AnyPoison() || yv.AnyPoison()) {
				return VPoison(ty), nil
			}
			if s.Bits != 0 {
				return xv, nil
			}
			return yv, nil
		}
	}

	return func(env *Env, fr *cframe) (Value, *Outcome) {
		cv, out := cond.eval(env, fr)
		if out != nil {
			return Value{}, out
		}
		xv, out := x.eval(env, fr)
		if out != nil {
			return Value{}, out
		}
		yv, out := y.eval(env, fr)
		if out != nil {
			return Value{}, out
		}
		lanes := env.newLanes(len(cv.Lanes))
		for i, cl := range cv.Lanes {
			switch cl.Kind {
			case PoisonVal:
				switch spc {
				case SelectPoisonCondUB:
					return Value{}, ubOut("select on poison condition")
				case SelectPoisonCondNondet:
					cl = C(env.Oracle.Choose(2))
				default:
					lanes[i] = PoisonScalar
					continue
				}
			case UndefVal:
				cl = C(env.Oracle.Choose(2))
			}
			xi, yi := xv.Lanes[i], yv.Lanes[i]
			if armEither && (xi.Kind == PoisonVal || yi.Kind == PoisonVal) {
				lanes[i] = PoisonScalar
				continue
			}
			if cl.Bits != 0 {
				lanes[i] = xi
			} else {
				lanes[i] = yi
			}
		}
		return Value{Ty: ty, Lanes: lanes}, nil
	}
}

// invoke runs one activation of the program on an env whose memory,
// globals, oracle and fuel are already set up. It mirrors Env.call's
// depth accounting.
func (p *Program) invoke(env *Env, args []Value) Outcome {
	if env.depth >= env.Opts.MaxCallDepth {
		return Outcome{Kind: OutTimeout, Msg: "call depth exceeded"}
	}
	env.depth++
	fr, _ := p.framePool.Get().(*cframe)
	if fr == nil {
		fr = p.newFrame()
		env.Metrics.FramesAllocated++
	} else {
		env.Metrics.FramesPooled++
	}
	out := p.execFrame(env, fr, args)
	clear(fr.regs)
	p.framePool.Put(fr)
	env.depth--
	env.cyc.Return(env.depth)
	return out
}

// execFrame is the dispatch loop: fuel is charged per step exactly as
// the interpreter charges it per non-phi instruction. Every backward
// jump goes to the env's cycle detector, which ends a run that provably
// never terminates with the timeout the fuel limit would give it. In
// the entry activation, whose frame is then the whole state, every
// step boundary after a new oracle choice goes to the env's merging
// handle, which ends the run at a state an earlier path reached.
func (p *Program) execFrame(env *Env, fr *cframe, args []Value) Outcome {
	regs := fr.regs
	for i := range p.fn.Params {
		regs[i] = args[i]
	}
	top := env.depth == 1
	bi := int32(0)
	for {
		b := &p.blocks[bi]
		if b.preErr != nil {
			return *b.preErr
		}
		jumped := false
		for j, step := range b.steps {
			if top && env.mrg.Due() && env.mrg.visitFrame(bi, int32(j), env.fuel, regs) {
				return env.mrg.Exit(&env.Metrics)
			}
			if env.fuel <= 0 {
				env.Metrics.FuelExits++
				return Outcome{Kind: OutTimeout}
			}
			env.fuel--
			env.Steps++
			next, out := step(env, fr)
			if out != nil {
				return *out
			}
			if next >= 0 {
				if next <= bi && env.cyc.Repeats(env.Oracle, env.depth, next, regs) {
					return env.cyc.Exit(&env.fuel, &env.Metrics)
				}
				bi = next
				jumped = true
				break
			}
		}
		if !jumped {
			return *b.fallErr
		}
	}
}

// checkArgs mirrors Env.Run's arity and type validation.
func (p *Program) checkArgs(args []Value) *Outcome {
	if len(args) != len(p.fn.Params) {
		return &Outcome{Kind: OutError, Msg: fmt.Sprintf("arity: got %d args, want %d", len(args), len(p.fn.Params))}
	}
	for i, a := range args {
		if !a.Ty.Equal(p.fn.Params[i].Ty) {
			return &Outcome{Kind: OutError, Msg: fmt.Sprintf("arg %d type %s, want %s", i, a.Ty, p.fn.Params[i].Ty)}
		}
	}
	return nil
}

// Executor is the run-many handle for a Program: it owns a reusable
// environment (memory included) so back-to-back runs allocate nothing
// on the fast path. Each Run is a fresh execution — fuel, step count,
// memory and globals are reset — matching what Interpret's
// env-per-call gives the interpreter. An Executor is not safe for
// concurrent use; create one per goroutine (Programs and their frame
// pools are shared safely).
type Executor struct {
	prog *Program
	env  Env
	// fr is the dedicated depth-0 frame: the executor is single-
	// goroutine, so the entry activation can skip the shared frame
	// pool entirely (inner calls still use it).
	fr *cframe
}

// NewExecutor returns an executor for p.
func NewExecutor(p *Program) *Executor {
	e := &Executor{prog: p}
	e.env.Mod = p.fn.Parent()
	e.env.Opts = p.opts
	return e
}

// Run executes the program on args, resolving nondeterminism through o.
// The outcome's lanes are valid until the executor's next Run: callers
// that keep a value across runs copy it, and a behaviour sweep consumes
// it in place without allocating per execution.
func (e *Executor) Run(args []Value, o Oracle) Outcome {
	p := e.prog
	if out := p.checkArgs(args); out != nil {
		return *out
	}
	env := &e.env
	env.Oracle = o
	exact := !p.needsMem
	env.cyc.Arm(o, exact)
	env.mrg.Arm(o, exact, p)
	env.fuel = p.opts.Fuel
	env.depth = 0
	env.Steps = 0
	env.arena = env.arena[:0]
	if p.needsMem {
		if env.Mem == nil {
			env.Mem = NewMemory()
		} else {
			env.Mem.Reset()
		}
		// Globals are reallocated in module order from a reset bump
		// allocator, so their addresses are identical on every run (and
		// identical to a fresh NewEnv's).
		if err := env.initGlobals(); err != nil {
			return Outcome{Kind: OutError, Msg: err.Error()}
		}
	}
	if env.depth >= env.Opts.MaxCallDepth {
		return Outcome{Kind: OutTimeout, Msg: "call depth exceeded"}
	}
	env.depth++
	if e.fr == nil {
		e.fr = p.newFrame()
		env.Metrics.FramesAllocated++
	}
	out := p.execFrame(env, e.fr, args)
	clear(e.fr.regs)
	env.depth--
	env.Metrics.Execs++
	env.Metrics.ClosureExecs++
	env.Metrics.Steps += uint64(env.Steps)
	return out
}

// Metrics exposes the executor's accumulated engine counters; callers
// that publish telemetry read (and may reset) them between campaigns.
func (e *Executor) Metrics() *EngineMetrics { return &e.env.Metrics }
