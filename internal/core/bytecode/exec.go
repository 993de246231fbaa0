package bytecode

import (
	"fmt"

	"tameir/internal/core"
	"tameir/internal/ir"
)

// kindUnset marks an unwritten scalar slot. ScalarKind only uses
// 0/1/2, so 0xff is free as a frame sentinel; the closure engine's
// equivalent is a Value with nil Lanes.
const kindUnset = core.ScalarKind(0xff)

// frame is one activation record: a statically typed register file,
// scalars and vectors in separate planes.
type frame struct {
	s []core.Scalar
	v []core.Value
}

func newFrame(p *fnProg) *frame {
	fr := &frame{s: make([]core.Scalar, p.nS), v: make([]core.Value, p.nV)}
	fr.reset()
	return fr
}

func (fr *frame) reset() {
	for i := range fr.s {
		fr.s[i] = core.Scalar{Kind: kindUnset}
	}
	clear(fr.v)
}

// Runner executes one Prog on behalf of one executor: the bytecode
// mirror of core.Executor's run state. Not safe for concurrent use.
type Runner struct {
	p    *Prog
	opts core.Options
	src  *core.Program // the executor's program, for liveness

	o     core.Oracle
	m     *core.EngineMetrics
	fuel  int
	steps int
	depth int

	mem        *core.Memory
	globalAddr map[*ir.Global]uint32

	// arena is the per-execution lane allocator for the generic path
	// (same contract as Env.newLanes: carvings live until Run returns).
	arena   []core.Scalar
	callBuf []core.Value

	// phi-move scratch: all sources are read before any destination is
	// written. An edge take never nests (no calls inside), so one
	// buffer pair per runner serves every edge at every depth.
	phiS []core.Scalar
	phiV []core.Value

	rootFr *frame
	free   map[*fnProg][]*frame

	// cyc is the divergence detector the closure engine uses too. It
	// sees the same backward jumps, so both tiers exit at the same step.
	// mrg is the merging handle; it sees the same instruction
	// boundaries the closure engine checks, so both tiers merge at the
	// same steps.
	cyc core.Cycles
	mrg core.Merges
}

// Run implements core.TierRunner, mirroring core.Executor.Run step for
// step: same validation order, same reset semantics, same metrics, and
// outgoing lanes that may live in the arena until the next Run.
func (r *Runner) Run(args []core.Value, o core.Oracle, m *core.EngineMetrics) core.Outcome {
	p := r.p.root
	if out := checkArgs(p.params, args); out != nil {
		return *out
	}
	r.o = o
	r.m = m
	r.opts = r.p.opts
	exact := !r.p.needsMem && !r.opts.EmitTrace
	r.cyc.Arm(o, exact)
	r.mrg.Arm(o, exact, r.src)
	r.fuel = r.p.opts.Fuel
	r.depth = 0
	r.steps = 0
	r.arena = r.arena[:0]
	if r.p.needsMem {
		if r.mem == nil {
			r.mem = core.NewMemory()
		} else {
			r.mem.Reset()
		}
		if err := r.initGlobals(); err != nil {
			return core.Outcome{Kind: core.OutError, Msg: err.Error()}
		}
	}
	if r.depth >= r.opts.MaxCallDepth {
		return core.Outcome{Kind: core.OutTimeout, Msg: "call depth exceeded"}
	}
	r.depth++
	if r.rootFr == nil {
		r.rootFr = newFrame(p)
		m.FramesAllocated++
	}
	out := r.exec(p, r.rootFr, args)
	r.rootFr.reset()
	r.depth--
	m.Execs++
	m.BytecodeExecs++
	m.Steps += uint64(r.steps)
	return out
}

func checkArgs(params []pslot, args []core.Value) *core.Outcome {
	if len(args) != len(params) {
		return &core.Outcome{Kind: core.OutError, Msg: fmt.Sprintf("arity: got %d args, want %d", len(args), len(params))}
	}
	for i, a := range args {
		if !a.Ty.Equal(params[i].ty) {
			return &core.Outcome{Kind: core.OutError, Msg: fmt.Sprintf("arg %d type %s, want %s", i, a.Ty, params[i].ty)}
		}
	}
	return nil
}

// initGlobals allocates the module's globals in module order from the
// reset bump allocator, so addresses match every engine on every run.
func (r *Runner) initGlobals() error {
	mod := r.p.mod
	if mod == nil {
		return nil
	}
	if r.globalAddr == nil {
		r.globalAddr = make(map[*ir.Global]uint32, len(mod.Globals))
	}
	for _, g := range mod.Globals {
		addr, err := r.mem.Allocate(g.Size, r.opts.Mode)
		if err != nil {
			return err
		}
		if len(g.Init) > 0 {
			if err := r.mem.StoreBytes(addr, g.Init); err != nil {
				return err
			}
		}
		r.globalAddr[g] = addr
	}
	return nil
}

// newLanes carves n lanes from the run arena (Env.newLanes's twin).
func (r *Runner) newLanes(n int) []core.Scalar {
	if cap(r.arena)-len(r.arena) < n {
		c := 2 * cap(r.arena)
		if c < 32 {
			c = 32
		}
		if c > 1<<16 {
			c = 1 << 16
		}
		for c < n {
			c *= 2
		}
		r.arena = make([]core.Scalar, 0, c)
	}
	m := len(r.arena)
	r.arena = r.arena[:m+n]
	return r.arena[m : m+n : m+n]
}

// invoke runs one inner-call activation, mirroring Program.invoke.
func (r *Runner) invoke(p *fnProg, args []core.Value) core.Outcome {
	if r.depth >= r.opts.MaxCallDepth {
		return core.Outcome{Kind: core.OutTimeout, Msg: "call depth exceeded"}
	}
	r.depth++
	var fr *frame
	if fl := r.free[p]; len(fl) > 0 {
		fr = fl[len(fl)-1]
		r.free[p] = fl[:len(fl)-1]
		r.m.FramesPooled++
	} else {
		fr = newFrame(p)
		r.m.FramesAllocated++
	}
	out := r.exec(p, fr, args)
	fr.reset()
	if r.free == nil {
		r.free = map[*fnProg][]*frame{}
	}
	r.free[p] = append(r.free[p], fr)
	r.depth--
	r.cyc.Return(r.depth)
	return out
}

func ubOut(msg string) *core.Outcome { return &core.Outcome{Kind: core.OutUB, Msg: msg} }

var timeoutOut = core.Outcome{Kind: core.OutTimeout}

// outOfFuel ends an execution at the fuel limit.
func (r *Runner) outOfFuel() core.Outcome {
	r.m.FuelExits++
	return timeoutOut
}

// exec is the dispatch loop over the dense instruction stream. Fuel is
// charged per original IR instruction exactly as the other engines
// charge it: one unit checked-then-charged per step, none for phi
// moves or pre/fall errors; fused bodies charge in bulk when covered
// and refund the unexecuted tail on abort. Backward jumps (to a pc at
// or before the branch) go to the cycle detector, as in the closure
// engine. In the entry activation, every instruction boundary after a
// new oracle choice — before each dispatch op and between the µops of
// a fused body — goes to the merging handle, as every step boundary
// does in the closure engine.
func (r *Runner) exec(p *fnProg, fr *frame, args []core.Value) core.Outcome {
	for i, ps := range p.params {
		if ps.vec {
			fr.v[ps.slot] = args[i]
		} else {
			fr.s[ps.slot] = args[i].Scalar()
		}
	}
	top := r.depth == 1
	code := p.code
	pc := int32(0)
	for {
		ins := code[pc]
		op := ins & 0xff
		a := int(uint16(ins >> 8))
		if op == opFail {
			return p.outs[a]
		}
		if top && r.mrg.Due() && r.mrg.Bytecode(pc, 0, int(p.ords[pc]), r.fuel, p.planes, fr.s, fr.v) {
			return r.mrg.Exit(r.m)
		}
		if op != opFuse {
			if r.fuel <= 0 {
				return r.outOfFuel()
			}
			r.fuel--
			r.steps++
		}
		switch op {
		case opFuse:
			body := &p.fused[a]
			n := body.fuel
			if r.fuel >= n {
				// Bulk charge; refund what an abort leaves unexecuted
				// so the timeout point and Steps match the closure
				// engine's per-instruction accounting.
				r.fuel -= n
				r.steps += n
				for i := range body.uops {
					if i > 0 && top && r.mrg.Due() {
						unrun := n - i
						if r.mrg.Bytecode(pc, int32(i), int(p.ords[pc])+i, r.fuel+unrun, p.planes, fr.s, fr.v) {
							r.steps -= unrun
							return r.mrg.Exit(r.m)
						}
					}
					if out := r.stepUop(p, fr, &body.uops[i]); out != nil {
						unrun := n - (i + 1)
						r.fuel += unrun
						r.steps -= unrun
						return *out
					}
				}
			} else {
				for i := range body.uops {
					if i > 0 && top && r.mrg.Due() && r.mrg.Bytecode(pc, int32(i), int(p.ords[pc])+i, r.fuel, p.planes, fr.s, fr.v) {
						return r.mrg.Exit(r.m)
					}
					if r.fuel <= 0 {
						return r.outOfFuel()
					}
					r.fuel--
					r.steps++
					if out := r.stepUop(p, fr, &body.uops[i]); out != nil {
						return *out
					}
				}
			}
			pc++

		case opGen:
			if out := r.stepGop(p, fr, &p.gops[a]); out != nil {
				return *out
			}
			pc++

		case opBr:
			tgt, out := r.takeEdge(p, fr, &p.edges[a])
			if out != nil {
				return *out
			}
			if tgt <= pc && r.cyc.Repeats(r.o, r.depth, tgt, fr.s, fr.v) {
				return r.cyc.Exit(&r.fuel, r.m)
			}
			pc = tgt

		case opCondBr:
			s, out := r.evalScalar(p, fr, &p.opds[a])
			if out != nil {
				return *out
			}
			switch s.Kind {
			case core.PoisonVal:
				if r.opts.BranchPoison == core.BranchPoisonIsUB {
					return *ubOut("branch on poison")
				}
				s = core.C(r.o.Choose(2))
			case core.UndefVal:
				s = core.C(r.o.Choose(2))
			}
			ei := int(uint16(ins >> 24))
			if s.Bits == 0 {
				ei = int(uint16(ins >> 40))
			}
			tgt, out := r.takeEdge(p, fr, &p.edges[ei])
			if out != nil {
				return *out
			}
			if tgt <= pc && r.cyc.Repeats(r.o, r.depth, tgt, fr.s, fr.v) {
				return r.cyc.Exit(&r.fuel, r.m)
			}
			pc = tgt

		case opRet:
			v, out := r.evalValue(p, fr, &p.opds[a])
			if out != nil {
				return *out
			}
			return core.Outcome{Kind: core.OutRet, Val: v}

		case opRetVoid:
			return core.Outcome{Kind: core.OutRet, Val: core.Value{Ty: ir.Void}}

		case opUnreach:
			return core.Outcome{Kind: core.OutUB, Msg: "reached unreachable"}

		default: // opErrStep
			return p.outs[a]
		}
	}
}

// takeEdge performs the edge's simultaneous phi assignment (all
// sources read before any destination is written) and returns the
// target pc.
func (r *Runner) takeEdge(p *fnProg, fr *frame, e *bedge) (int32, *core.Outcome) {
	if len(e.moves) == 0 {
		return e.target, nil
	}
	if len(r.phiS) < len(e.moves) {
		r.phiS = make([]core.Scalar, len(e.moves))
		r.phiV = make([]core.Value, len(e.moves))
	}
	for i := range e.moves {
		mv := &e.moves[i]
		if mv.vec {
			v, out := r.evalValue(p, fr, &mv.src)
			if out != nil {
				return 0, out
			}
			r.phiV[i] = v
		} else {
			s, out := r.evalScalar(p, fr, &mv.src)
			if out != nil {
				return 0, out
			}
			r.phiS[i] = s
		}
	}
	for i := range e.moves {
		mv := &e.moves[i]
		if mv.dst < 0 {
			continue
		}
		if mv.vec {
			fr.v[mv.dst] = r.phiV[i]
		} else {
			fr.s[mv.dst] = r.phiS[i]
		}
	}
	return e.target, nil
}

// evalScalar is the plain (no undef resolution) evaluation of a
// generic operand known to be scalar-typed; the gcSlotV arm only fires
// on malformed IR and falls back to the full value path.
func (r *Runner) evalScalar(p *fnProg, fr *frame, g *gopd) (core.Scalar, *core.Outcome) {
	switch g.kind {
	case gcConst:
		return g.val.Scalar(), nil
	case gcSlotS:
		s := fr.s[g.slot]
		if s.Kind == kindUnset {
			return core.Scalar{}, &core.Outcome{Kind: core.OutError, Msg: "read of unset register " + g.ident}
		}
		return s, nil
	case gcGlobal:
		addr, ok := r.globalAddr[g.global]
		if !ok {
			return core.Scalar{}, &core.Outcome{Kind: core.OutError, Msg: "unmapped global @" + g.global.Name()}
		}
		return core.C(uint64(addr)), nil
	case gcSlotV:
		v, out := r.evalValue(p, fr, g)
		if out != nil {
			return core.Scalar{}, out
		}
		return v.Scalar(), nil
	default:
		return core.Scalar{}, &core.Outcome{Kind: core.OutError, Msg: g.errMsg}
	}
}

// evalValue mirrors opd.eval: ⟦op⟧R without undef resolution.
func (r *Runner) evalValue(p *fnProg, fr *frame, g *gopd) (core.Value, *core.Outcome) {
	switch g.kind {
	case gcConst:
		return g.val, nil
	case gcSlotS:
		s := fr.s[g.slot]
		if s.Kind == kindUnset {
			return core.Value{}, &core.Outcome{Kind: core.OutError, Msg: "read of unset register " + g.ident}
		}
		lanes := r.newLanes(1)
		lanes[0] = s
		return core.Value{Ty: g.ty, Lanes: lanes}, nil
	case gcSlotV:
		v := fr.v[g.slot]
		if v.Lanes == nil {
			return core.Value{}, &core.Outcome{Kind: core.OutError, Msg: "read of unset register " + g.ident}
		}
		return v, nil
	case gcGlobal:
		addr, ok := r.globalAddr[g.global]
		if !ok {
			return core.Value{}, &core.Outcome{Kind: core.OutError, Msg: "unmapped global @" + g.global.Name()}
		}
		return core.VC(ir.Ptr, uint64(addr)), nil
	default:
		return core.Value{}, &core.Outcome{Kind: core.OutError, Msg: g.errMsg}
	}
}

// evalStrict additionally resolves undef lanes per use through the
// oracle, in lane order — the same draws opd.evalStrict makes, into
// lanes carved from the run arena.
func (r *Runner) evalStrict(p *fnProg, fr *frame, g *gopd) (core.Value, *core.Outcome) {
	v, out := r.evalValue(p, fr, g)
	if out != nil {
		return v, out
	}
	for i := range v.Lanes {
		if v.Lanes[i].Kind == core.UndefVal {
			w := v.Ty.ElemType().Bits
			lanes := r.newLanes(len(v.Lanes))
			for j, l := range v.Lanes {
				lanes[j] = core.ResolveLane(l, w, r.o)
			}
			return core.Value{Ty: v.Ty, Lanes: lanes}, nil
		}
	}
	return v, nil
}

// sread is the fused path's plain scalar read: consts from the intern
// table, slots from the scalar plane.
func (r *Runner) sread(p *fnProg, fr *frame, ref int32) (core.Scalar, *core.Outcome) {
	if ref < 0 {
		return p.sconsts[^ref], nil
	}
	s := fr.s[ref]
	if s.Kind == kindUnset {
		return core.Scalar{}, &core.Outcome{Kind: core.OutError, Msg: "read of unset register " + p.slotIdent[ref]}
	}
	return s, nil
}

// sreadStrict resolves an undef read at width w (ResolveLane draws
// from the oracle only for undef, so the draw sequence matches the
// closure engine's strict reads exactly).
func (r *Runner) sreadStrict(p *fnProg, fr *frame, ref int32, w uint) (core.Scalar, *core.Outcome) {
	s, out := r.sread(p, fr, ref)
	if out != nil {
		return s, out
	}
	if s.Kind == core.UndefVal {
		return core.ResolveLane(s, w, r.o), nil
	}
	return s, nil
}

// stepUop executes one fused µop. nil means the µop completed and
// wrote its slot.
func (r *Runner) stepUop(p *fnProg, fr *frame, u *uop) *core.Outcome {
	switch u.kind {
	case uMovC:
		fr.s[u.dst] = p.sconsts[^u.a]
		return nil

	case uBin:
		x, out := r.sreadStrict(p, fr, u.a, u.w)
		if out != nil {
			return out
		}
		y, out := r.sreadStrict(p, fr, u.b, u.w)
		if out != nil {
			return out
		}
		s, ub := core.EvalBinopLane(u.op, u.attrs, u.w, x, y, r.opts.Mode)
		if ub != "" {
			return ubOut(ub)
		}
		fr.s[u.dst] = s
		return nil

	case uICmp:
		x, out := r.sreadStrict(p, fr, u.a, u.w)
		if out != nil {
			return out
		}
		y, out := r.sreadStrict(p, fr, u.b, u.w)
		if out != nil {
			return out
		}
		fr.s[u.dst] = core.EvalICmpLane(u.pred, u.w, x, y)
		return nil

	case uCast:
		x, out := r.sreadStrict(p, fr, u.a, u.w)
		if out != nil {
			return out
		}
		fr.s[u.dst] = core.EvalCastLane(u.op, u.w, u.toW, x)
		return nil

	case uFreeze:
		x, out := r.sread(p, fr, u.a)
		if out != nil {
			return out
		}
		fr.s[u.dst] = core.FreezeLane(x, u.w, r.o)
		return nil

	default: // uSel
		c, out := r.sread(p, fr, u.a)
		if out != nil {
			return out
		}
		x, out := r.sread(p, fr, u.b)
		if out != nil {
			return out
		}
		y, out := r.sread(p, fr, u.c)
		if out != nil {
			return out
		}
		switch c.Kind {
		case core.PoisonVal:
			switch r.opts.SelectPoisonCond {
			case core.SelectPoisonCondUB:
				return ubOut("select on poison condition")
			case core.SelectPoisonCondNondet:
				c = core.C(r.o.Choose(2))
			default:
				fr.s[u.dst] = core.PoisonScalar
				return nil
			}
		case core.UndefVal:
			c = core.C(r.o.Choose(2))
		}
		if r.opts.SelectArmPoisonEither && (x.Kind == core.PoisonVal || y.Kind == core.PoisonVal) {
			fr.s[u.dst] = core.PoisonScalar
			return nil
		}
		if c.Bits != 0 {
			fr.s[u.dst] = x
		} else {
			fr.s[u.dst] = y
		}
		return nil
	}
}

// writeDst stores a generic op's result into its statically typed
// plane.
func (fr *frame) writeDst(g *gop, v core.Value) {
	if g.dst < 0 {
		return
	}
	if g.dstVec {
		fr.v[g.dst] = v
	} else {
		fr.s[g.dst] = v.Scalar()
	}
}

// stepGop executes one generic op, mirroring the closure engine's
// compiled evaluators case by case (same evaluation order, same oracle
// draws, same messages).
func (r *Runner) stepGop(p *fnProg, fr *frame, g *gop) *core.Outcome {
	switch g.kind {
	case gBin:
		x, out := r.evalStrict(p, fr, &g.args[0])
		if out != nil {
			return out
		}
		y, out := r.evalStrict(p, fr, &g.args[1])
		if out != nil {
			return out
		}
		lanes := r.newLanes(len(x.Lanes))
		for i := range lanes {
			s, ub := core.EvalBinopLane(g.op, g.attrs, g.w, x.Lanes[i], y.Lanes[i], r.opts.Mode)
			if ub != "" {
				return ubOut(ub)
			}
			lanes[i] = s
		}
		fr.writeDst(g, core.Value{Ty: g.ty, Lanes: lanes})
		return nil

	case gICmp:
		x, out := r.evalStrict(p, fr, &g.args[0])
		if out != nil {
			return out
		}
		y, out := r.evalStrict(p, fr, &g.args[1])
		if out != nil {
			return out
		}
		lanes := r.newLanes(len(x.Lanes))
		for i := range lanes {
			lanes[i] = core.EvalICmpLane(g.pred, g.w, x.Lanes[i], y.Lanes[i])
		}
		fr.writeDst(g, core.Value{Ty: g.ty, Lanes: lanes})
		return nil

	case gSelect:
		return r.stepSelect(p, fr, g)

	case gFreeze:
		x, out := r.evalValue(p, fr, &g.args[0])
		if out != nil {
			return out
		}
		lanes := r.newLanes(len(x.Lanes))
		for i, l := range x.Lanes {
			lanes[i] = core.FreezeLane(l, g.w, r.o)
		}
		fr.writeDst(g, core.Value{Ty: g.ty, Lanes: lanes})
		return nil

	case gAlloca:
		size := uint64(g.elemSize) * g.cnt
		if size > 1<<24 {
			return &core.Outcome{Kind: core.OutError, Msg: "alloca too large"}
		}
		addr, err := r.mem.Allocate(uint32(size), r.opts.Mode)
		if err != nil {
			return &core.Outcome{Kind: core.OutError, Msg: err.Error()}
		}
		fr.writeDst(g, core.VC(ir.Ptr, uint64(addr)))
		return nil

	case gLoad:
		pv, out := r.evalStrict(p, fr, &g.args[0])
		if out != nil {
			return out
		}
		ps := pv.Scalar()
		if ps.Kind == core.PoisonVal {
			return ubOut("load from poison address")
		}
		bits, err := r.mem.Load(uint32(ps.Bits), g.szBits)
		if err != nil {
			return ubOut(err.Error())
		}
		fr.writeDst(g, core.Raise(g.ty, bits, r.o))
		return nil

	case gStore:
		v, out := r.evalValue(p, fr, &g.args[0])
		if out != nil {
			return out
		}
		pv, out := r.evalStrict(p, fr, &g.args[1])
		if out != nil {
			return out
		}
		ps := pv.Scalar()
		if ps.Kind == core.PoisonVal {
			return ubOut("store to poison address")
		}
		if err := r.mem.Store(uint32(ps.Bits), core.Lower(v)); err != nil {
			return ubOut(err.Error())
		}
		return nil

	case gGEP:
		base, out := r.evalStrict(p, fr, &g.args[0])
		if out != nil {
			return out
		}
		idx, out := r.evalStrict(p, fr, &g.args[1])
		if out != nil {
			return out
		}
		s := core.EvalGEP(g.attrs, base.Scalar(), idx.Scalar(), g.idxW, g.elemSize)
		lanes := r.newLanes(1)
		lanes[0] = s
		fr.writeDst(g, core.Value{Ty: ir.Ptr, Lanes: lanes})
		return nil

	case gCast:
		x, out := r.evalStrict(p, fr, &g.args[0])
		if out != nil {
			return out
		}
		lanes := r.newLanes(len(x.Lanes))
		for i, l := range x.Lanes {
			lanes[i] = core.EvalCastLane(g.op, g.w, g.toW, l)
		}
		fr.writeDst(g, core.Value{Ty: g.ty, Lanes: lanes})
		return nil

	case gBitcast:
		x, out := r.evalValue(p, fr, &g.args[0])
		if out != nil {
			return out
		}
		fr.writeDst(g, core.Raise(g.ty, core.Lower(x), r.o))
		return nil

	case gExtract:
		vv, out := r.evalValue(p, fr, &g.args[0])
		if out != nil {
			return out
		}
		iv, out := r.evalStrict(p, fr, &g.args[1])
		if out != nil {
			return out
		}
		is := iv.Scalar()
		if is.Kind == core.PoisonVal || is.Bits >= uint64(len(vv.Lanes)) {
			fr.writeDst(g, core.VPoison(g.ty))
			return nil
		}
		lanes := r.newLanes(1)
		lanes[0] = vv.Lanes[is.Bits]
		fr.writeDst(g, core.Value{Ty: g.ty, Lanes: lanes})
		return nil

	case gInsert:
		vv, out := r.evalValue(p, fr, &g.args[0])
		if out != nil {
			return out
		}
		sv, out := r.evalValue(p, fr, &g.args[1])
		if out != nil {
			return out
		}
		iv, out := r.evalStrict(p, fr, &g.args[2])
		if out != nil {
			return out
		}
		is := iv.Scalar()
		if is.Kind == core.PoisonVal || is.Bits >= uint64(len(vv.Lanes)) {
			fr.writeDst(g, core.VPoison(g.ty))
			return nil
		}
		lanes := r.newLanes(len(vv.Lanes))
		copy(lanes, vv.Lanes)
		lanes[is.Bits] = sv.Scalar()
		fr.writeDst(g, core.Value{Ty: g.ty, Lanes: lanes})
		return nil

	default: // gCall
		if cap(r.callBuf) < len(g.args) {
			r.callBuf = make([]core.Value, len(g.args))
		}
		callArgs := r.callBuf[:len(g.args)]
		for i := range g.args {
			v, out := r.evalValue(p, fr, &g.args[i])
			if out != nil {
				return out
			}
			callArgs[i] = v
		}
		res := r.invoke(g.callee, callArgs)
		if res.Kind != core.OutRet {
			return &res
		}
		fr.writeDst(g, res.Val)
		return nil
	}
}

// stepSelect mirrors the closure engine's compileSelect, scalar-cond
// and vector-cond paths included.
func (r *Runner) stepSelect(p *fnProg, fr *frame, g *gop) *core.Outcome {
	cv, out := r.evalValue(p, fr, &g.args[0])
	if out != nil {
		return out
	}
	xv, out := r.evalValue(p, fr, &g.args[1])
	if out != nil {
		return out
	}
	yv, out := r.evalValue(p, fr, &g.args[2])
	if out != nil {
		return out
	}
	if !cv.Ty.IsVec() {
		s := cv.Scalar()
		switch s.Kind {
		case core.PoisonVal:
			switch r.opts.SelectPoisonCond {
			case core.SelectPoisonCondUB:
				return ubOut("select on poison condition")
			case core.SelectPoisonCondNondet:
				s = core.C(r.o.Choose(2))
			default:
				fr.writeDst(g, core.VPoison(g.ty))
				return nil
			}
		case core.UndefVal:
			s = core.C(r.o.Choose(2))
		}
		if r.opts.SelectArmPoisonEither && (xv.AnyPoison() || yv.AnyPoison()) {
			fr.writeDst(g, core.VPoison(g.ty))
			return nil
		}
		if s.Bits != 0 {
			fr.writeDst(g, xv)
		} else {
			fr.writeDst(g, yv)
		}
		return nil
	}
	lanes := r.newLanes(len(cv.Lanes))
	for i, cl := range cv.Lanes {
		switch cl.Kind {
		case core.PoisonVal:
			switch r.opts.SelectPoisonCond {
			case core.SelectPoisonCondUB:
				return ubOut("select on poison condition")
			case core.SelectPoisonCondNondet:
				cl = core.C(r.o.Choose(2))
			default:
				lanes[i] = core.PoisonScalar
				continue
			}
		case core.UndefVal:
			cl = core.C(r.o.Choose(2))
		}
		xi, yi := xv.Lanes[i], yv.Lanes[i]
		if r.opts.SelectArmPoisonEither && (xi.Kind == core.PoisonVal || yi.Kind == core.PoisonVal) {
			lanes[i] = core.PoisonScalar
			continue
		}
		if cl.Bits != 0 {
			lanes[i] = xi
		} else {
			lanes[i] = yi
		}
	}
	fr.writeDst(g, core.Value{Ty: g.ty, Lanes: lanes})
	return nil
}
