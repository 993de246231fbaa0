package core

import (
	"fmt"

	"tameir/internal/ir"
)

// OutcomeKind classifies how an execution ended.
type OutcomeKind uint8

const (
	// OutRet: the function returned normally (Val holds the result;
	// it may contain poison or undef lanes).
	OutRet OutcomeKind = iota
	// OutUB: the execution triggered immediate undefined behavior.
	OutUB
	// OutTimeout: the fuel ran out; the execution is inconclusive.
	OutTimeout
	// OutError: an internal error (malformed IR reached the
	// interpreter); always a bug in the caller.
	OutError
	// OutMerged: the compiled engine stopped the run at a state an
	// earlier choice path of the same enumeration reached (merge.go);
	// the outcomes below that state are already known. Only runs on an
	// EnumOracle with merging on end this way.
	OutMerged
)

// Outcome is the observable result of one execution.
type Outcome struct {
	Kind OutcomeKind
	Val  Value  // valid when Kind == OutRet and the function is non-void
	Msg  string // diagnostic for OutUB / OutError
}

// String renders the outcome for diagnostics and behaviour-set keys.
func (o Outcome) String() string {
	switch o.Kind {
	case OutRet:
		if o.Val.Ty.IsVoid() {
			return "ret void"
		}
		return "ret " + o.Val.String()
	case OutUB:
		return "UB"
	case OutTimeout:
		return "timeout"
	case OutMerged:
		return "merged"
	}
	return "error: " + o.Msg
}

// Tracer receives one event per executed instruction. v is the
// instruction's result (zero Value for void instructions). depth is
// the call depth.
type Tracer func(depth int, in *ir.Instr, v Value)

// Env carries the machine state across an execution: module (for calls
// and globals), memory, oracle and options.
type Env struct {
	Mod    *ir.Module
	Mem    *Memory
	Oracle Oracle
	Opts   Options

	// Trace, when non-nil, is invoked after each instruction. A traced
	// env runs on the tree-walking interpreter (see Run).
	Trace Tracer

	fuel       int
	depth      int
	globalAddr map[*ir.Global]uint32
	// arena is the compiled engine's per-execution lane allocator (see
	// Env.newLanes); the tree-walking interpreter never touches it.
	arena []Scalar
	// callBuf is the compiled call step's argument scratch. A call's
	// argument slice is dead as soon as the callee frame copies the
	// params into its registers, so one buffer per env serves every
	// call site at every depth.
	callBuf []Value
	// stepOut is the compiled steps' outcome scratch for a return, a
	// UB outcome (Env.ub) or a callee's non-return: execFrame copies
	// the pointed-to Outcome out by value before any other step can
	// run, so one slot per env serves every step at every depth.
	stepOut Outcome
	// cyc detects proven divergence on the closure engine; mrg merges
	// its runs into earlier choice paths' states.
	cyc Cycles
	mrg Merges
	// Steps counts executed instructions (exposed for the evaluation
	// harness's "run time" proxy when not using the VX64 simulator).
	Steps int

	// Metrics accumulates engine counters across the env's lifetime.
	// It is plain (non-atomic) state: an Env is single-goroutine, so
	// the hot paths pay ordinary increments and a publisher folds the
	// totals into a telemetry registry once per batch.
	Metrics EngineMetrics
}

// EngineMetrics counts what the execution engine did: top-level runs,
// instructions stepped, and how inner-call frames were obtained (pool
// hit vs fresh allocation — the steady-state engine should pool nearly
// everything after warm-up). An executor's depth-0 frame is its own
// and counts in neither, so a run without calls counts no frames.
type EngineMetrics struct {
	Execs           uint64
	Steps           uint64
	FramesPooled    uint64
	FramesAllocated uint64

	// Per-engine exec breakdown: Execs is the sum of whichever engines
	// ran.
	InterpExecs  uint64
	ClosureExecs uint64

	// Timed-out executions on the compiled engine, by cause:
	// CycleExits were proven divergent and stopped early (cycle.go),
	// FuelExits ran out of fuel. Call-depth timeouts and interpreter
	// runs count in neither.
	CycleExits uint64
	FuelExits  uint64

	// MergeExits counts executions stopped at a state an earlier
	// choice path reached (merge.go). Execs counts them too: it counts
	// engine runs, not the choice paths they stand for.
	MergeExits uint64
}

// Add folds o into m.
func (m *EngineMetrics) Add(o EngineMetrics) {
	m.Execs += o.Execs
	m.Steps += o.Steps
	m.FramesPooled += o.FramesPooled
	m.FramesAllocated += o.FramesAllocated
	m.InterpExecs += o.InterpExecs
	m.ClosureExecs += o.ClosureExecs
	m.CycleExits += o.CycleExits
	m.FuelExits += o.FuelExits
	m.MergeExits += o.MergeExits
}

// NewEnv prepares an execution environment: it allocates and
// initializes the module's globals. mod may be nil for single-function
// execution without globals or calls.
func NewEnv(mod *ir.Module, o Oracle, opts Options) (*Env, error) {
	opts = opts.normalized()
	env := &Env{
		Mod:        mod,
		Mem:        NewMemory(),
		Oracle:     o,
		Opts:       opts,
		fuel:       opts.Fuel,
		globalAddr: map[*ir.Global]uint32{},
	}
	if err := env.initGlobals(); err != nil {
		return nil, err
	}
	return env, nil
}

// initGlobals allocates and initializes the module's globals in module
// order. It is idempotent given a reset memory: the bump allocator
// assigns the same addresses every time.
func (env *Env) initGlobals() error {
	if env.Mod == nil {
		return nil
	}
	if env.globalAddr == nil {
		env.globalAddr = make(map[*ir.Global]uint32, len(env.Mod.Globals))
	}
	for _, g := range env.Mod.Globals {
		addr, err := env.Mem.Allocate(g.Size, env.Opts.Mode)
		if err != nil {
			return err
		}
		if len(g.Init) > 0 {
			if err := env.Mem.StoreBytes(addr, g.Init); err != nil {
				return err
			}
		}
		env.globalAddr[g] = addr
	}
	return nil
}

// Run executes fn on the given arguments and returns the outcome. It
// compiles fn and runs the compiled engine; the env's fuel, memory and
// globals are used as-is, exactly like the historical interpreter loop
// (see RunInterp, which this is checked against). A traced env (Trace
// set) runs on RunInterp instead, so the compiled engine carries no
// per-step trace hook. Callers that run one function many times
// compile it once and reuse an Executor instead.
func (env *Env) Run(fn *ir.Func, args []Value) Outcome {
	if env.Trace != nil {
		return env.RunInterp(fn, args)
	}
	p := Compile(fn, env.Opts)
	if out := p.checkArgs(args); out != nil {
		return *out
	}
	steps0 := env.Steps
	exact := !p.needsMem
	env.cyc.Arm(env.Oracle, exact)
	env.mrg.Arm(env.Oracle, exact, p)
	out := p.invoke(env, args)
	env.Metrics.Execs++
	env.Metrics.ClosureExecs++
	env.Metrics.Steps += uint64(env.Steps - steps0)
	return out
}

// RunInterp executes fn on the tree-walking interpreter. It is the
// reference semantics the compiled engine is differentially tested
// against (TestCompiledMatchesInterpreter) and the engine of every
// traced run.
func (env *Env) RunInterp(fn *ir.Func, args []Value) Outcome {
	if len(args) != len(fn.Params) {
		return Outcome{Kind: OutError, Msg: fmt.Sprintf("arity: got %d args, want %d", len(args), len(fn.Params))}
	}
	for i, a := range args {
		if !a.Ty.Equal(fn.Params[i].Ty) {
			return Outcome{Kind: OutError, Msg: fmt.Sprintf("arg %d type %s, want %s", i, a.Ty, fn.Params[i].Ty)}
		}
	}
	steps0 := env.Steps
	out := env.call(fn, args)
	env.Metrics.Execs++
	env.Metrics.InterpExecs++
	env.Metrics.Steps += uint64(env.Steps - steps0)
	return out
}

// Exec is a convenience wrapper: compile fn and run it once through
// the compiled engine on a fresh executor.
func Exec(fn *ir.Func, args []Value, o Oracle, opts Options) Outcome {
	return NewExecutor(Compile(fn, opts)).Run(args, o)
}

// Interpret is Exec on the historical tree-walking interpreter: build
// an Env over fn's module and run it once.
func Interpret(fn *ir.Func, args []Value, o Oracle, opts Options) Outcome {
	env, err := NewEnv(fn.Parent(), o, opts)
	if err != nil {
		return Outcome{Kind: OutError, Msg: err.Error()}
	}
	return env.RunInterp(fn, args)
}

// frame is one activation record.
type frame struct {
	fn   *ir.Func
	regs map[ir.Value]Value
}

func (env *Env) call(fn *ir.Func, args []Value) Outcome {
	if env.depth >= env.Opts.MaxCallDepth {
		return Outcome{Kind: OutTimeout, Msg: "call depth exceeded"}
	}
	env.depth++
	defer func() { env.depth-- }()

	fr := &frame{fn: fn, regs: make(map[ir.Value]Value, 16)}
	for i, p := range fn.Params {
		fr.regs[p] = args[i]
	}

	block := fn.Entry()
	var prev *ir.Block
	for {
		var nextBlock *ir.Block
		// Phis read their incomings simultaneously, before any other
		// instruction in the block executes.
		phiVals := make([]Value, 0, 4)
		phis := block.Phis()
		for _, ph := range phis {
			if prev == nil {
				return Outcome{Kind: OutError, Msg: "phi in entry block"}
			}
			incoming, ok := ph.PhiIncoming(prev)
			if !ok {
				return Outcome{Kind: OutError, Msg: fmt.Sprintf("phi %%%s has no incoming for %%%s", ph.Name(), prev.Name())}
			}
			v, out := env.operand(fr, incoming)
			if out != nil {
				return *out
			}
			phiVals = append(phiVals, v)
		}
		for i, ph := range phis {
			fr.regs[ph] = phiVals[i]
		}

		for _, in := range block.Instrs() {
			if in.Op == ir.OpPhi {
				continue
			}
			if env.fuel <= 0 {
				return Outcome{Kind: OutTimeout}
			}
			env.fuel--
			env.Steps++
			switch in.Op {
			case ir.OpBr:
				tgt, out := env.evalBr(fr, in)
				if out != nil {
					return *out
				}
				nextBlock = tgt
			case ir.OpRet:
				if in.NumArgs() == 0 {
					return Outcome{Kind: OutRet, Val: Value{Ty: ir.Void}}
				}
				v, out := env.operand(fr, in.Arg(0))
				if out != nil {
					return *out
				}
				return Outcome{Kind: OutRet, Val: v}
			case ir.OpUnreachable:
				return Outcome{Kind: OutUB, Msg: "reached unreachable"}
			case ir.OpCall:
				callArgs := make([]Value, in.NumArgs())
				for i := range callArgs {
					v, out := env.operand(fr, in.Arg(i))
					if out != nil {
						return *out
					}
					callArgs[i] = v
				}
				res := env.call(in.Callee, callArgs)
				if res.Kind != OutRet {
					return res
				}
				if !in.Ty.IsVoid() {
					fr.regs[in] = res.Val
				}
				if env.Trace != nil {
					env.Trace(env.depth, in, res.Val)
				}
			default:
				v, out := env.evalInstr(fr, in)
				if out != nil {
					return *out
				}
				if !in.Ty.IsVoid() {
					fr.regs[in] = v
				}
				if env.Trace != nil {
					env.Trace(env.depth, in, v)
				}
			}
			if nextBlock != nil {
				break
			}
		}
		if nextBlock == nil {
			return Outcome{Kind: OutError, Msg: "block fell through without terminator"}
		}
		prev, block = block, nextBlock
	}
}

// operand evaluates ⟦op⟧R: registers read the register file, constants
// evaluate to themselves, poison to poison (Figure 5). Undef lanes are
// NOT resolved here — strict consumers resolve them per use.
func (env *Env) operand(fr *frame, v ir.Value) (Value, *Outcome) {
	switch c := v.(type) {
	case *ir.Const:
		return VC(c.Ty, c.Bits), nil
	case *ir.Poison:
		return VPoison(c.Ty), nil
	case *ir.Undef:
		if env.Opts.Mode == Freeze {
			return Value{}, &Outcome{Kind: OutError, Msg: "undef under freeze semantics"}
		}
		return VUndef(c.Ty), nil
	case *ir.VecConst:
		lanes := make([]Scalar, len(c.Elems))
		for i, e := range c.Elems {
			switch el := e.(type) {
			case *ir.Const:
				lanes[i] = C(el.Bits)
			case *ir.Poison:
				lanes[i] = PoisonScalar
			case *ir.Undef:
				if env.Opts.Mode == Freeze {
					return Value{}, &Outcome{Kind: OutError, Msg: "undef lane under freeze semantics"}
				}
				lanes[i] = UndefScalar
			}
		}
		return Value{Ty: c.Ty, Lanes: lanes}, nil
	case *ir.Global:
		addr, ok := env.globalAddr[c]
		if !ok {
			return Value{}, &Outcome{Kind: OutError, Msg: "unmapped global @" + c.Name()}
		}
		return VC(ir.Ptr, uint64(addr)), nil
	default:
		val, ok := fr.regs[v]
		if !ok {
			return Value{}, &Outcome{Kind: OutError, Msg: fmt.Sprintf("read of unset register %s", v.Ident())}
		}
		return val, nil
	}
}

// strictOperand evaluates an operand and resolves undef lanes through
// the oracle — the "each use yields a fresh value" reading.
func (env *Env) strictOperand(fr *frame, v ir.Value) (Value, *Outcome) {
	val, out := env.operand(fr, v)
	if out != nil {
		return val, out
	}
	return ResolveUndef(val, env.Oracle), nil
}

func ubOut(msg string) *Outcome { return &Outcome{Kind: OutUB, Msg: msg} }

func (env *Env) evalBr(fr *frame, in *ir.Instr) (*ir.Block, *Outcome) {
	if !in.IsConditionalBr() {
		return in.BlockArg(0), nil
	}
	c, out := env.operand(fr, in.Arg(0))
	if out != nil {
		return nil, out
	}
	s := c.Scalar()
	switch s.Kind {
	case PoisonVal:
		if env.Opts.BranchPoison == BranchPoisonIsUB {
			return nil, ubOut("branch on poison")
		}
		s = C(env.Oracle.Choose(2))
	case UndefVal:
		s = C(env.Oracle.Choose(2))
	}
	if s.Bits != 0 {
		return in.BlockArg(0), nil
	}
	return in.BlockArg(1), nil
}

// evalInstr executes a non-control, non-call instruction.
func (env *Env) evalInstr(fr *frame, in *ir.Instr) (Value, *Outcome) {
	switch {
	case in.Op.IsBinop():
		x, out := env.strictOperand(fr, in.Arg(0))
		if out != nil {
			return Value{}, out
		}
		y, out := env.strictOperand(fr, in.Arg(1))
		if out != nil {
			return Value{}, out
		}
		w := uint(in.Ty.ElemType().Bits)
		lanes := make([]Scalar, len(x.Lanes))
		for i := range lanes {
			s, ub := EvalBinopLane(in.Op, in.Attrs, w, x.Lanes[i], y.Lanes[i], env.Opts.Mode)
			if ub != "" {
				return Value{}, ubOut(ub)
			}
			lanes[i] = s
		}
		return Value{Ty: in.Ty, Lanes: lanes}, nil

	case in.Op == ir.OpICmp:
		x, out := env.strictOperand(fr, in.Arg(0))
		if out != nil {
			return Value{}, out
		}
		y, out := env.strictOperand(fr, in.Arg(1))
		if out != nil {
			return Value{}, out
		}
		w := uint(in.Arg(0).Type().ElemType().Bits)
		lanes := make([]Scalar, len(x.Lanes))
		for i := range lanes {
			lanes[i] = EvalICmpLane(in.Pred, w, x.Lanes[i], y.Lanes[i])
		}
		return Value{Ty: in.Ty, Lanes: lanes}, nil

	case in.Op == ir.OpSelect:
		return env.evalSelect(fr, in)

	case in.Op == ir.OpFreeze:
		x, out := env.operand(fr, in.Arg(0))
		if out != nil {
			return Value{}, out
		}
		w := uint(in.Ty.ElemType().Bits)
		lanes := make([]Scalar, len(x.Lanes))
		for i, l := range x.Lanes {
			lanes[i] = FreezeLane(l, w, env.Oracle)
		}
		return Value{Ty: in.Ty, Lanes: lanes}, nil

	case in.Op == ir.OpAlloca:
		cnt := in.Arg(0).(*ir.Const).Bits
		size := uint64(SizeOfType(in.AllocTy)) * cnt
		if size > 1<<24 {
			return Value{}, &Outcome{Kind: OutError, Msg: "alloca too large"}
		}
		addr, err := env.Mem.Allocate(uint32(size), env.Opts.Mode)
		if err != nil {
			return Value{}, &Outcome{Kind: OutError, Msg: err.Error()}
		}
		return VC(ir.Ptr, uint64(addr)), nil

	case in.Op == ir.OpLoad:
		p, out := env.strictOperand(fr, in.Arg(0))
		if out != nil {
			return Value{}, out
		}
		ps := p.Scalar()
		if ps.Kind == PoisonVal {
			return Value{}, ubOut("load from poison address")
		}
		bits, err := env.Mem.Load(uint32(ps.Bits), in.Ty.Bitwidth())
		if err != nil {
			return Value{}, ubOut(err.Error())
		}
		return Raise(in.Ty, bits, env.Oracle), nil

	case in.Op == ir.OpStore:
		v, out := env.operand(fr, in.Arg(0))
		if out != nil {
			return Value{}, out
		}
		p, out := env.strictOperand(fr, in.Arg(1))
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

	case in.Op == ir.OpGEP:
		base, out := env.strictOperand(fr, in.Arg(0))
		if out != nil {
			return Value{}, out
		}
		idx, out := env.strictOperand(fr, in.Arg(1))
		if out != nil {
			return Value{}, out
		}
		idxW := uint(in.Arg(1).Type().Bits)
		s := EvalGEP(in.Attrs, base.Scalar(), idx.Scalar(), idxW, SizeOfType(in.AllocTy))
		return Value{Ty: ir.Ptr, Lanes: []Scalar{s}}, nil

	case in.Op == ir.OpZExt, in.Op == ir.OpSExt, in.Op == ir.OpTrunc:
		x, out := env.strictOperand(fr, in.Arg(0))
		if out != nil {
			return Value{}, out
		}
		fromW := uint(in.Arg(0).Type().ElemType().Bits)
		toW := uint(in.Ty.ElemType().Bits)
		lanes := make([]Scalar, len(x.Lanes))
		for i, l := range x.Lanes {
			lanes[i] = EvalCastLane(in.Op, fromW, toW, l)
		}
		return Value{Ty: in.Ty, Lanes: lanes}, nil

	case in.Op == ir.OpBitcast:
		// Figure 5: r = ty2↑(ty1↓(v)). Undef propagates bitwise, so a
		// fully-undef source stays undef rather than resolving.
		x, out := env.operand(fr, in.Arg(0))
		if out != nil {
			return Value{}, out
		}
		return Raise(in.Ty, Lower(x), env.Oracle), nil

	case in.Op == ir.OpExtractElement:
		vec, out := env.operand(fr, in.Arg(0))
		if out != nil {
			return Value{}, out
		}
		idx, out := env.strictOperand(fr, in.Arg(1))
		if out != nil {
			return Value{}, out
		}
		is := idx.Scalar()
		if is.Kind == PoisonVal || is.Bits >= uint64(len(vec.Lanes)) {
			// Out-of-range extract is poison (LLVM semantics).
			return VPoison(in.Ty), nil
		}
		return Value{Ty: in.Ty, Lanes: []Scalar{vec.Lanes[is.Bits]}}, nil

	case in.Op == ir.OpInsertElement:
		vec, out := env.operand(fr, in.Arg(0))
		if out != nil {
			return Value{}, out
		}
		sc, out := env.operand(fr, in.Arg(1))
		if out != nil {
			return Value{}, out
		}
		idx, out := env.strictOperand(fr, in.Arg(2))
		if out != nil {
			return Value{}, out
		}
		is := idx.Scalar()
		if is.Kind == PoisonVal || is.Bits >= uint64(len(vec.Lanes)) {
			return VPoison(in.Ty), nil
		}
		lanes := append([]Scalar(nil), vec.Lanes...)
		lanes[is.Bits] = sc.Scalar()
		return Value{Ty: in.Ty, Lanes: lanes}, nil
	}
	return Value{}, &Outcome{Kind: OutError, Msg: "unhandled opcode " + in.Op.String()}
}

func (env *Env) evalSelect(fr *frame, in *ir.Instr) (Value, *Outcome) {
	cond, out := env.operand(fr, in.Arg(0))
	if out != nil {
		return Value{}, out
	}
	x, out := env.operand(fr, in.Arg(1))
	if out != nil {
		return Value{}, out
	}
	y, out := env.operand(fr, in.Arg(2))
	if out != nil {
		return Value{}, out
	}

	pickLane := func(c Scalar, xi, yi Scalar) (Scalar, *Outcome) {
		switch c.Kind {
		case PoisonVal:
			switch env.Opts.SelectPoisonCond {
			case SelectPoisonCondUB:
				return Scalar{}, ubOut("select on poison condition")
			case SelectPoisonCondNondet:
				c = C(env.Oracle.Choose(2))
			default:
				return PoisonScalar, nil
			}
		case UndefVal:
			c = C(env.Oracle.Choose(2))
		}
		if env.Opts.SelectArmPoisonEither && (xi.Kind == PoisonVal || yi.Kind == PoisonVal) {
			return PoisonScalar, nil
		}
		if c.Bits != 0 {
			return xi, nil
		}
		return yi, nil
	}

	if !cond.Ty.IsVec() {
		c := cond.Scalar()
		// Scalar condition selects the whole value.
		switch c.Kind {
		case PoisonVal:
			switch env.Opts.SelectPoisonCond {
			case SelectPoisonCondUB:
				return Value{}, ubOut("select on poison condition")
			case SelectPoisonCondNondet:
				c = C(env.Oracle.Choose(2))
			default:
				return VPoison(in.Ty), nil
			}
		case UndefVal:
			c = C(env.Oracle.Choose(2))
		}
		if env.Opts.SelectArmPoisonEither && (x.AnyPoison() || y.AnyPoison()) {
			return VPoison(in.Ty), nil
		}
		if c.Bits != 0 {
			return x, nil
		}
		return y, nil
	}

	lanes := make([]Scalar, len(cond.Lanes))
	for i, c := range cond.Lanes {
		s, out := pickLane(c, x.Lanes[i], y.Lanes[i])
		if out != nil {
			return Value{}, out
		}
		lanes[i] = s
	}
	return Value{Ty: in.Ty, Lanes: lanes}, nil
}
