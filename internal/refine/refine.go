// Package refine is an Alive-style translation validator for the IR:
// it decides whether a transformed function refines the original one.
//
// Where Alive (Lopes et al., PLDI 2015) encodes the question for an SMT
// solver, this package exhaustively enumerates — all inputs over small
// bitwidths, and for each input all resolutions of the semantics'
// nondeterminism (undef reads, freeze choices, nondeterministic
// branches) via core.EnumOracle. At the scale of the paper's Section 6
// experiment ("all LLVM functions with three instructions over 2-bit
// integer arithmetic") enumeration is complete, so the verdicts are
// exact.
//
// The refinement order is the standard one:
//
//	UB  ⊒  poison  ⊒  undef  ⊒  any concrete value
//
// A target behaviour set refines a source behaviour set when the source
// admits UB, or when every target behaviour is covered by some source
// behaviour under that order (and the target has no UB of its own).
package refine

import (
	"fmt"
	"strings"
	"sync"

	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/telemetry"
)

// BehaviorSet is the set of observable outcomes of one function on one
// input, over all resolutions of nondeterminism.
type BehaviorSet struct {
	// UB: some execution triggers immediate UB.
	UB bool
	// Poison: some execution returns poison (any lane).
	Poison bool
	// Undef: some execution returns a value with an undef lane.
	Undef bool
	// Rets: concrete return values (keyed by Value.Key()).
	Rets RetSet
	// Void: the function returned normally with no value.
	Void bool
	// Incomplete: enumeration hit a resource bound (fuel, choice
	// count, fanout); the set may be missing behaviours and any
	// verdict based on it is inconclusive.
	Incomplete bool
	// RetBits is the total bitwidth of the return type (0 for void or
	// very wide types); used to recognize when Rets covers the whole
	// domain, which makes the set equivalent to one containing undef.
	RetBits uint
}

// coversAllConcretes reports whether Rets contains every value of the
// return type.
func (b BehaviorSet) coversAllConcretes() bool {
	return b.RetBits > 0 && b.RetBits <= 20 && uint64(b.Rets.Len()) == uint64(1)<<b.RetBits
}

// String summarizes the set for diagnostics.
func (b BehaviorSet) String() string {
	var parts []string
	if b.UB {
		parts = append(parts, "UB")
	}
	if b.Poison {
		parts = append(parts, "poison")
	}
	if b.Undef {
		parts = append(parts, "undef")
	}
	parts = append(parts, b.Rets.Keys()...)
	if b.Void {
		parts = append(parts, "ret void")
	}
	if b.Incomplete {
		parts = append(parts, "(incomplete)")
	}
	if len(parts) == 0 {
		return "{}"
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Config bounds the enumeration.
type Config struct {
	// SrcOpts / TgtOpts are the semantics each side runs under. They
	// usually coincide; they differ when validating a legacy→freeze
	// migration.
	SrcOpts core.Options
	TgtOpts core.Options

	// MaxChoices bounds oracle choice points per execution.
	MaxChoices int
	// MaxFanout bounds a single nondeterministic choice.
	MaxFanout uint64
	// MaxExecs bounds the choice paths enumerated per (function,
	// input), merged ones included (see CheckMetrics.Execs).
	MaxExecs int
	// MaxInputs bounds the number of input tuples tried.
	MaxInputs int
	// Fuel bounds steps per execution (overrides the options' fuel).
	Fuel int

	// ExhaustiveInputBits is the widest integer parameter whose inputs
	// are enumerated exhaustively (0 means the default, 4). Raising it
	// lets wider-bitwidth campaigns (i8 parameters: 256 values + the
	// deferred-UB inputs) keep Exhaustive verdicts instead of degrading
	// to sampling; the input count grows as 2^bits per parameter, so
	// raise MaxInputs to match. Part of the memo key: behaviour-set
	// ordinals depend on the input enumeration this governs.
	ExhaustiveInputBits uint

	// Memo, when non-nil, lets Check cache its target's behaviour sets
	// by canonical (function, semantics) key and input ordinal, so a
	// target that comes back skips re-computation. Sources never
	// repeat, so Check always derives them. A memo hit never changes a
	// verdict (keys are full canonical strings, not hashes). One Memo
	// may be shared by every worker of a campaign. Behaviors ignores
	// it.
	Memo *Memo

	// Oracle, when non-nil, is reused across executions instead of
	// allocating a fresh enumeration oracle per behaviour set. It must
	// not be shared between goroutines.
	Oracle *core.EnumOracle

	// Interpret forces the legacy tree-walking interpreter instead of
	// the compiled engine. The two are behaviourally identical
	// (TestCompiledMatchesInterpreter); the switch exists for the
	// tools' -interp parity runs (make ci-workload cmps a campaign
	// across the two engines) and for replaying a counterexample on
	// the reference semantics.
	Interpret bool

	// Metrics, when non-nil, accumulates validator counters (checks,
	// inputs, behaviour-set provenance and sizes, engine work). It is
	// owned by the calling goroutine: campaigns carry one per shard and
	// merge in shard order.
	Metrics *CheckMetrics

	// BehaviorHook, when non-nil, observes every behaviour set Check
	// consumes — computed or memo-hit — in deterministic order. The
	// campaign sets it for evolving sources, whose coverage digests it
	// derives.
	BehaviorHook func(BehaviorSet)

	// Trace, when non-nil, records per-phase spans inside every Check:
	// "compile" around executor setup and "behaviors_src" /
	// "behaviors_tgt" around each input's behaviour-set derivation.
	// The spans cost a clock read per phase on the hot path, so
	// campaigns leave this nil unless they record a trace (tame-fuzz
	// -trace) or set Campaign.TracePhases. A traced scope
	// (Scope.WithTrace) additionally lands the spans in the flight
	// recorder.
	Trace *telemetry.Scope
}

// DefaultConfig is tuned for the Section 6 experiment: 2-bit
// arithmetic, up to a handful of instructions.
func DefaultConfig(srcOpts, tgtOpts core.Options) Config {
	return Config{
		SrcOpts:    srcOpts,
		TgtOpts:    tgtOpts,
		MaxChoices: 16,
		MaxFanout:  1 << 8,
		MaxExecs:   1 << 14,
		MaxInputs:  1 << 16,
		Fuel:       4096,
	}
}

// Behaviors computes the behaviour set of fn on args by exhaustive
// oracle enumeration. The function is compiled once (core.Compile) and
// the resulting program's frame and memory are reused across the whole
// sweep; set cfg.Interpret to force the legacy interpreter instead.
// It never consults cfg.Memo, which keys sets by an input's ordinal in
// Check's enumeration: a lone input vector has none.
func Behaviors(fn *ir.Func, args []core.Value, opts core.Options, cfg Config) BehaviorSet {
	sd := side{fn: fn, opts: opts} // no memo handle: the ordinal is unused
	set := behaviorsAt(&sd, args, 0, cfg, "")
	sd.foldEngine(cfg.Metrics)
	return set
}

// side is one function of a check and the executor it runs on, which
// is compiled on the side's first memo miss: a side whose sets all
// come from the memo is never compiled. Only a target side has a memo
// handle.
type side struct {
	fn   *ir.Func
	opts core.Options
	ex   *core.Executor
	memo memoHandle
}

// compile builds sd's executor: fn compiled under its options, with
// cfg.Fuel applied (matching the override the enumeration loop applies
// on the interpreted path). The executor's frame pool and memory are
// reused across every execution of the sweep.
func (sd *side) compile(cfg Config) {
	sp := cfg.Trace.Start("compile")
	opts := sd.opts
	if cfg.Fuel > 0 {
		opts.Fuel = cfg.Fuel
	}
	sd.ex = core.NewExecutor(core.Compile(sd.fn, opts))
	sp.End()
	if cfg.Metrics != nil {
		cfg.Metrics.Compiles++
	}
}

// foldEngine adds the engine counters sd's executor accumulated, if it
// was compiled, to m.
func (sd *side) foldEngine(m *CheckMetrics) {
	if m != nil && sd.ex != nil {
		m.Engine.Add(*sd.ex.Metrics())
	}
}

// behaviorsAt is the enumeration core: it sweeps the oracle through
// every resolution of nondeterminism, executing on sd's executor
// (compiled here on the side's first miss) unless cfg.Interpret
// selects the tree-walking interpreter. ordinal is the input vector's
// position in Check's deterministic enumeration, which keys the set in
// the memo when sd has a memo handle (only a target does). phase, when
// not empty, names the span that times the call on cfg.Trace; a
// compile gets its own span, outside it, so the two never overlap.
func behaviorsAt(sd *side, args []core.Value, ordinal int, cfg Config, phase string) BehaviorSet {
	var sp *telemetry.Span
	if phase != "" {
		sp = cfg.Trace.Start(phase)
	}
	fn, opts := sd.fn, sd.opts
	if sd.memo.m != nil {
		if set, ok := sd.memo.get(ordinal); ok {
			cfg.Metrics.observe(set, true, 0)
			if cfg.BehaviorHook != nil {
				cfg.BehaviorHook(set)
			}
			sp.End()
			return set
		}
	}
	if sd.ex == nil && !cfg.Interpret {
		sp.End()
		sd.compile(cfg)
		if phase != "" {
			sp = cfg.Trace.Start(phase)
		}
	}
	ex := sd.ex
	var set BehaviorSet
	if !fn.RetTy.IsVoid() && fn.RetTy.Bitwidth() <= 20 {
		set.RetBits = fn.RetTy.Bitwidth()
	}
	o := cfg.Oracle
	if o == nil {
		o = core.NewEnumOracle(cfg.MaxChoices, cfg.MaxFanout)
	} else {
		o.Clear(cfg.MaxChoices, cfg.MaxFanout)
	}
	if ex != nil {
		// A compiled run may stop at a state an earlier path reached;
		// it then stands for every path below that state.
		o.EnableMerging()
	}
	if cfg.Fuel > 0 {
		opts.Fuel = cfg.Fuel
	}
	paths := 0 // choice paths enumerated, merged ones included
	for {
		if paths >= cfg.MaxExecs {
			set.Incomplete = true
			break
		}
		o.Reset()
		// A compiled outcome's lanes are valid only until ex's next Run;
		// the set reads them below and keeps no reference.
		var out core.Outcome
		if ex != nil {
			out = ex.Run(args, o)
		} else {
			out = core.Interpret(fn, args, o, opts)
		}
		switch out.Kind {
		case core.OutUB:
			set.UB = true
		case core.OutTimeout:
			set.Incomplete = true
		case core.OutError:
			// Malformed IR is a harness bug; surface loudly.
			panic(fmt.Sprintf("refine: execution error on @%s: %s", fn.Name(), out.Msg))
		case core.OutRet:
			switch {
			case out.Val.Ty.IsVoid():
				set.Void = true
			case out.Val.AnyPoison():
				set.Poison = true
			case !out.Val.IsConcrete():
				set.Undef = true
			default:
				set.Rets.Add(out.Val)
			}
		case core.OutMerged:
			// Every outcome below the merged state is in the set already.
		}
		n := o.LastPaths()
		if paths+n > cfg.MaxExecs {
			// Only a merged run stands for more than one path. A loop
			// running each of them would stop inside them, with this
			// same set.
			paths = cfg.MaxExecs
			set.Incomplete = true
			break
		}
		paths += n
		if !o.Next() {
			break
		}
	}
	if o.Overflowed {
		set.Incomplete = true
	}
	cfg.Metrics.observe(set, false, uint64(paths))
	sd.memo.put(ordinal, set)
	if cfg.BehaviorHook != nil {
		cfg.BehaviorHook(set)
	}
	sp.End()
	return set
}

// Refines reports whether behaviour set tgt refines src, with a reason
// when it does not. Incomplete sets yield (false, "inconclusive: ...").
func Refines(src, tgt BehaviorSet) (bool, string) {
	if src.UB {
		return true, "" // source UB justifies anything
	}
	if src.Incomplete || tgt.Incomplete {
		return false, "inconclusive: behaviour enumeration incomplete"
	}
	if tgt.UB {
		return false, "target has UB, source does not"
	}
	if tgt.Poison && !src.Poison {
		return false, "target returns poison, source cannot"
	}
	if tgt.Undef && !src.Poison && !src.Undef && !src.coversAllConcretes() {
		return false, "target returns undef, source returns neither undef nor poison"
	}
	if src.Poison || src.Undef {
		return true, "" // deferred UB in source covers every concrete value
	}
	// Report the smallest missing value so the counterexample is
	// deterministic.
	if missing, ok := tgt.Rets.firstMissing(src.Rets); ok {
		return false, "target can return " + missing + ", source cannot"
	}
	if tgt.Void && !src.Void {
		return false, "target returns void, source never returns"
	}
	return true, ""
}

// Status is the verdict of a refinement check.
type Status uint8

const (
	// Verified: the target refines the source on every input tried.
	Verified Status = iota
	// Refuted: a counterexample input was found.
	Refuted
	// Inconclusive: no counterexample, but some inputs could not be
	// fully enumerated (or the input space was sampled, not covered).
	Inconclusive
)

// String returns the verdict name.
func (s Status) String() string {
	switch s {
	case Verified:
		return "verified"
	case Refuted:
		return "refuted"
	}
	return "inconclusive"
}

// CounterExample records a refinement violation.
type CounterExample struct {
	Args   []core.Value
	Src    BehaviorSet
	Tgt    BehaviorSet
	Reason string
}

// String formats the counterexample.
func (c *CounterExample) String() string {
	args := make([]string, len(c.Args))
	for i, a := range c.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("args(%s): src=%s tgt=%s: %s",
		strings.Join(args, ", "), c.Src, c.Tgt, c.Reason)
}

// Result is the outcome of Check.
type Result struct {
	Status Status
	// Exhaustive: the input space was fully covered (all parameter
	// types were exhaustively enumerable).
	Exhaustive bool
	// Inputs is the number of input tuples checked.
	Inputs int
	// InconclusiveInputs counts inputs whose behaviour sets were
	// incomplete.
	InconclusiveInputs int
	// CE is the first counterexample found (Status == Refuted).
	CE *CounterExample
}

// String summarizes the result.
func (r Result) String() string {
	s := r.Status.String()
	if r.Status == Verified && r.Exhaustive {
		s += " (exhaustive)"
	}
	s += fmt.Sprintf(", %d inputs", r.Inputs)
	if r.InconclusiveInputs > 0 {
		s += fmt.Sprintf(" (%d inconclusive)", r.InconclusiveInputs)
	}
	if r.CE != nil {
		s += ": " + r.CE.String()
	}
	return s
}

// Check decides whether tgt refines src. The functions must have
// matching signatures. Inputs are enumerated exhaustively for small
// types (including poison, and undef under legacy source semantics);
// wider types are sampled and the verdict degrades to Inconclusive if
// no counterexample appears.
//
// Each side is compiled at most once per call, on its first memo miss,
// and executed through a pooled frame across the entire input×oracle
// sweep, so the per-execution cost is dispatch, not setup. Only the
// target consults cfg.Memo, through a handle resolved once per call; a
// target whose sets all come from the memo is never compiled.
func Check(src, tgt *ir.Func, cfg Config) Result {
	if len(src.Params) != len(tgt.Params) {
		panic("refine: signature mismatch")
	}
	for i := range src.Params {
		if !src.Params[i].Ty.Equal(tgt.Params[i].Ty) {
			panic("refine: parameter type mismatch")
		}
	}
	exhaustive := true
	cands := make([][]core.Value, len(src.Params))
	n := 1 // the number of input ordinals this Check can consult
	for i, p := range src.Params {
		var ex bool
		cands[i], ex = cachedCandidates(p.Ty, cfg.SrcOpts.Mode, cfg.ExhaustiveInputBits)
		exhaustive = exhaustive && ex
		n = min(n*len(cands[i]), max(cfg.MaxInputs, 0))
	}
	srcSide := side{fn: src, opts: cfg.SrcOpts}
	tgtSide := side{fn: tgt, opts: cfg.TgtOpts}
	if cfg.Memo != nil {
		tgtSide.memo = cfg.Memo.handle(tgt, cfg.TgtOpts, &cfg, n)
		defer tgtSide.memo.fold()
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Checks++
		// Executors accumulate engine counters across the whole sweep;
		// fold in those of the sides that ran, however Check exits.
		defer func() {
			srcSide.foldEngine(cfg.Metrics)
			tgtSide.foldEngine(cfg.Metrics)
		}()
	}

	res := Result{Exhaustive: exhaustive}
	idx := make([]int, len(cands))
	// One args vector serves every input; a counterexample takes a copy.
	args := make([]core.Value, len(cands))
	for {
		for i, j := range idx {
			args[i] = cands[i][j]
		}
		res.Inputs++
		if cfg.Metrics != nil {
			cfg.Metrics.Inputs++
		}
		if res.Inputs > cfg.MaxInputs {
			res.Exhaustive = false
			break
		}
		sb := behaviorsAt(&srcSide, args, res.Inputs-1, cfg, "behaviors_src")
		tb := behaviorsAt(&tgtSide, args, res.Inputs-1, cfg, "behaviors_tgt")
		ok, reason := Refines(sb, tb)
		if !ok {
			if strings.HasPrefix(reason, "inconclusive") {
				res.InconclusiveInputs++
			} else {
				res.Status = Refuted
				res.CE = &CounterExample{Args: append([]core.Value(nil), args...), Src: sb, Tgt: tb, Reason: reason}
				return res
			}
		}
		// Advance the input odometer.
		k := len(idx) - 1
		for ; k >= 0; k-- {
			idx[k]++
			if idx[k] < len(cands[k]) {
				break
			}
			idx[k] = 0
		}
		if k < 0 {
			break
		}
	}
	if res.InconclusiveInputs > 0 || !res.Exhaustive {
		res.Status = Inconclusive
	} else {
		res.Status = Verified
	}
	return res
}

// CandidateValues returns the input values to try for a parameter of
// type ty, and whether they cover the type exhaustively. Deferred-UB
// inputs are included: poison always, undef under legacy semantics.
// Integers up to the default exhaustive width (4 bits) are fully
// enumerated; Config.ExhaustiveInputBits widens that cutoff.
func CandidateValues(ty ir.Type, mode core.Mode) ([]core.Value, bool) {
	return candidateValuesBits(ty, mode, 0)
}

// candidates memoizes candidateValuesBits, a pure function of its
// arguments, so Check builds each candidate list once per process. The
// lists are shared read-only by every Check.
var candidates struct {
	sync.RWMutex
	m map[candidateKey]candidateList
}

type candidateKey struct {
	ty   ir.Type
	mode core.Mode
	bits uint
}

type candidateList struct {
	vals       []core.Value
	exhaustive bool
}

func cachedCandidates(ty ir.Type, mode core.Mode, bits uint) ([]core.Value, bool) {
	k := candidateKey{ty, mode, bits}
	candidates.RLock()
	c, ok := candidates.m[k]
	candidates.RUnlock()
	if !ok {
		c.vals, c.exhaustive = candidateValuesBits(ty, mode, bits)
		candidates.Lock()
		if candidates.m == nil {
			candidates.m = make(map[candidateKey]candidateList)
		}
		candidates.m[k] = c
		candidates.Unlock()
	}
	return c.vals, c.exhaustive
}

func candidateValuesBits(ty ir.Type, mode core.Mode, bits uint) ([]core.Value, bool) {
	if bits == 0 {
		bits = 4
	}
	addDeferred := func(vs []core.Value) []core.Value {
		vs = append(vs, core.VPoison(ty))
		if mode == core.Legacy {
			vs = append(vs, core.VUndef(ty))
		}
		return vs
	}
	switch {
	case ty.IsInt() && ty.Bits <= bits:
		var vs []core.Value
		for v := uint64(0); v < 1<<ty.Bits; v++ {
			vs = append(vs, core.VC(ty, v))
		}
		return addDeferred(vs), true
	case ty.IsInt():
		// Sample the interesting corners.
		w := ty.Bits
		samples := []uint64{0, 1, 2, 3, ir.TruncBits(^uint64(0), w), 1 << (w - 1), 1<<(w-1) - 1, 5, 10, 100}
		seen := map[uint64]bool{}
		var vs []core.Value
		for _, s := range samples {
			s = ir.TruncBits(s, w)
			if !seen[s] {
				seen[s] = true
				vs = append(vs, core.VC(ty, s))
			}
		}
		return addDeferred(vs), false
	case ty.IsPtr():
		// Null and poison. Valid pointers require a memory harness the
		// caller sets up (see CheckWithPointers-style helpers in the
		// pass tests); enumeration here stays conservative.
		return addDeferred([]core.Value{core.VC(ty, 0)}), false
	case ty.IsVec() && ty.ElemType().IsInt() && ty.ElemType().Bits*ty.Len <= 6:
		lane, _ := CandidateValues(ty.ElemType(), mode)
		// Cartesian product over lanes.
		var vs []core.Value
		idx := make([]int, ty.Len)
		for {
			v := core.Value{Ty: ty, Lanes: make([]core.Scalar, ty.Len)}
			for i, j := range idx {
				v.Lanes[i] = lane[j].Lanes[0]
			}
			vs = append(vs, v)
			k := len(idx) - 1
			for ; k >= 0; k-- {
				idx[k]++
				if idx[k] < len(lane) {
					break
				}
				idx[k] = 0
			}
			if k < 0 {
				break
			}
		}
		return vs, true
	case ty.IsVec():
		zero := core.Value{Ty: ty, Lanes: make([]core.Scalar, ty.Len)}
		for i := range zero.Lanes {
			zero.Lanes[i] = core.C(0)
		}
		return addDeferred([]core.Value{zero}), false
	}
	panic("refine: no candidates for type " + ty.String())
}
