// Package optfuzz generates IR functions for differential testing of
// optimizer passes, mirroring the opt-fuzz tool used in Section 6 of
// the paper: "exhaustively generate all LLVM functions with three
// instructions (over 2-bit integer arithmetic)" plus a randomized CFG
// generator for broader coverage.
//
// Generated functions are fed to the optimizer and the refine package
// validates each transformation, reproducing the paper's
// "we used Alive to validate both individual passes (InstCombine, GVN,
// Reassociation, and SCCP) and the collection of passes implied by the
// -O2 compiler flag".
package optfuzz

import (
	"fmt"

	"tameir/internal/ir"
)

// Config bounds the exhaustive generator.
type Config struct {
	// Width is the integer bitwidth (the paper uses 2).
	Width uint
	// NumParams is the number of iW parameters.
	NumParams int
	// NumInstrs is the exact number of instructions before the ret.
	NumInstrs int
	// Opcodes is the instruction menu; defaults to the full binop set
	// plus icmp, select and freeze.
	Opcodes []ir.Op
	// EnumAttrs also enumerates nsw/nuw/exact variants.
	EnumAttrs bool
	// AllowUndef / AllowPoison include deferred-UB constant leaves as
	// operands.
	AllowUndef  bool
	AllowPoison bool
	// MaxFuncs stops generation after this many functions (0 = no
	// bound). The generator reports whether it was truncated.
	MaxFuncs int
}

// DefaultConfig matches the paper's Section 6 setup at a size that
// enumerates quickly: 2-bit arithmetic, two parameters.
func DefaultConfig(numInstrs int) Config {
	return Config{
		Width:      2,
		NumParams:  2,
		NumInstrs:  numInstrs,
		AllowUndef: true,
	}
}

func (c Config) opcodes() []ir.Op {
	if len(c.Opcodes) > 0 {
		return c.Opcodes
	}
	return []ir.Op{
		ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpUDiv, ir.OpSDiv, ir.OpURem, ir.OpSRem,
		ir.OpShl, ir.OpLShr, ir.OpAShr, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpICmp, ir.OpSelect, ir.OpFreeze,
	}
}

// instrTemplate describes one enumerated instruction choice before
// operand selection.
type instrTemplate struct {
	op    ir.Op
	attrs ir.Attrs
	pred  ir.Pred
}

func (c Config) templates() []instrTemplate {
	var ts []instrTemplate
	for _, op := range c.opcodes() {
		switch {
		case op == ir.OpICmp:
			for p := ir.PredEQ; p <= ir.PredSLE; p++ {
				ts = append(ts, instrTemplate{op: op, pred: p})
			}
		case op.IsBinop() && c.EnumAttrs:
			variants := []ir.Attrs{0}
			switch op {
			case ir.OpAdd, ir.OpSub, ir.OpMul:
				variants = append(variants, ir.NSW, ir.NUW)
			case ir.OpShl:
				variants = append(variants, ir.NSW, ir.NUW)
			case ir.OpUDiv, ir.OpSDiv, ir.OpLShr, ir.OpAShr:
				variants = append(variants, ir.Exact)
			}
			for _, a := range variants {
				ts = append(ts, instrTemplate{op: op, attrs: a})
			}
		default:
			ts = append(ts, instrTemplate{op: op})
		}
	}
	return ts
}

// NumShards returns how many disjoint shards ExhaustiveShard splits
// the cfg's enumeration space into: one per choice of the first
// instruction's template. Concatenating the shards in index order
// yields exactly the sequence Exhaustive produces, which is what makes
// a parallel campaign a pure reordering of the serial one.
func NumShards(cfg Config) int {
	if cfg.NumInstrs <= 0 {
		return 1
	}
	return len(cfg.templates())
}

// ShardCapacities returns, for each shard, how many functions that
// shard can enumerate, saturated at limit (which must be positive —
// callers pass the campaign budget, and capacities beyond it can never
// matter). Only the template odometer is walked: each template tuple
// contributes the product of its exact operand bounds, so the cost is
// proportional to the number of tuples, not the number of functions.
// The budgeted campaign uses this to hand budget that small shards
// cannot absorb to shards that can, keeping the sharded candidate
// count equal to the serial one.
func ShardCapacities(cfg Config, limit int) []int {
	caps := make([]int, NumShards(cfg))
	if cfg.NumInstrs <= 0 {
		return caps
	}
	e := newEnumerator(cfg)
	for s := range caps {
		e.tmpl[0] = s
		for i := 1; i < cfg.NumInstrs; i++ {
			e.tmpl[i] = 0
		}
		total := 0
		for {
			if e.prepare() {
				n := 1
				for _, b := range e.bounds {
					n *= b
					if n >= limit {
						n = limit
						break
					}
				}
				total += n
				if total >= limit {
					total = limit
					break
				}
			}
			if !e.advanceTemplates(true) {
				break
			}
		}
		caps[s] = total
	}
	return caps
}

// Exhaustive enumerates every function of the configured shape and
// calls emit for each. emit returning false stops enumeration early.
// It returns the number of functions generated and whether the
// enumeration was truncated (by MaxFuncs or emit).
func Exhaustive(cfg Config, emit func(*ir.Func) bool) (int, bool) {
	return exhaustive(cfg, -1, emit)
}

// ExhaustiveShard enumerates only the slice of the space whose first
// instruction uses template index shard (0 ≤ shard < NumShards(cfg)).
// Shards are disjoint, cover the space, and share no mutable state, so
// distinct shards may be enumerated concurrently from different
// goroutines. MaxFuncs applies to this shard alone.
func ExhaustiveShard(cfg Config, shard int, emit func(*ir.Func) bool) (int, bool) {
	return exhaustive(cfg, shard, emit)
}

// enumerator carries the per-shard enumeration state. The constant
// leaves are allocated once and shared across every generated function
// (constants carry no use lists, so sharing is safe); the pool slices
// and name tables are reused across functions to keep the inner loop
// allocation-free apart from the IR nodes the caller receives.
type enumerator struct {
	cfg Config
	ty  ir.Type
	ts  []instrTemplate

	tmpl   []int // template index per instruction
	digits []int // flattened operand digits, instruction-major
	bounds []int // exact pool size for each digit
	digOff []int // first digit of each instruction

	consts []ir.Value // shared wide constant leaves (consts, undef, poison)
	boolsT [2]ir.Value

	wide  []ir.Value // scratch pools, rebuilt per function
	bools []ir.Value

	pNames []string
	vNames []string
}

func newEnumerator(cfg Config) *enumerator {
	e := &enumerator{
		cfg:    cfg,
		ty:     ir.Int(cfg.Width),
		ts:     cfg.templates(),
		tmpl:   make([]int, cfg.NumInstrs),
		digOff: make([]int, cfg.NumInstrs+1),
		pNames: make([]string, cfg.NumParams),
		vNames: make([]string, cfg.NumInstrs),
	}
	for v := uint64(0); v < 1<<cfg.Width; v++ {
		e.consts = append(e.consts, ir.ConstInt(e.ty, v))
	}
	if cfg.AllowUndef {
		e.consts = append(e.consts, ir.NewUndef(e.ty))
	}
	if cfg.AllowPoison {
		e.consts = append(e.consts, ir.NewPoison(e.ty))
	}
	e.boolsT = [2]ir.Value{ir.ConstBool(false), ir.ConstBool(true)}
	for i := range e.pNames {
		e.pNames[i] = fmt.Sprintf("p%d", i)
	}
	for i := range e.vNames {
		e.vNames[i] = fmt.Sprintf("v%d", i)
	}
	return e
}

// prepare recomputes the operand digit layout and exact bounds for the
// current template tuple, and reports whether the tuple can produce a
// function at all (some instruction must have the wide result type —
// the return value).
func (e *enumerator) prepare() bool {
	e.digits = e.digits[:0]
	e.bounds = e.bounds[:0]
	nWide := e.cfg.NumParams + len(e.consts)
	nBool := 2
	anyWide := false
	for i := 0; i < e.cfg.NumInstrs; i++ {
		tm := e.ts[e.tmpl[i]]
		e.digOff[i] = len(e.digits)
		if tm.op == ir.OpSelect {
			e.digits = append(e.digits, 0, 0, 0)
			e.bounds = append(e.bounds, nBool, nWide, nWide)
		} else if tm.op == ir.OpFreeze {
			e.digits = append(e.digits, 0)
			e.bounds = append(e.bounds, nWide)
		} else {
			e.digits = append(e.digits, 0, 0)
			e.bounds = append(e.bounds, nWide, nWide)
		}
		if tm.op == ir.OpICmp {
			nBool++
		} else {
			nWide++
			anyWide = true
		}
	}
	e.digOff[e.cfg.NumInstrs] = len(e.digits)
	return anyWide
}

// build materializes the function for the current digit state. The
// state is valid by construction (bounds are exact), so build never
// fails.
func (e *enumerator) build() *ir.Func {
	params := make([]*ir.Param, e.cfg.NumParams)
	for i := range params {
		params[i] = ir.NewParam(e.pNames[i], e.ty)
	}
	f := ir.NewFunc("fz", e.ty, params...)
	bb := f.NewBlock("entry")

	e.wide = e.wide[:0]
	for _, p := range params {
		e.wide = append(e.wide, p)
	}
	e.wide = append(e.wide, e.consts...)
	e.bools = append(e.bools[:0], e.boolsT[0], e.boolsT[1])

	var lastVal ir.Value
	var args [3]ir.Value
	for i := 0; i < e.cfg.NumInstrs; i++ {
		tm := e.ts[e.tmpl[i]]
		d := e.digits[e.digOff[i]:e.digOff[i+1]]
		var in *ir.Instr
		switch {
		case tm.op == ir.OpSelect:
			args[0], args[1], args[2] = e.bools[d[0]], e.wide[d[1]], e.wide[d[2]]
			in = ir.NewInstr(ir.OpSelect, e.ty, args[:3]...)
		case tm.op == ir.OpFreeze:
			args[0] = e.wide[d[0]]
			in = ir.NewInstr(ir.OpFreeze, e.ty, args[:1]...)
		case tm.op == ir.OpICmp:
			args[0], args[1] = e.wide[d[0]], e.wide[d[1]]
			in = ir.NewInstr(ir.OpICmp, ir.I1, args[:2]...)
			in.Pred = tm.pred
		default:
			args[0], args[1] = e.wide[d[0]], e.wide[d[1]]
			in = ir.NewInstr(tm.op, e.ty, args[:2]...)
			in.Attrs = tm.attrs
		}
		in.Nam = e.vNames[i]
		bb.Append(in)
		if in.Ty.Equal(e.ty) {
			e.wide = append(e.wide, in)
			lastVal = in
		} else {
			e.bools = append(e.bools, in)
		}
	}
	bb.Append(ir.NewInstr(ir.OpRet, ir.Void, lastVal))
	return f
}

// advanceDigits steps the operand odometer (rightmost digit fastest)
// within the exact bounds; false means the tuple's operand space is
// exhausted.
func (e *enumerator) advanceDigits() bool {
	for i := len(e.digits) - 1; i >= 0; i-- {
		e.digits[i]++
		if e.digits[i] < e.bounds[i] {
			return true
		}
		e.digits[i] = 0
	}
	return false
}

// advanceTemplates steps the template odometer. When firstFixed, the
// first instruction's template is pinned (shard enumeration) and only
// the lower digits advance.
func (e *enumerator) advanceTemplates(firstFixed bool) bool {
	lo := 0
	if firstFixed {
		lo = 1
	}
	for i := e.cfg.NumInstrs - 1; i >= lo; i-- {
		e.tmpl[i]++
		if e.tmpl[i] < len(e.ts) {
			return true
		}
		e.tmpl[i] = 0
	}
	return false
}

// exhaustive drives the enumeration; shard < 0 means the whole space.
func exhaustive(cfg Config, shard int, emit func(*ir.Func) bool) (int, bool) {
	if cfg.NumInstrs <= 0 {
		return 0, false
	}
	e := newEnumerator(cfg)
	if shard >= len(e.ts) {
		return 0, false
	}
	if shard >= 0 {
		e.tmpl[0] = shard
	}
	count := 0
	for {
		if e.prepare() {
			for {
				count++
				if !emit(e.build()) {
					return count, true
				}
				if cfg.MaxFuncs > 0 && count >= cfg.MaxFuncs {
					return count, true
				}
				if !e.advanceDigits() {
					break
				}
			}
		}
		if !e.advanceTemplates(shard >= 0) {
			return count, false
		}
	}
}
