package ir

import "fmt"

// Op enumerates instruction opcodes, covering Figure 4 of the paper plus
// the instructions a realistic pipeline needs (sub, mul, rem, xor, the
// full icmp predicate set, alloca, call, ret, unreachable).
type Op uint8

const (
	OpInvalid Op = iota

	// Binary arithmetic. Binop attributes (nsw, nuw, exact) refine
	// their deferred-UB domain.
	OpAdd
	OpSub
	OpMul
	OpUDiv
	OpSDiv
	OpURem
	OpSRem
	OpShl
	OpLShr
	OpAShr
	OpAnd
	OpOr
	OpXor

	// Comparison, select, phi.
	OpICmp
	OpSelect
	OpPhi

	// The paper's new instruction: a non-deterministic but *stable*
	// materialization of deferred UB.
	OpFreeze

	// Memory.
	OpAlloca // fixed-size stack allocation; operand: element count (const)
	OpLoad
	OpStore
	OpGEP // getelementptr: base pointer + index, scaled by elem size

	// Conversions.
	OpZExt
	OpSExt
	OpTrunc
	OpBitcast

	// Vectors.
	OpExtractElement
	OpInsertElement

	// Control flow (block terminators) and calls.
	OpBr          // 1 block: unconditional; 1 value + 2 blocks: conditional
	OpRet         // 0 or 1 operand
	OpUnreachable // executing it is immediate UB
	OpCall        // Callee field + operands

	opMax
)

var opNames = [...]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpUDiv: "udiv", OpSDiv: "sdiv",
	OpURem: "urem", OpSRem: "srem", OpShl: "shl", OpLShr: "lshr", OpAShr: "ashr",
	OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpICmp: "icmp", OpSelect: "select", OpPhi: "phi", OpFreeze: "freeze",
	OpAlloca: "alloca", OpLoad: "load", OpStore: "store", OpGEP: "getelementptr",
	OpZExt: "zext", OpSExt: "sext", OpTrunc: "trunc", OpBitcast: "bitcast",
	OpExtractElement: "extractelement", OpInsertElement: "insertelement",
	OpBr: "br", OpRet: "ret", OpUnreachable: "unreachable", OpCall: "call",
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// OpFromString maps a mnemonic back to its opcode; it returns OpInvalid
// for unknown mnemonics.
func OpFromString(s string) Op {
	for op, name := range opNames {
		if name == s {
			return Op(op)
		}
	}
	return OpInvalid
}

// IsBinop reports whether o is one of the binary arithmetic opcodes.
func (o Op) IsBinop() bool { return o >= OpAdd && o <= OpXor }

// IsCast reports whether o is a conversion opcode.
func (o Op) IsCast() bool { return o >= OpZExt && o <= OpBitcast }

// IsTerminator reports whether o terminates a basic block.
func (o Op) IsTerminator() bool { return o == OpBr || o == OpRet || o == OpUnreachable }

// IsCommutative reports whether the binop's operands may be swapped.
func (o Op) IsCommutative() bool {
	switch o {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor:
		return true
	}
	return false
}

// IsDivRem reports whether o can trigger immediate UB through its
// divisor (division or remainder).
func (o Op) IsDivRem() bool {
	switch o {
	case OpUDiv, OpSDiv, OpURem, OpSRem:
		return true
	}
	return false
}

// IsShift reports whether o is a shift.
func (o Op) IsShift() bool { return o == OpShl || o == OpLShr || o == OpAShr }

// HasSideEffects reports whether the instruction writes memory or
// transfers control (and therefore must not be removed or duplicated
// freely).
func (o Op) HasSideEffects() bool {
	switch o {
	case OpStore, OpBr, OpRet, OpUnreachable, OpCall, OpAlloca:
		return true
	}
	return false
}

// Attrs is the set of poison-generating operation attributes.
type Attrs uint8

const (
	// NSW: the operation yields poison on signed overflow.
	NSW Attrs = 1 << iota
	// NUW: the operation yields poison on unsigned overflow.
	NUW
	// Exact: division/shift yields poison if it would be inexact.
	Exact
)

// String renders the attribute list, with a trailing space when
// non-empty so it can be inserted directly after the opcode.
func (a Attrs) String() string { return string(a.appendTo(nil)) }

func (a Attrs) appendTo(b []byte) []byte {
	if a&NSW != 0 {
		b = append(b, "nsw "...)
	}
	if a&NUW != 0 {
		b = append(b, "nuw "...)
	}
	if a&Exact != 0 {
		b = append(b, "exact "...)
	}
	return b
}

// Pred is an icmp predicate.
type Pred uint8

const (
	PredEQ Pred = iota
	PredNE
	PredUGT
	PredUGE
	PredULT
	PredULE
	PredSGT
	PredSGE
	PredSLT
	PredSLE
	predMax
)

var predNames = [...]string{"eq", "ne", "ugt", "uge", "ult", "ule", "sgt", "sge", "slt", "sle"}

// String returns the predicate mnemonic.
func (p Pred) String() string {
	if int(p) < len(predNames) {
		return predNames[p]
	}
	return fmt.Sprintf("pred(%d)", uint8(p))
}

// PredFromString maps a mnemonic to its predicate.
func PredFromString(s string) (Pred, bool) {
	for i, n := range predNames {
		if n == s {
			return Pred(i), true
		}
	}
	return 0, false
}

// Inverse returns the negation of the predicate (eq <-> ne, ult <-> uge, ...).
func (p Pred) Inverse() Pred {
	switch p {
	case PredEQ:
		return PredNE
	case PredNE:
		return PredEQ
	case PredUGT:
		return PredULE
	case PredUGE:
		return PredULT
	case PredULT:
		return PredUGE
	case PredULE:
		return PredUGT
	case PredSGT:
		return PredSLE
	case PredSGE:
		return PredSLT
	case PredSLT:
		return PredSGE
	case PredSLE:
		return PredSGT
	}
	return p
}

// Swapped returns the predicate with its operands swapped
// (sgt <-> slt, eq <-> eq, ...).
func (p Pred) Swapped() Pred {
	switch p {
	case PredUGT:
		return PredULT
	case PredUGE:
		return PredULE
	case PredULT:
		return PredUGT
	case PredULE:
		return PredUGE
	case PredSGT:
		return PredSLT
	case PredSGE:
		return PredSLE
	case PredSLT:
		return PredSGT
	case PredSLE:
		return PredSGE
	}
	return p
}

// IsSigned reports whether the predicate compares signed values.
func (p Pred) IsSigned() bool { return p >= PredSGT && p <= PredSLE }

// Instr is a single IR instruction. One struct covers all opcodes; the
// meaning of the operand slots depends on Op:
//
//	binop:           args[0], args[1]
//	icmp:            args[0], args[1] with Pred
//	select:          args[0]=cond(i1 or <n x i1>), args[1], args[2]
//	phi:             args[i] incoming from blocks[i]
//	freeze:          args[0]
//	alloca:          args[0]=element count (const); AllocTy element type
//	load:            args[0]=pointer; Ty = loaded type
//	store:           args[0]=value, args[1]=pointer
//	gep:             args[0]=base pointer, args[1]=index; AllocTy = elem type
//	casts:           args[0]; Ty = destination type
//	extractelement:  args[0]=vector, args[1]=index (const)
//	insertelement:   args[0]=vector, args[1]=scalar, args[2]=index (const)
//	br:              unconditional: blocks[0]; conditional: args[0], blocks[0]=true, blocks[1]=false
//	ret:             args[0] (absent for void)
//	unreachable:     none
//	call:            Callee, args = call arguments
type Instr struct {
	userTracker
	Op    Op
	Ty    Type // result type; Void for non-value instructions
	Attrs Attrs
	Pred  Pred

	// AllocTy is the element type for alloca and gep.
	AllocTy Type

	Callee *Func

	Nam    string
	args   []Value
	blocks []*Block

	parent *Block
}

// NewInstr constructs a detached instruction. Operand use-lists are
// maintained from the start.
func NewInstr(op Op, ty Type, args ...Value) *Instr {
	in := &Instr{Op: op, Ty: ty}
	for _, a := range args {
		in.AddArg(a)
	}
	return in
}

// Type implements Value.
func (in *Instr) Type() Type { return in.Ty }

// Name returns the instruction's result name without the % sigil.
func (in *Instr) Name() string { return in.Nam }

// Ident implements Value.
func (in *Instr) Ident() string { return "%" + in.Nam }

// Parent returns the containing basic block, or nil if detached.
func (in *Instr) Parent() *Block { return in.parent }

// NumArgs returns the number of value operands.
func (in *Instr) NumArgs() int { return len(in.args) }

// Arg returns the i'th value operand.
func (in *Instr) Arg(i int) Value { return in.args[i] }

// Args returns the operand slice. Callers must not mutate it directly;
// use SetArg/AddArg so use-lists stay consistent.
func (in *Instr) Args() []Value { return in.args }

// AddArg appends a value operand.
func (in *Instr) AddArg(v Value) {
	in.args = append(in.args, v)
	v.addUse(in)
}

// SetArg replaces the i'th value operand.
func (in *Instr) SetArg(i int, v Value) {
	old := in.args[i]
	if old == v {
		return
	}
	old.delUse(in)
	in.args[i] = v
	v.addUse(in)
}

// dropArgs releases all operand uses (when deleting the instruction).
func (in *Instr) dropArgs() {
	for _, a := range in.args {
		a.delUse(in)
	}
	in.args = nil
	in.blocks = nil
}

// NumBlocks returns the number of block operands (phi incoming blocks
// or branch successors).
func (in *Instr) NumBlocks() int { return len(in.blocks) }

// BlockArg returns the i'th block operand.
func (in *Instr) BlockArg(i int) *Block { return in.blocks[i] }

// AddBlockArg appends a block operand.
func (in *Instr) AddBlockArg(b *Block) { in.blocks = append(in.blocks, b) }

// SetBlockArg replaces the i'th block operand.
func (in *Instr) SetBlockArg(i int, b *Block) { in.blocks[i] = b }

// IsConditionalBr reports whether the instruction is a conditional
// branch.
func (in *Instr) IsConditionalBr() bool { return in.Op == OpBr && len(in.args) == 1 }

// Succs returns the successor blocks of a terminator.
func (in *Instr) Succs() []*Block {
	if in.Op != OpBr {
		return nil
	}
	return in.blocks
}

// PhiIncoming returns the incoming value for predecessor block b, and
// whether one exists.
func (in *Instr) PhiIncoming(b *Block) (Value, bool) {
	for i, blk := range in.blocks {
		if blk == b {
			return in.args[i], true
		}
	}
	return nil, false
}

// AddPhiIncoming appends an incoming (value, predecessor) pair to a phi.
func (in *Instr) AddPhiIncoming(v Value, b *Block) {
	if in.Op != OpPhi {
		panic("ir: AddPhiIncoming on non-phi")
	}
	in.AddArg(v)
	in.AddBlockArg(b)
}

// RemovePhiIncoming deletes the incoming pair for predecessor b.
func (in *Instr) RemovePhiIncoming(b *Block) {
	for i := 0; i < len(in.blocks); i++ {
		if in.blocks[i] == b {
			in.args[i].delUse(in)
			in.args = append(in.args[:i], in.args[i+1:]...)
			in.blocks = append(in.blocks[:i], in.blocks[i+1:]...)
			return
		}
	}
}

// ReplaceAllUsesWith rewrites every operand slot that references in to
// use v instead.
func (in *Instr) ReplaceAllUsesWith(v Value) {
	if in == v {
		return
	}
	in.replaceUses(in, v)
}
