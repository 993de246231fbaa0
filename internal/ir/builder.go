package ir

import "fmt"

// Builder provides a convenient, type-checked way to append instructions
// to a basic block. Every value-producing method names the result with
// a fresh SSA name derived from the opcode.
type Builder struct {
	fn  *Func
	blk *Block
}

// NewBuilder returns a builder positioned at the end of block b.
func NewBuilder(b *Block) *Builder {
	return &Builder{fn: b.parent, blk: b}
}

// Block returns the builder's current insertion block.
func (bd *Builder) Block() *Block { return bd.blk }

// SetBlock moves the insertion point to the end of block b.
func (bd *Builder) SetBlock(b *Block) {
	bd.blk = b
	bd.fn = b.parent
}

// Func returns the function being built.
func (bd *Builder) Func() *Func { return bd.fn }

func (bd *Builder) emit(in *Instr) *Instr {
	if !in.Ty.IsVoid() && in.Nam == "" {
		in.Nam = bd.fn.GenName(in.Op.String())
	}
	bd.blk.Append(in)
	return in
}

// Named assigns an explicit result name to the most natural use pattern:
// b.Named("x", b.Add(...)).
func (bd *Builder) Named(name string, in *Instr) *Instr {
	in.Nam = name
	return in
}

// Binop appends a binary arithmetic instruction with attributes.
func (bd *Builder) Binop(op Op, attrs Attrs, x, y Value) *Instr {
	if !op.IsBinop() {
		panic(fmt.Sprintf("ir: Binop with non-binop opcode %s", op))
	}
	if !x.Type().Equal(y.Type()) {
		panic(fmt.Sprintf("ir: binop operand type mismatch %s vs %s", x.Type(), y.Type()))
	}
	in := NewInstr(op, x.Type(), x, y)
	in.Attrs = attrs
	return bd.emit(in)
}

// Add appends an add (no attributes).
func (bd *Builder) Add(x, y Value) *Instr { return bd.Binop(OpAdd, 0, x, y) }

// AddNSW appends an add nsw.
func (bd *Builder) AddNSW(x, y Value) *Instr { return bd.Binop(OpAdd, NSW, x, y) }

// Sub appends a sub.
func (bd *Builder) Sub(x, y Value) *Instr { return bd.Binop(OpSub, 0, x, y) }

// Mul appends a mul.
func (bd *Builder) Mul(x, y Value) *Instr { return bd.Binop(OpMul, 0, x, y) }

// UDiv appends a udiv.
func (bd *Builder) UDiv(x, y Value) *Instr { return bd.Binop(OpUDiv, 0, x, y) }

// SDiv appends an sdiv.
func (bd *Builder) SDiv(x, y Value) *Instr { return bd.Binop(OpSDiv, 0, x, y) }

// And appends an and.
func (bd *Builder) And(x, y Value) *Instr { return bd.Binop(OpAnd, 0, x, y) }

// Or appends an or.
func (bd *Builder) Or(x, y Value) *Instr { return bd.Binop(OpOr, 0, x, y) }

// Xor appends an xor.
func (bd *Builder) Xor(x, y Value) *Instr { return bd.Binop(OpXor, 0, x, y) }

// Shl appends a shl.
func (bd *Builder) Shl(x, y Value) *Instr { return bd.Binop(OpShl, 0, x, y) }

// ICmp appends an integer comparison; the result is i1 (or a vector of
// i1 for vector operands).
func (bd *Builder) ICmp(p Pred, x, y Value) *Instr {
	if !x.Type().Equal(y.Type()) {
		panic(fmt.Sprintf("ir: icmp operand type mismatch %s vs %s", x.Type(), y.Type()))
	}
	rt := I1
	if x.Type().IsVec() {
		rt = Vec(x.Type().NumElems(), I1)
	}
	in := NewInstr(OpICmp, rt, x, y)
	in.Pred = p
	return bd.emit(in)
}

// Select appends a select instruction.
func (bd *Builder) Select(cond, x, y Value) *Instr {
	if !x.Type().Equal(y.Type()) {
		panic("ir: select arm type mismatch")
	}
	return bd.emit(NewInstr(OpSelect, x.Type(), cond, x, y))
}

// Phi appends an empty phi of the given type; populate it with
// AddPhiIncoming.
func (bd *Builder) Phi(ty Type) *Instr {
	ph := NewInstr(OpPhi, ty)
	if ph.Nam == "" {
		ph.Nam = bd.fn.GenName("phi")
	}
	// Phis must precede non-phi instructions.
	if fn := bd.blk.FirstNonPhi(); fn != nil {
		ph.parent = nil
		bd.blk.InsertBefore(ph, fn)
		return ph
	}
	bd.blk.Append(ph)
	return ph
}

// Freeze appends the paper's freeze instruction.
func (bd *Builder) Freeze(x Value) *Instr {
	return bd.emit(NewInstr(OpFreeze, x.Type(), x))
}

// Alloca appends a stack allocation of count elements of type elem; the
// result is a pointer.
func (bd *Builder) Alloca(elem Type, count *Const) *Instr {
	in := NewInstr(OpAlloca, Ptr, count)
	in.AllocTy = elem
	return bd.emit(in)
}

// Load appends a typed load through ptr.
func (bd *Builder) Load(ty Type, ptr Value) *Instr {
	if !ptr.Type().IsPtr() {
		panic("ir: load from non-pointer")
	}
	return bd.emit(NewInstr(OpLoad, ty, ptr))
}

// Store appends a store of val through ptr.
func (bd *Builder) Store(val, ptr Value) *Instr {
	if !ptr.Type().IsPtr() {
		panic("ir: store to non-pointer")
	}
	return bd.emit(NewInstr(OpStore, Void, val, ptr))
}

// GEP appends a getelementptr computing base + idx*sizeof(elem).
func (bd *Builder) GEP(elem Type, base, idx Value) *Instr {
	in := NewInstr(OpGEP, Ptr, base, idx)
	in.AllocTy = elem
	return bd.emit(in)
}

// GEPInbounds appends a gep with the inbounds-style NSW attribute: the
// address computation yields poison on overflow.
func (bd *Builder) GEPInbounds(elem Type, base, idx Value) *Instr {
	in := bd.GEP(elem, base, idx)
	in.Attrs = NSW
	return in
}

// Cast appends a conversion instruction to type to.
func (bd *Builder) Cast(op Op, x Value, to Type) *Instr {
	if !op.IsCast() {
		panic("ir: Cast with non-cast opcode")
	}
	return bd.emit(NewInstr(op, to, x))
}

// ZExt appends a zero-extension.
func (bd *Builder) ZExt(x Value, to Type) *Instr { return bd.Cast(OpZExt, x, to) }

// SExt appends a sign-extension.
func (bd *Builder) SExt(x Value, to Type) *Instr { return bd.Cast(OpSExt, x, to) }

// Trunc appends a truncation.
func (bd *Builder) Trunc(x Value, to Type) *Instr { return bd.Cast(OpTrunc, x, to) }

// Bitcast appends a bit-pattern-preserving cast; source and destination
// must have equal total bitwidth.
func (bd *Builder) Bitcast(x Value, to Type) *Instr {
	if x.Type().Bitwidth() != to.Bitwidth() {
		panic("ir: bitcast bitwidth mismatch")
	}
	return bd.Cast(OpBitcast, x, to)
}

// ExtractElement appends a vector lane read.
func (bd *Builder) ExtractElement(vec Value, idx *Const) *Instr {
	if !vec.Type().IsVec() {
		panic("ir: extractelement from non-vector")
	}
	return bd.emit(NewInstr(OpExtractElement, vec.Type().ElemType(), vec, idx))
}

// InsertElement appends a vector lane write, yielding the new vector.
func (bd *Builder) InsertElement(vec, scalar Value, idx *Const) *Instr {
	if !vec.Type().IsVec() {
		panic("ir: insertelement into non-vector")
	}
	return bd.emit(NewInstr(OpInsertElement, vec.Type(), vec, scalar, idx))
}

// Br appends an unconditional branch.
func (bd *Builder) Br(dst *Block) *Instr {
	in := NewInstr(OpBr, Void)
	in.AddBlockArg(dst)
	return bd.emit(in)
}

// CondBr appends a conditional branch on an i1 condition.
func (bd *Builder) CondBr(cond Value, ifTrue, ifFalse *Block) *Instr {
	in := NewInstr(OpBr, Void, cond)
	in.AddBlockArg(ifTrue)
	in.AddBlockArg(ifFalse)
	return bd.emit(in)
}

// Ret appends a return; pass nil for void functions.
func (bd *Builder) Ret(v Value) *Instr {
	var in *Instr
	if v == nil {
		in = NewInstr(OpRet, Void)
	} else {
		in = NewInstr(OpRet, Void, v)
	}
	return bd.emit(in)
}

// Unreachable appends an unreachable terminator.
func (bd *Builder) Unreachable() *Instr { return bd.emit(NewInstr(OpUnreachable, Void)) }

// Call appends a call to callee.
func (bd *Builder) Call(callee *Func, args ...Value) *Instr {
	in := NewInstr(OpCall, callee.RetTy, args...)
	in.Callee = callee
	return bd.emit(in)
}
