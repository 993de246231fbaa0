package ir

import (
	"slices"
	"strconv"
)

// Value is anything that can appear as an instruction operand: an
// instruction result, a function parameter, or one of the constant
// leaves (integer constant, undef, poison, vector constant, global
// address).
type Value interface {
	// Type returns the IR type of the value.
	Type() Type
	// Ident renders the operand as it appears in textual IR, e.g.
	// "%x", "7", "poison", "undef", "@g", "<i8 1, i8 poison>".
	Ident() string

	addUse(u *Instr)
	delUse(u *Instr)
}

// userTracker records, for a definition, one entry per operand slot
// that references it. The multiplicity matters: Section 3.1 of the
// paper is precisely about transformations that change the number of
// syntactic uses of a value. It is a slice because nearly every value
// has one or two uses, so an append is the whole cost of a use.
type userTracker struct {
	uses []*Instr
}

func (t *userTracker) addUse(u *Instr) { t.uses = append(t.uses, u) }

func (t *userTracker) delUse(u *Instr) {
	if i := slices.Index(t.uses, u); i >= 0 {
		t.uses = slices.Delete(t.uses, i, i+1)
	}
}

// NumUses returns the total number of operand slots that reference this
// definition.
func (t *userTracker) NumUses() int { return len(t.uses) }

// Users returns each distinct instruction that uses this definition.
// The order is unspecified.
func (t *userTracker) Users() []*Instr {
	us := make([]*Instr, 0, len(t.uses))
	for _, u := range t.uses {
		if !slices.Contains(us, u) {
			us = append(us, u)
		}
	}
	return us
}

// replaceUses rewrites every operand slot that references old, whose
// use list t is, to v. Each entry of t names one such slot, so taking
// the list whole and rewriting one slot per entry stays linear in the
// number of uses (SetArg would search the list once per slot).
func (t *userTracker) replaceUses(old, v Value) {
	uses := t.uses
	t.uses = nil
	for _, u := range uses {
		if i := slices.Index(u.args, old); i >= 0 {
			u.args[i] = v
			v.addUse(u)
		}
	}
}

// Const is an integer (or pointer-typed null/int) constant. Bits holds
// the value in the low Type().Bits bits; higher bits are zero.
type Const struct {
	Ty   Type
	Bits uint64
}

// ConstInt returns an integer constant of type ty whose low bits are v
// (truncated to the type's width).
func ConstInt(ty Type, v uint64) *Const {
	if !ty.IsInt() && !ty.IsPtr() {
		panic("ir.ConstInt: scalar int/ptr type required")
	}
	return &Const{Ty: ty, Bits: TruncBits(v, ty.Bits)}
}

// ConstBool returns the i1 constant 0 or 1.
func ConstBool(b bool) *Const {
	if b {
		return &Const{Ty: I1, Bits: 1}
	}
	return &Const{Ty: I1, Bits: 0}
}

// TruncBits masks v to its low `bits` bits.
func TruncBits(v uint64, bits uint) uint64 {
	if bits >= 64 {
		return v
	}
	return v & ((uint64(1) << bits) - 1)
}

// SignExtBits sign-extends the low `bits` bits of v to 64 bits.
func SignExtBits(v uint64, bits uint) int64 {
	if bits >= 64 {
		return int64(v)
	}
	v = TruncBits(v, bits)
	sign := uint64(1) << (bits - 1)
	if v&sign != 0 {
		v |= ^((uint64(1) << bits) - 1)
	}
	return int64(v)
}

// Type implements Value.
func (c *Const) Type() Type { return c.Ty }

// SInt returns the constant's value interpreted as a signed integer of
// its type's width.
func (c *Const) SInt() int64 { return SignExtBits(c.Bits, c.Ty.Bits) }

// IsZero reports whether the constant is zero.
func (c *Const) IsZero() bool { return c.Bits == 0 }

// IsAllOnes reports whether every bit of the constant is set.
func (c *Const) IsAllOnes() bool { return c.Bits == TruncBits(^uint64(0), c.Ty.Bits) }

// Ident implements Value.
func (c *Const) Ident() string { return string(c.appendIdent(nil)) }

func (c *Const) appendIdent(b []byte) []byte {
	// Print small-width constants in signed form when the sign bit is
	// set, matching LLVM's convention for readability (e.g. i32 -1).
	if c.Ty.Bits > 1 && c.Bits>>(c.Ty.Bits-1) != 0 {
		return strconv.AppendInt(b, c.SInt(), 10)
	}
	return strconv.AppendUint(b, c.Bits, 10)
}

func (c *Const) addUse(*Instr) {}
func (c *Const) delUse(*Instr) {}

// Undef is the legacy deferred-UB constant: each use may independently
// take any value of the type. It exists only under the legacy
// semantics; the Freeze-mode verifier rejects it.
type Undef struct{ Ty Type }

// NewUndef returns an undef constant of type ty.
func NewUndef(ty Type) *Undef { return &Undef{Ty: ty} }

// Type implements Value.
func (u *Undef) Type() Type { return u.Ty }

// Ident implements Value.
func (u *Undef) Ident() string { return "undef" }

func (u *Undef) addUse(*Instr) {}
func (u *Undef) delUse(*Instr) {}

// Poison is the deferred-UB constant that taints dependent computation:
// most operations over poison return poison, and branching on poison
// (in the paper's proposed semantics) is immediate UB.
type Poison struct{ Ty Type }

// NewPoison returns a poison constant of type ty.
func NewPoison(ty Type) *Poison { return &Poison{Ty: ty} }

// Type implements Value.
func (p *Poison) Type() Type { return p.Ty }

// Ident implements Value.
func (p *Poison) Ident() string { return "poison" }

func (p *Poison) addUse(*Instr) {}
func (p *Poison) delUse(*Instr) {}

// VecConst is a vector constant; each element is a *Const, *Undef or
// *Poison of the element type. Undef and poison are per-lane, matching
// the paper's element-wise vector semantics.
type VecConst struct {
	Ty    Type
	Elems []Value
}

// NewVecConst builds a vector constant from per-lane scalar constants.
func NewVecConst(elems []Value) *VecConst {
	if len(elems) == 0 {
		panic("ir.NewVecConst: empty vector")
	}
	et := elems[0].Type()
	for _, e := range elems {
		if !e.Type().Equal(et) {
			panic("ir.NewVecConst: mixed element types")
		}
		switch e.(type) {
		case *Const, *Undef, *Poison:
		default:
			panic("ir.NewVecConst: elements must be constant leaves")
		}
	}
	return &VecConst{Ty: Vec(uint(len(elems)), et), Elems: elems}
}

// Type implements Value.
func (v *VecConst) Type() Type { return v.Ty }

// Ident implements Value.
func (v *VecConst) Ident() string { return string(v.appendIdent(nil)) }

func (v *VecConst) appendIdent(b []byte) []byte {
	b = append(b, '<')
	for i, e := range v.Elems {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendTyped(b, e)
	}
	return append(b, '>')
}

func (v *VecConst) addUse(*Instr) {}
func (v *VecConst) delUse(*Instr) {}

// Param is a function parameter. Parameters may hold poison (and, under
// legacy semantics, undef) unless the caller is known; the refinement
// checker therefore enumerates deferred-UB inputs too.
type Param struct {
	userTracker
	Nam string
	Ty  Type
	Idx int
}

// Type implements Value.
func (p *Param) Type() Type { return p.Ty }

// Name returns the parameter's name without the % sigil.
func (p *Param) Name() string { return p.Nam }

// Ident implements Value.
func (p *Param) Ident() string { return "%" + p.Nam }

// Global is a module-level byte array with a fixed size and optional
// initializer; its address is assigned by the execution engine or
// linker. Loads from bytes beyond the initializer read uninitialized
// (deferred-UB) memory.
type Global struct {
	Nam  string
	Size uint32
	Init []byte
}

// Type implements Value: a global evaluates to its address.
func (g *Global) Type() Type { return Ptr }

// Name returns the global's name without the @ sigil.
func (g *Global) Name() string { return g.Nam }

// Ident implements Value.
func (g *Global) Ident() string { return "@" + g.Nam }

func (g *Global) addUse(*Instr) {}
func (g *Global) delUse(*Instr) {}

// IsConstLeaf reports whether v is a constant operand (integer, undef,
// poison, vector constant, or global address): a value with no defining
// instruction.
func IsConstLeaf(v Value) bool {
	switch v.(type) {
	case *Const, *Undef, *Poison, *VecConst, *Global:
		return true
	}
	return false
}
