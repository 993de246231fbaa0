// Package ir defines a typed SSA intermediate representation in the style
// of LLVM IR, covering the instruction set of Figure 4 of "Taming
// Undefined Behavior in LLVM" (PLDI 2017) plus the handful of
// instructions (alloca, call, ret, unreachable, sub, mul, rem, xor, more
// icmp predicates) any realistic optimizer pipeline needs.
//
// The IR is deliberately semantics-free: poison, undef and freeze appear
// here only as syntax. Their meaning — under the paper's legacy
// (undef+poison) semantics or the proposed (poison+freeze) semantics —
// is given by package core.
package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// TypeKind discriminates the IR type universe: arbitrary-bitwidth
// integers iN, pointers ty*, fixed-length vectors <n x elem>, and the
// void pseudo-type for instructions that produce no value.
type TypeKind uint8

const (
	IntKind TypeKind = iota
	PtrKind
	VecKind
	VoidKind
)

// Type describes an IR type. Types are small immutable values and are
// compared with Equal (or, for interned scalar types, ==).
//
// Following Figure 5 of the paper, pointers are 32 bits wide.
type Type struct {
	Kind TypeKind
	// Bits is the width of an IntKind type. It is 32 for PtrKind (the
	// paper's Mem maps 32-bit addresses) and 0 for VoidKind. For VecKind
	// it is the width of the element type.
	Bits uint
	// Elem is the element type kind for VecKind (IntKind or PtrKind).
	Elem TypeKind
	// Len is the number of vector elements for VecKind.
	Len uint
}

// PtrBits is the width of a pointer, per Figure 5 of the paper.
const PtrBits = 32

// MaxIntBits is the largest integer width the IR supports. 64 keeps
// values representable in a uint64 while covering every width the paper
// uses (i1 through i64).
const MaxIntBits = 64

// Int returns the integer type iN.
func Int(bits uint) Type {
	if bits == 0 || bits > MaxIntBits {
		panic(fmt.Sprintf("ir.Int: unsupported bitwidth %d", bits))
	}
	return Type{Kind: IntKind, Bits: bits}
}

// Common interned types.
var (
	I1   = Int(1)
	I2   = Int(2)
	I8   = Int(8)
	I16  = Int(16)
	I32  = Int(32)
	I64  = Int(64)
	Ptr  = Type{Kind: PtrKind, Bits: PtrBits}
	Void = Type{Kind: VoidKind}
)

// Vec returns the vector type <n x elem>. The element must be an integer
// or pointer type.
func Vec(n uint, elem Type) Type {
	if n == 0 {
		panic("ir.Vec: zero-length vector")
	}
	switch elem.Kind {
	case IntKind, PtrKind:
		return Type{Kind: VecKind, Bits: elem.Bits, Elem: elem.Kind, Len: n}
	}
	panic("ir.Vec: element must be integer or pointer")
}

// IsInt reports whether t is an integer type.
func (t Type) IsInt() bool { return t.Kind == IntKind }

// IsPtr reports whether t is a pointer type.
func (t Type) IsPtr() bool { return t.Kind == PtrKind }

// IsVec reports whether t is a vector type.
func (t Type) IsVec() bool { return t.Kind == VecKind }

// IsVoid reports whether t is the void pseudo-type.
func (t Type) IsVoid() bool { return t.Kind == VoidKind }

// ElemType returns the element type of a vector type, or t itself for a
// scalar type. This mirrors LLVM's getScalarType.
func (t Type) ElemType() Type {
	if t.Kind != VecKind {
		return t
	}
	return Type{Kind: t.Elem, Bits: t.Bits}
}

// NumElems returns the number of lanes: Len for vectors, 1 for scalars,
// 0 for void.
func (t Type) NumElems() uint {
	switch t.Kind {
	case VecKind:
		return t.Len
	case VoidKind:
		return 0
	}
	return 1
}

// Bitwidth returns the total width in bits of a value of type t, per the
// paper's bitwidth(ty): lane width times lane count.
func (t Type) Bitwidth() uint {
	return t.ElemType().Bits * t.NumElems()
}

// Equal reports whether two types are identical.
func (t Type) Equal(u Type) bool { return t == u }

// String renders the type in LLVM-like syntax: i32, ptr, <4 x i8>.
func (t Type) String() string {
	switch t.Kind {
	case IntKind:
		// Interpreter behaviour-set keys render types on every return,
		// so the common widths are worth returning allocation-free.
		switch t.Bits {
		case 1:
			return "i1"
		case 2:
			return "i2"
		case 4:
			return "i4"
		case 8:
			return "i8"
		case 16:
			return "i16"
		case 32:
			return "i32"
		case 64:
			return "i64"
		}
		return "i" + strconv.FormatUint(uint64(t.Bits), 10)
	case PtrKind:
		return "ptr"
	case VecKind:
		var b strings.Builder
		b.WriteByte('<')
		b.WriteString(strconv.FormatUint(uint64(t.Len), 10))
		b.WriteString(" x ")
		b.WriteString(t.ElemType().String())
		b.WriteByte('>')
		return b.String()
	case VoidKind:
		return "void"
	}
	return "<invalid type>"
}

// AppendTo appends String's rendering of t to b.
func (t Type) AppendTo(b []byte) []byte {
	switch t.Kind {
	case IntKind:
		return strconv.AppendUint(append(b, 'i'), uint64(t.Bits), 10)
	case VecKind:
		b = strconv.AppendUint(append(b, '<'), uint64(t.Len), 10)
		b = t.ElemType().AppendTo(append(b, " x "...))
		return append(b, '>')
	}
	return append(b, t.String()...)
}

// ParseType parses a type written in String's syntax. It accepts "iN",
// "ptr", "void", and "<N x elem>".
func ParseType(s string) (Type, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "ptr":
		return Ptr, nil
	case s == "void":
		return Void, nil
	case strings.HasPrefix(s, "i"):
		var bits uint
		if _, err := fmt.Sscanf(s, "i%d", &bits); err != nil {
			return Type{}, fmt.Errorf("ir: bad integer type %q", s)
		}
		if bits == 0 || bits > MaxIntBits {
			return Type{}, fmt.Errorf("ir: unsupported bitwidth in %q", s)
		}
		return Int(bits), nil
	case strings.HasPrefix(s, "<") && strings.HasSuffix(s, ">"):
		inner := strings.TrimSuffix(strings.TrimPrefix(s, "<"), ">")
		parts := strings.SplitN(inner, "x", 2)
		if len(parts) != 2 {
			return Type{}, fmt.Errorf("ir: bad vector type %q", s)
		}
		var n uint
		if _, err := fmt.Sscanf(strings.TrimSpace(parts[0]), "%d", &n); err != nil || n == 0 {
			return Type{}, fmt.Errorf("ir: bad vector length in %q", s)
		}
		elem, err := ParseType(parts[1])
		if err != nil {
			return Type{}, err
		}
		if elem.IsVec() || elem.IsVoid() {
			return Type{}, fmt.Errorf("ir: bad vector element in %q", s)
		}
		return Vec(n, elem), nil
	}
	return Type{}, fmt.Errorf("ir: unrecognized type %q", s)
}
