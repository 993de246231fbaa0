// Package core gives executable meaning to the IR of package ir. It is
// a direct encoding of the operational semantics in Figure 5 of "Taming
// Undefined Behavior in LLVM" (PLDI 2017): a register file mapping names
// to typed values that may be poison, a bit-granular memory, the ty↓ and
// ty↑ meta-operations, and small-step rules for each instruction.
//
// The interpreter supports two semantics:
//
//   - Legacy: pre-paper LLVM, with both undef (a value that may read
//     differently at every use) and poison, and with per-pass knobs for
//     the under-specified corners the paper's Section 3 exposes
//     (branch-on-poison, select-on-poison).
//   - Freeze: the paper's proposal — undef is gone, freeze
//     non-deterministically but stably materializes poison, and
//     branching on poison is immediate UB.
//
// Nondeterminism (undef reads, freeze results, legacy nondeterministic
// branches) is factored into an Oracle so that callers can run a single
// random execution or exhaustively enumerate all behaviours (package
// refine does the latter).
package core

import (
	"fmt"
	"strconv"

	"tameir/internal/ir"
)

// ScalarKind discriminates a single lane's state.
type ScalarKind uint8

const (
	// Concrete is a fully defined lane.
	Concrete ScalarKind = iota
	// PoisonVal is the paper's poison: deferred UB that taints
	// dependent computation.
	PoisonVal
	// UndefVal is the legacy undef: a lane that may evaluate to a
	// different arbitrary value at each use. It never arises under the
	// Freeze semantics.
	UndefVal
)

// Scalar is one lane of a runtime value.
type Scalar struct {
	Kind ScalarKind
	Bits uint64 // low Ty.Bits bits when Kind == Concrete
}

// C returns a concrete scalar with the given bits (caller truncates).
func C(bits uint64) Scalar { return Scalar{Kind: Concrete, Bits: bits} }

// PoisonScalar is the poison lane.
var PoisonScalar = Scalar{Kind: PoisonVal}

// UndefScalar is the undef lane.
var UndefScalar = Scalar{Kind: UndefVal}

// IsConcrete reports whether the lane is fully defined.
func (s Scalar) IsConcrete() bool { return s.Kind == Concrete }

// Value is a runtime value: one lane per vector element (one lane for
// scalars). The type records widths; Lanes[i].Bits is truncated to the
// lane width.
type Value struct {
	Ty    ir.Type
	Lanes []Scalar
}

// VC constructs a concrete scalar value of type ty.
func VC(ty ir.Type, bits uint64) Value {
	return Value{Ty: ty, Lanes: []Scalar{C(ir.TruncBits(bits, ty.ElemType().Bits))}}
}

// VPoison constructs an all-poison value of type ty.
func VPoison(ty ir.Type) Value {
	lanes := make([]Scalar, ty.NumElems())
	for i := range lanes {
		lanes[i] = PoisonScalar
	}
	return Value{Ty: ty, Lanes: lanes}
}

// VUndef constructs an all-undef value of type ty (legacy only).
func VUndef(ty ir.Type) Value {
	lanes := make([]Scalar, ty.NumElems())
	for i := range lanes {
		lanes[i] = UndefScalar
	}
	return Value{Ty: ty, Lanes: lanes}
}

// VBool is the concrete i1 value 0 or 1.
func VBool(b bool) Value {
	if b {
		return VC(ir.I1, 1)
	}
	return VC(ir.I1, 0)
}

// Scalar returns the single lane of a scalar value.
func (v Value) Scalar() Scalar {
	if len(v.Lanes) != 1 {
		panic(fmt.Sprintf("core: Scalar() on %d-lane value", len(v.Lanes)))
	}
	return v.Lanes[0]
}

// IsPoison reports whether the (scalar) value is poison.
func (v Value) IsPoison() bool { return len(v.Lanes) == 1 && v.Lanes[0].Kind == PoisonVal }

// IsUndef reports whether the (scalar) value is undef.
func (v Value) IsUndef() bool { return len(v.Lanes) == 1 && v.Lanes[0].Kind == UndefVal }

// IsConcrete reports whether every lane is fully defined.
func (v Value) IsConcrete() bool {
	for _, l := range v.Lanes {
		if l.Kind != Concrete {
			return false
		}
	}
	return true
}

// AnyPoison reports whether any lane is poison.
func (v Value) AnyPoison() bool {
	for _, l := range v.Lanes {
		if l.Kind == PoisonVal {
			return true
		}
	}
	return false
}

// Uint returns the concrete bits of a scalar value; it panics on
// non-concrete lanes (callers must resolve deferred UB first).
func (v Value) Uint() uint64 {
	s := v.Scalar()
	if s.Kind != Concrete {
		panic("core: Uint() on non-concrete value")
	}
	return s.Bits
}

// Int returns the concrete scalar value sign-extended to int64.
func (v Value) Int() int64 {
	return ir.SignExtBits(v.Uint(), v.Ty.ElemType().Bits)
}

// Equal reports structural equality of two values (same type, same
// lane kinds and bits).
func (v Value) Equal(w Value) bool {
	if !v.Ty.Equal(w.Ty) || len(v.Lanes) != len(w.Lanes) {
		return false
	}
	for i := range v.Lanes {
		if v.Lanes[i].Kind != w.Lanes[i].Kind {
			return false
		}
		if v.Lanes[i].Kind == Concrete && v.Lanes[i].Bits != w.Lanes[i].Bits {
			return false
		}
	}
	return true
}

// String renders the value for diagnostics, e.g. "i32 7",
// "<2 x i8> <3, poison>". It doubles as the behaviour-set key, so it
// is on the validator's hot path and avoids the fmt machinery.
func (v Value) String() string { return string(v.AppendTo(make([]byte, 0, 16))) }

// AppendTo appends String's rendering of v to b.
func (v Value) AppendTo(b []byte) []byte {
	b = append(v.Ty.AppendTo(b), ' ')
	if len(v.Lanes) == 1 {
		return appendLane(b, v.Lanes[0])
	}
	b = append(b, '<')
	for i, l := range v.Lanes {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendLane(b, l)
	}
	return append(b, '>')
}

func appendLane(b []byte, s Scalar) []byte {
	switch s.Kind {
	case PoisonVal:
		return append(b, "poison"...)
	case UndefVal:
		return append(b, "undef"...)
	}
	return strconv.AppendUint(b, s.Bits, 10)
}

// Key returns a comparable key for use in behaviour sets.
func (v Value) Key() string { return v.String() }

// --- ty↓ / ty↑ (Figure 5's meta-operations) ---

// Bit is one memory bit: 0, 1, poison, or undef.
type Bit uint8

const (
	Bit0 Bit = iota
	Bit1
	BitPoison
	BitUndef
)

// Lower implements ty↓: the value's low-level bit representation, least
// significant bit first within each lane, lanes concatenated in order.
// A poison lane lowers to all-poison bits; an undef lane to all-undef
// bits.
func Lower(v Value) []Bit {
	w := v.Ty.ElemType().Bits
	out := make([]Bit, 0, uint(len(v.Lanes))*w)
	for _, l := range v.Lanes {
		for i := uint(0); i < w; i++ {
			switch l.Kind {
			case PoisonVal:
				out = append(out, BitPoison)
			case UndefVal:
				out = append(out, BitUndef)
			default:
				if l.Bits>>i&1 != 0 {
					out = append(out, Bit1)
				} else {
					out = append(out, Bit0)
				}
			}
		}
	}
	return out
}

// Raise implements ty↑: reconstruct a value of type ty from bits. Per
// Figure 5, a lane with at least one poison bit raises to poison.
// Legacy extension for undef bits: a lane whose bits are all undef
// raises to undef (preserving the per-use freedom that makes load
// duplication sound, Section 3.1); a lane mixing defined and undef bits
// resolves each undef bit through the oracle so the defined bits are
// not lost.
func Raise(ty ir.Type, bits []Bit, o Oracle) Value {
	w := ty.ElemType().Bits
	n := ty.NumElems()
	if uint(len(bits)) != w*n {
		panic(fmt.Sprintf("core: Raise %s from %d bits", ty, len(bits)))
	}
	lanes := make([]Scalar, n)
	for li := uint(0); li < n; li++ {
		lane := bits[li*w : (li+1)*w]
		poison, undefs, defined := false, 0, 0
		for _, b := range lane {
			switch b {
			case BitPoison:
				poison = true
			case BitUndef:
				undefs++
			default:
				defined++
			}
		}
		switch {
		case poison:
			lanes[li] = PoisonScalar
		case undefs == len(lane):
			lanes[li] = UndefScalar
		default:
			var v uint64
			for i, b := range lane {
				switch b {
				case Bit1:
					v |= 1 << uint(i)
				case BitUndef:
					v |= o.Choose(2) << uint(i)
				}
			}
			lanes[li] = C(v)
		}
	}
	return Value{Ty: ty, Lanes: lanes}
}
