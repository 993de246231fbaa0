package analysis

import (
	"tameir/internal/ir"
)

// KnownBits tracks, for a scalar integer value, which bits are known
// zero and which are known one. As Section 5.6 of the paper explains,
// the facts hold only when the analyzed value is not poison — under
// poison the value "could take any value, including a
// non-power-of-two". Callers that move code past control flow must
// combine these results with IsGuaranteedNotToBePoison.
type KnownBits struct {
	Zero uint64 // bits known to be 0
	One  uint64 // bits known to be 1
	// Width of the analyzed type.
	Width uint
}

// Known reports whether all bits are known.
func (k KnownBits) Known() bool {
	return k.Zero|k.One == ir.TruncBits(^uint64(0), k.Width)
}

// Const returns the value if fully known.
func (k KnownBits) Const() (uint64, bool) {
	if k.Known() {
		return k.One, true
	}
	return 0, false
}

// maxKBDepth bounds the recursion of ComputeKnownBits.
const maxKBDepth = 6

// ComputeKnownBits computes known-zero/known-one bits for a scalar
// integer value. It is deliberately simple: enough to power the
// InstCombine rules and the power-of-two query.
func ComputeKnownBits(v ir.Value) KnownBits {
	return computeKB(v, maxKBDepth)
}

func computeKB(v ir.Value, depth int) KnownBits {
	ty := v.Type()
	if !ty.IsInt() {
		return KnownBits{Width: ty.Bitwidth()}
	}
	w := uint(ty.Bits)
	mask := ir.TruncBits(^uint64(0), w)
	top := KnownBits{Width: w}
	if depth == 0 {
		return top
	}
	switch x := v.(type) {
	case *ir.Const:
		return KnownBits{Zero: mask &^ x.Bits, One: x.Bits, Width: w}
	case *ir.Instr:
		a := func(i int) KnownBits { return computeKB(x.Arg(i), depth-1) }
		switch x.Op {
		case ir.OpAnd:
			l, r := a(0), a(1)
			return KnownBits{Zero: (l.Zero | r.Zero) & mask, One: l.One & r.One, Width: w}
		case ir.OpOr:
			l, r := a(0), a(1)
			return KnownBits{Zero: l.Zero & r.Zero, One: (l.One | r.One) & mask, Width: w}
		case ir.OpXor:
			l, r := a(0), a(1)
			known := (l.Zero | l.One) & (r.Zero | r.One)
			ones := (l.One ^ r.One) & known
			return KnownBits{Zero: known &^ ones, One: ones, Width: w}
		case ir.OpShl:
			if c, ok := x.Arg(1).(*ir.Const); ok && c.Bits < uint64(w) {
				l := a(0)
				sh := uint(c.Bits)
				return KnownBits{
					Zero:  (l.Zero<<sh | (1<<sh - 1)) & mask,
					One:   (l.One << sh) & mask,
					Width: w,
				}
			}
		case ir.OpLShr:
			if c, ok := x.Arg(1).(*ir.Const); ok && c.Bits < uint64(w) {
				l := a(0)
				sh := uint(c.Bits)
				high := mask &^ ir.TruncBits(mask, w-sh)
				return KnownBits{
					Zero:  (l.Zero&mask)>>sh | high,
					One:   (l.One & mask) >> sh,
					Width: w,
				}
			}
		case ir.OpZExt:
			src := computeKB(x.Arg(0), depth-1)
			srcW := uint(x.Arg(0).Type().Bits)
			ext := mask &^ ir.TruncBits(^uint64(0), srcW)
			return KnownBits{Zero: src.Zero | ext, One: src.One, Width: w}
		case ir.OpTrunc:
			src := computeKB(x.Arg(0), depth-1)
			return KnownBits{Zero: src.Zero & mask, One: src.One & mask, Width: w}
		case ir.OpAdd:
			// Low zero bits of both operands stay zero.
			l, r := a(0), a(1)
			lz := trailingOnes(l.Zero)
			rz := trailingOnes(r.Zero)
			n := lz
			if rz < n {
				n = rz
			}
			return KnownBits{Zero: ir.TruncBits(1<<n-1, w) & l.Zero & r.Zero, Width: w}
		case ir.OpMul:
			// A multiply by a power-of-two constant shifts: low bits zero.
			if c, ok := x.Arg(1).(*ir.Const); ok && c.Bits != 0 && c.Bits&(c.Bits-1) == 0 {
				sh := uint(trailingZeros(c.Bits))
				l := a(0)
				return KnownBits{Zero: (l.Zero<<sh | (1<<sh - 1)) & mask, One: (l.One << sh) & mask, Width: w}
			}
		case ir.OpSelect:
			l, r := computeKB(x.Arg(1), depth-1), computeKB(x.Arg(2), depth-1)
			return KnownBits{Zero: l.Zero & r.Zero, One: l.One & r.One, Width: w}
		case ir.OpFreeze:
			// freeze preserves the value when it is defined; known bits
			// of the operand are facts about the defined case, and the
			// frozen result of poison can be anything — so known bits
			// do NOT carry over. This conservatism is exactly why
			// §5.6 says analyses need "up to non-poison" results: we
			// return top here and let IsGuaranteedNotToBePoison refine.
			return top
		}
	}
	return top
}

func trailingOnes(x uint64) uint {
	n := uint(0)
	for x&1 == 1 {
		n++
		x >>= 1
	}
	return n
}

func trailingZeros(x uint64) uint {
	if x == 0 {
		return 64
	}
	n := uint(0)
	for x&1 == 0 {
		n++
		x >>= 1
	}
	return n
}

// PowerOfTwoResult is the answer of IsKnownToBeAPowerOfTwo with the
// Section 5.6 caveat made explicit in the API: the fact is conditional
// on the analyzed value not being poison.
type PowerOfTwoResult struct {
	// PowerOfTwo: the value is a power of two whenever it is not
	// poison.
	PowerOfTwo bool
	// NonPoison: the value is additionally guaranteed not to be
	// poison, so the fact holds unconditionally (safe for hoisting
	// past control flow, e.g. a division).
	NonPoison bool
}

// IsKnownToBeAPowerOfTwo implements the paper's running analysis
// example: "%x = shl 1, %y" is a power of two — but only if %y is not
// poison (§5.6).
func IsKnownToBeAPowerOfTwo(v ir.Value) PowerOfTwoResult {
	res := PowerOfTwoResult{}
	switch x := v.(type) {
	case *ir.Const:
		res.PowerOfTwo = x.Bits != 0 && x.Bits&(x.Bits-1) == 0
		res.NonPoison = true
		return res
	case *ir.Instr:
		switch x.Op {
		case ir.OpShl:
			if c, ok := x.Arg(0).(*ir.Const); ok && c.Bits == 1 {
				res.PowerOfTwo = true
				res.NonPoison = IsGuaranteedNotToBePoison(x) // needs shift amount in range too
			}
			return res
		case ir.OpFreeze:
			inner := IsKnownToBeAPowerOfTwo(x.Arg(0))
			// freeze(x): non-poison for sure, but if x was poison the
			// frozen value is arbitrary — the power-of-two fact
			// survives only if x was non-poison anyway.
			res.PowerOfTwo = inner.PowerOfTwo && inner.NonPoison
			res.NonPoison = true
			return res
		}
	}
	kb := ComputeKnownBits(v)
	if c, ok := kb.Const(); ok {
		res.PowerOfTwo = c != 0 && c&(c-1) == 0
		res.NonPoison = IsGuaranteedNotToBePoison(v)
	}
	return res
}
