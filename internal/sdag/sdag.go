// Package sdag is the SelectionDAG-like middle layer of the backend,
// mirroring the lowering pipeline Section 6 of the paper describes:
// LLVM IR → SelectionDAG → MachineInstr. The paper's freeze work
// touches this layer twice:
//
//   - freeze exists as a first-class DAG node (a freeze in the IR maps
//     directly to a freeze in the DAG);
//   - type legalization must handle freeze with operands of illegal
//     type — here, any width that is not the 64-bit register width is
//     "illegal" and values live zero-extended in registers, so a
//     narrow freeze legalizes to a full-width freeze with no extra
//     masking (the zero-extension invariant is preserved by copying).
//
// Poison and undef leaves become NUndefReg nodes, selected as reads of
// the pinned undef register; freeze nodes are selected as plain
// register copies (§6, "Lowering freeze").
package sdag

import (
	"fmt"

	"tameir/internal/ir"
)

// NodeOp enumerates DAG node kinds.
type NodeOp uint8

const (
	NConst NodeOp = iota
	NUndefReg
	NCopyFromVReg
	NCopyToVReg
	NGlobal
	NFrame
	NBinop
	NICmp
	NSelect
	NFreeze
	NSExt
	NZExt
	NTrunc
	NMask // legalization-inserted AND with (1<<Bits)-1
	NLoad
	NStore
	NGEP
	NCall
	NBr
	NBrCond
	NRet
	NUnreachable
)

var nodeOpNames = [...]string{
	NConst: "const", NUndefReg: "undefreg", NCopyFromVReg: "copyfrom",
	NCopyToVReg: "copyto", NGlobal: "global", NFrame: "frame",
	NBinop: "binop", NICmp: "icmp", NSelect: "select", NFreeze: "freeze",
	NSExt: "sext", NZExt: "zext", NTrunc: "trunc", NMask: "mask",
	NLoad: "load", NStore: "store", NGEP: "gep", NCall: "call",
	NBr: "br", NBrCond: "brcond", NRet: "ret", NUnreachable: "unreachable",
}

// String returns the node-kind name.
func (o NodeOp) String() string {
	if int(o) < len(nodeOpNames) && nodeOpNames[o] != "" {
		return nodeOpNames[o]
	}
	return fmt.Sprintf("node%d", uint8(o))
}

// Node is one DAG node. Bits is the node's logical width; the register
// invariant is that the value is zero-extended to 64 bits.
type Node struct {
	Op    NodeOp
	IROp  ir.Op
	Attrs ir.Attrs
	Pred  ir.Pred
	Bits  uint
	// FromBits is the source width of NSExt/NZExt/NTrunc.
	FromBits uint
	Args     []*Node

	Imm       uint64
	VReg      int
	GlobalIdx int
	FrameOff  uint32
	CalleeIdx int
	ElemSize  uint32
	Block     int // BrCond true / Br target
	Block2    int // BrCond false target

	// Uses counts in-DAG consumers (set by Build; used by combines
	// and by instruction selection for cmp/branch fusion).
	Uses int
}

// BlockDAG holds one basic block's root nodes in program order: stores,
// calls, vreg copies, and the terminator last.
type BlockDAG struct {
	Roots []*Node
}

// FuncDAG is the whole function, with virtual registers assigned to
// every cross-block value.
type FuncDAG struct {
	Name      string
	Blocks    []*BlockDAG
	NumVRegs  int
	FrameSize uint32
	NumParams int
	RetBits   uint
}

// builder state.
type builder struct {
	mod      *ir.Module
	fn       *ir.Func
	blockIdx map[*ir.Block]int
	vreg     map[ir.Value]int
	// phiIn is the vreg predecessors write for each phi; the phi's
	// own vreg (vreg[phi]) is refreshed from it at the top of the
	// phi's block. Splitting the two avoids the classic lost-copy
	// problem: a conditional branch's edge copies must not be visible
	// to reads on the other edge.
	phiIn    map[*ir.Instr]int
	frameOff map[*ir.Instr]uint32
	numVRegs int
	frame    uint32
}

// Build lowers an IR function to its DAG form. Vector types are not
// supported by the VX64 backend (the paper's vector discussion is
// IR-level; our frontend never emits them).
func Build(mod *ir.Module, fn *ir.Func) (*FuncDAG, error) {
	b := &builder{
		mod:      mod,
		fn:       fn,
		blockIdx: map[*ir.Block]int{},
		vreg:     map[ir.Value]int{},
		phiIn:    map[*ir.Instr]int{},
		frameOff: map[*ir.Instr]uint32{},
	}
	for i, blk := range fn.Blocks {
		b.blockIdx[blk] = i
	}
	// Check for vectors up front.
	var typeErr error
	fn.ForEachInstr(func(in *ir.Instr) {
		if in.Ty.IsVec() {
			typeErr = fmt.Errorf("sdag: vector type %s in @%s is not supported by VX64", in.Ty, fn.Name())
		}
		for _, a := range in.Args() {
			if a.Type().IsVec() {
				typeErr = fmt.Errorf("sdag: vector operand in @%s is not supported by VX64", fn.Name())
			}
		}
	})
	if typeErr != nil {
		return nil, typeErr
	}

	// Parameters get vregs 0..n-1.
	for i, p := range fn.Params {
		b.vreg[p] = i
	}
	b.numVRegs = len(fn.Params)

	// Frame slots for entry-block allocas.
	for _, in := range fn.Entry().Instrs() {
		if in.Op == ir.OpAlloca {
			cnt := in.Arg(0).(*ir.Const).Bits
			size := uint32((in.AllocTy.Bitwidth()+7)/8) * uint32(cnt)
			size = (size + 7) &^ 7
			b.frameOff[in] = b.frame
			b.frame += size
		}
	}
	fn.ForEachInstr(func(in *ir.Instr) {
		if in.Op == ir.OpAlloca && b.frameOff[in] == 0 && in.Parent() != fn.Entry() {
			typeErr = fmt.Errorf("sdag: non-entry alloca in @%s", fn.Name())
		}
	})
	if typeErr != nil {
		return nil, typeErr
	}

	// Assign vregs to phis and to instrs used outside their block.
	fn.ForEachInstr(func(in *ir.Instr) {
		if in.Ty.IsVoid() {
			return
		}
		needs := in.Op == ir.OpPhi
		if !needs {
			for _, u := range in.Users() {
				if u.Parent() != in.Parent() || u.Op == ir.OpPhi {
					needs = true
					break
				}
			}
		}
		if needs {
			b.vreg[in] = b.numVRegs
			b.numVRegs++
			if in.Op == ir.OpPhi {
				b.phiIn[in] = b.numVRegs
				b.numVRegs++
			}
		}
	})

	fd := &FuncDAG{
		Name:      fn.Name(),
		NumVRegs:  b.numVRegs,
		NumParams: len(fn.Params),
		RetBits:   fn.RetTy.Bitwidth(),
	}
	for _, blk := range fn.Blocks {
		bd, err := b.buildBlock(blk)
		if err != nil {
			return nil, err
		}
		fd.Blocks = append(fd.Blocks, bd)
	}
	fd.FrameSize = b.frame
	// The extra vregs created for parallel phi copies were appended.
	fd.NumVRegs = b.numVRegs
	countUses(fd)
	return fd, nil
}

func width(ty ir.Type) uint {
	if ty.IsPtr() {
		return 64 // pointers live in full registers on VX64
	}
	return uint(ty.Bits)
}

func (b *builder) buildBlock(blk *ir.Block) (*BlockDAG, error) {
	bd := &BlockDAG{}
	local := map[ir.Value]*Node{}
	for _, ph := range blk.Phis() {
		from := &Node{Op: NCopyFromVReg, Bits: width(ph.Ty), VReg: b.phiIn[ph]}
		bd.Roots = append(bd.Roots, &Node{Op: NCopyToVReg, Bits: width(ph.Ty), VReg: b.vreg[ph], Args: []*Node{from}})
	}

	var operand func(v ir.Value) (*Node, error)
	operand = func(v ir.Value) (*Node, error) {
		if n, ok := local[v]; ok {
			return n, nil
		}
		var n *Node
		switch x := v.(type) {
		case *ir.Const:
			n = &Node{Op: NConst, Bits: width(x.Ty), Imm: x.Bits}
		case *ir.Poison:
			n = &Node{Op: NUndefReg, Bits: width(x.Ty)}
		case *ir.Undef:
			// At MI level there is no poison, only undef registers
			// (§6); both lower the same way.
			n = &Node{Op: NUndefReg, Bits: width(x.Ty)}
		case *ir.Global:
			idx := -1
			for i, g := range b.mod.Globals {
				if g == x {
					idx = i
				}
			}
			if idx < 0 {
				return nil, fmt.Errorf("sdag: global @%s not in module", x.Name())
			}
			n = &Node{Op: NGlobal, Bits: 64, GlobalIdx: idx}
		case *ir.Param:
			n = &Node{Op: NCopyFromVReg, Bits: width(x.Ty), VReg: b.vreg[x]}
		case *ir.Instr:
			if x.Op == ir.OpAlloca {
				n = &Node{Op: NFrame, Bits: 64, FrameOff: b.frameOff[x]}
			} else {
				vr, ok := b.vreg[x]
				if !ok {
					return nil, fmt.Errorf("sdag: use of %%%s before definition in block", x.Name())
				}
				n = &Node{Op: NCopyFromVReg, Bits: width(x.Ty), VReg: vr}
			}
		default:
			return nil, fmt.Errorf("sdag: unsupported operand %T", v)
		}
		local[v] = n
		return n, nil
	}

	emitTerminatorCopies := func() error {
		// Parallel phi copies for each successor: read all incomings
		// into fresh temporaries first, then write the phi vregs, so
		// swapping phis stay correct.
		succs := blk.Succs()
		seen := map[*ir.Block]bool{}
		for _, s := range succs {
			if seen[s] {
				continue
			}
			seen[s] = true
			phis := s.Phis()
			if len(phis) == 0 {
				continue
			}
			temps := make([]int, len(phis))
			for i, ph := range phis {
				incoming, ok := ph.PhiIncoming(blk)
				if !ok {
					return fmt.Errorf("sdag: phi %%%s lacks incoming for %%%s", ph.Name(), blk.Name())
				}
				n, err := operand(incoming)
				if err != nil {
					return err
				}
				temps[i] = b.numVRegs
				b.numVRegs++
				bd.Roots = append(bd.Roots, &Node{Op: NCopyToVReg, Bits: n.Bits, VReg: temps[i], Args: []*Node{n}})
			}
			for i, ph := range phis {
				from := &Node{Op: NCopyFromVReg, Bits: width(ph.Ty), VReg: temps[i]}
				bd.Roots = append(bd.Roots, &Node{Op: NCopyToVReg, Bits: width(ph.Ty), VReg: b.phiIn[ph], Args: []*Node{from}})
			}
		}
		return nil
	}

	for _, in := range blk.Instrs() {
		switch {
		case in.Op == ir.OpPhi:
			// The phi's value arrives via its vreg; reading it in this
			// block uses CopyFromVReg, arranged by operand().
			local[in] = &Node{Op: NCopyFromVReg, Bits: width(in.Ty), VReg: b.vreg[in]}
			continue
		case in.Op == ir.OpAlloca:
			local[in] = &Node{Op: NFrame, Bits: 64, FrameOff: b.frameOff[in]}
			continue
		}
		var n *Node
		mk := func(op NodeOp, bits uint, args ...*Node) *Node {
			return &Node{Op: op, Bits: bits, Args: args}
		}
		argN := func(i int) (*Node, error) { return operand(in.Arg(i)) }
		switch {
		case in.Op.IsBinop():
			x, err := argN(0)
			if err != nil {
				return nil, err
			}
			y, err := argN(1)
			if err != nil {
				return nil, err
			}
			n = mk(NBinop, width(in.Ty), x, y)
			n.IROp = in.Op
			n.Attrs = in.Attrs
		case in.Op == ir.OpICmp:
			x, err := argN(0)
			if err != nil {
				return nil, err
			}
			y, err := argN(1)
			if err != nil {
				return nil, err
			}
			n = mk(NICmp, 1, x, y)
			n.Pred = in.Pred
			n.FromBits = width(in.Arg(0).Type())
		case in.Op == ir.OpSelect:
			c, err := argN(0)
			if err != nil {
				return nil, err
			}
			x, err := argN(1)
			if err != nil {
				return nil, err
			}
			y, err := argN(2)
			if err != nil {
				return nil, err
			}
			n = mk(NSelect, width(in.Ty), c, x, y)
		case in.Op == ir.OpFreeze:
			x, err := argN(0)
			if err != nil {
				return nil, err
			}
			n = mk(NFreeze, width(in.Ty), x)
		case in.Op == ir.OpZExt, in.Op == ir.OpSExt, in.Op == ir.OpTrunc:
			x, err := argN(0)
			if err != nil {
				return nil, err
			}
			op := map[ir.Op]NodeOp{ir.OpZExt: NZExt, ir.OpSExt: NSExt, ir.OpTrunc: NTrunc}[in.Op]
			n = mk(op, width(in.Ty), x)
			n.FromBits = width(in.Arg(0).Type())
		case in.Op == ir.OpBitcast:
			// Scalar bitcasts between equal widths are copies.
			x, err := argN(0)
			if err != nil {
				return nil, err
			}
			n = x
		case in.Op == ir.OpLoad:
			p, err := argN(0)
			if err != nil {
				return nil, err
			}
			n = mk(NLoad, width(in.Ty), p)
		case in.Op == ir.OpStore:
			v, err := argN(0)
			if err != nil {
				return nil, err
			}
			p, err := argN(1)
			if err != nil {
				return nil, err
			}
			st := mk(NStore, width(in.Arg(0).Type()), v, p)
			bd.Roots = append(bd.Roots, st)
			continue
		case in.Op == ir.OpGEP:
			base, err := argN(0)
			if err != nil {
				return nil, err
			}
			idx, err := argN(1)
			if err != nil {
				return nil, err
			}
			n = mk(NGEP, 64, base, idx)
			n.ElemSize = uint32((in.AllocTy.Bitwidth() + 7) / 8)
			n.FromBits = width(in.Arg(1).Type())
		case in.Op == ir.OpCall:
			idx := -1
			for i, f := range b.mod.Funcs {
				if f == in.Callee {
					idx = i
				}
			}
			if idx < 0 {
				return nil, fmt.Errorf("sdag: callee @%s not in module", in.Callee.Name())
			}
			n = mk(NCall, width(in.Ty))
			n.CalleeIdx = idx
			for i := 0; i < in.NumArgs(); i++ {
				a, err := argN(i)
				if err != nil {
					return nil, err
				}
				n.Args = append(n.Args, a)
			}
			bd.Roots = append(bd.Roots, n)
		case in.Op == ir.OpBr && !in.IsConditionalBr():
			if err := emitTerminatorCopies(); err != nil {
				return nil, err
			}
			t := &Node{Op: NBr, Block: b.blockIdx[in.BlockArg(0)]}
			bd.Roots = append(bd.Roots, t)
			continue
		case in.Op == ir.OpBr:
			c, err := argN(0)
			if err != nil {
				return nil, err
			}
			if err := emitTerminatorCopies(); err != nil {
				return nil, err
			}
			t := &Node{Op: NBrCond, Args: []*Node{c}, Block: b.blockIdx[in.BlockArg(0)], Block2: b.blockIdx[in.BlockArg(1)]}
			bd.Roots = append(bd.Roots, t)
			continue
		case in.Op == ir.OpRet:
			t := &Node{Op: NRet}
			if in.NumArgs() == 1 {
				v, err := argN(0)
				if err != nil {
					return nil, err
				}
				t.Args = []*Node{v}
				t.Bits = width(in.Arg(0).Type())
			}
			bd.Roots = append(bd.Roots, t)
			continue
		case in.Op == ir.OpUnreachable:
			bd.Roots = append(bd.Roots, &Node{Op: NUnreachable})
			continue
		default:
			return nil, fmt.Errorf("sdag: cannot lower %s", in.Op)
		}
		local[in] = n
		// Every computation is anchored as a root in program order, so
		// instruction selection emits it before any later phi-vreg
		// copies that could overwrite its inputs. Cross-block values
		// are additionally published through their vreg.
		if vr, ok := b.vreg[in]; ok {
			bd.Roots = append(bd.Roots, &Node{Op: NCopyToVReg, Bits: n.Bits, VReg: vr, Args: []*Node{n}})
		} else if in.Op != ir.OpCall {
			bd.Roots = append(bd.Roots, n)
		}
	}
	return bd, nil
}

// countUses fills Node.Uses for fusion decisions.
func countUses(fd *FuncDAG) {
	var walk func(n *Node)
	seen := map[*Node]bool{}
	walk = func(n *Node) {
		for _, a := range n.Args {
			a.Uses++
			if !seen[a] {
				seen[a] = true
				walk(a)
			}
		}
	}
	for _, b := range fd.Blocks {
		for _, r := range b.Roots {
			if !seen[r] {
				seen[r] = true
				walk(r)
			}
		}
	}
}
