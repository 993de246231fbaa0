package mi

import (
	"fmt"
	mathbits "math/bits"
	"sort"

	"tameir/internal/target"
)

// Register allocation: liveness analysis over virtual registers,
// coarse live intervals, and a linear scan over target.R0..R11.
// Virtual registers live across a CALL are pre-spilled (the calling
// convention is caller-clobbers-everything), and spilled values are
// accessed through the two scratch registers R12/R13.
//
// The paper's prototype "reserves a register for each poison value";
// VX64 reserves the single pinned undef register target.UR, which the
// allocator never touches — the §6 lowering reads it directly.

// regUses returns the registers, virtual or physical, an instruction
// reads (at most two) and writes (at most one), -1 where there is none.
// Two-address instructions (DstIsRead) report Dst as both.
func regUses(in VInstr) (uses [2]int, def int) {
	uses, def = [2]int{-1, -1}, -1
	switch in.Op {
	case target.MOVri, target.SETcc, target.POP:
		def = in.Dst
	case target.MOVrr, target.MOVSX, target.MOVZX, target.LOAD:
		def = in.Dst
		uses[0] = in.Src
	case target.ADDrr, target.SUBrr, target.IMULrr, target.ANDrr, target.ORrr,
		target.XORrr, target.SHLrr, target.SHRrr, target.SARrr,
		target.UDIVrr, target.SDIVrr, target.UREMrr, target.SREMrr,
		target.CMOVcc:
		def = in.Dst
		uses = [2]int{in.Dst, in.Src}
	case target.ADDri, target.ANDri, target.ORri, target.XORri,
		target.SHLri, target.SHRri, target.SARri:
		def = in.Dst
		uses[0] = in.Dst
	case target.LEA:
		def = in.Dst
		uses[0] = in.Src
		if in.Scale != 0 {
			uses[1] = in.Src2
		}
	case target.CMPrr, target.STORE:
		uses = [2]int{in.Dst, in.Src}
	case target.CMPri:
		uses[0] = in.Dst
	case target.PUSH:
		uses[0] = in.Src
	}
	return uses, def
}

// blockLiveness holds, for each block of a VFunc, the virtual registers
// it reads before writing (use), writes (def), and that are live into
// and out of it, as bitset rows: bit i of a row stands for virtual
// register firstVirtual+i. The rows sit in one flat slice, four per
// block in that order.
type blockLiveness struct {
	words int // 64-bit words per row
	rows  []uint64
}

const (
	useRow = iota
	defRow
	inRow
	outRow
	numRows
)

func (l *blockLiveness) row(block, kind int) []uint64 {
	i := (numRows*block + kind) * l.words
	return l.rows[i : i+l.words]
}

// forEachVReg calls fn with each virtual register whose bit is set in
// row.
func forEachVReg(row []uint64, fn func(v int)) {
	for w, bits := range row {
		for bits != 0 {
			fn(firstVirtual + 64*w + mathbits.TrailingZeros64(bits))
			bits &= bits - 1
		}
	}
}

// liveness solves block-level liveness over vf's virtual registers: a
// block's successors are the targets of its JMP and Jcc instructions,
// live-out is the union of their live-ins, and live-in is use plus
// live-out minus def. Sweeps run from the last block to the first,
// word by word, until nothing changes: the least fixpoint.
func liveness(vf *VFunc) blockLiveness {
	nb := len(vf.Blocks)
	l := blockLiveness{words: (max(vf.NumV-firstVirtual, 0) + 63) / 64}
	l.rows = make([]uint64, numRows*nb*l.words)
	succOff := make([]int, nb+1)
	var succs []int
	for bi, b := range vf.Blocks {
		use, def := l.row(bi, useRow), l.row(bi, defRow)
		for _, in := range b {
			switch in.Op {
			case target.JMP, target.Jcc:
				succs = append(succs, in.Target)
			}
			us, d := regUses(in)
			for _, u := range us {
				if u -= firstVirtual; u >= 0 && def[u/64]&(1<<(u%64)) == 0 {
					use[u/64] |= 1 << (u % 64)
				}
			}
			if d -= firstVirtual; d >= 0 {
				def[d/64] |= 1 << (d % 64)
			}
		}
		succOff[bi+1] = len(succs)
	}
	for changed := true; changed; {
		changed = false
		for bi := nb - 1; bi >= 0; bi-- {
			use, def := l.row(bi, useRow), l.row(bi, defRow)
			in, out := l.row(bi, inRow), l.row(bi, outRow)
			for w := range out {
				var o uint64
				for _, s := range succs[succOff[bi]:succOff[bi+1]] {
					o |= l.row(s, inRow)[w]
				}
				if i := use[w] | o&^def[w]; o != out[w] || i != in[w] {
					out[w], in[w] = o, i
					changed = true
				}
			}
		}
	}
	return l
}

// Allocate performs register allocation and returns the finished
// machine function.
func Allocate(vf *VFunc) (*target.MFunc, error) {
	nv := vf.NumV
	// Positions: global instruction index.
	blockStart := make([]int, len(vf.Blocks))
	blockEnd := make([]int, len(vf.Blocks))
	p := 0
	for bi, b := range vf.Blocks {
		blockStart[bi] = p
		p += len(b)
		blockEnd[bi] = p - 1
	}
	live := liveness(vf)

	// Coarse intervals.
	start := make([]int, nv)
	end := make([]int, nv)
	for v := range start {
		start[v] = -1
	}
	touch := func(v, at int) {
		if v < firstVirtual {
			return
		}
		if start[v] < 0 || at < start[v] {
			start[v] = at
		}
		if at > end[v] {
			end[v] = at
		}
	}
	pi := 0
	var callPositions []int
	for bi, b := range vf.Blocks {
		forEachVReg(live.row(bi, inRow), func(v int) { touch(v, blockStart[bi]) })
		forEachVReg(live.row(bi, outRow), func(v int) { touch(v, blockEnd[bi]) })
		for _, in := range b {
			us, d := regUses(in)
			touch(us[0], pi)
			touch(us[1], pi)
			touch(d, pi)
			if in.Op == target.CALL {
				callPositions = append(callPositions, pi)
			}
			pi++
		}
	}

	// Spill decisions: intervals crossing a call spill.
	spilled := make([]bool, nv)
	for v := firstVirtual; v < nv; v++ {
		if start[v] < 0 {
			continue
		}
		for _, cp := range callPositions {
			if start[v] < cp && cp < end[v] {
				spilled[v] = true
				break
			}
		}
	}

	// Linear scan over the rest.
	type interval struct{ v, s, e int }
	ivs := make([]interval, 0, max(nv-firstVirtual, 0))
	for v := firstVirtual; v < nv; v++ {
		if start[v] >= 0 && !spilled[v] {
			ivs = append(ivs, interval{v, start[v], end[v]})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })

	assigned := make([]int, nv) // phys reg, or -1
	for i := range assigned {
		assigned[i] = -1
	}
	freeRegs := make([]bool, target.NumAllocatable)
	for i := range freeRegs {
		freeRegs[i] = true
	}
	var active []interval
	for _, iv := range ivs {
		// Expire.
		na := active[:0]
		for _, a := range active {
			if a.e < iv.s {
				freeRegs[assigned[a.v]] = true
			} else {
				na = append(na, a)
			}
		}
		active = na
		// Assign.
		reg := -1
		for r := 0; r < target.NumAllocatable; r++ {
			if freeRegs[r] {
				reg = r
				break
			}
		}
		if reg >= 0 {
			freeRegs[reg] = false
			assigned[iv.v] = reg
			active = append(active, iv)
			continue
		}
		// Spill the active interval with the furthest end, or this one.
		worst := -1
		for i, a := range active {
			if a.e > iv.e && (worst < 0 || a.e > active[worst].e) {
				worst = i
			}
		}
		if worst >= 0 {
			victim := active[worst]
			spilled[victim.v] = true
			assigned[iv.v] = assigned[victim.v]
			assigned[victim.v] = -1
			active[worst] = iv
		} else {
			spilled[iv.v] = true
		}
	}

	// Frame slots for spills, above the alloca area.
	slotOf := make([]int64, nv)
	frame := int64(vf.FrameSize)
	for v := firstVirtual; v < nv; v++ {
		if spilled[v] {
			slotOf[v] = frame
			frame += 8
		}
	}

	// Rewrite instructions.
	mf := &target.MFunc{
		Name:      vf.Name,
		FrameSize: uint32(frame),
		NumParams: vf.NumParams,
		Blocks:    make([][]target.Instr, 0, len(vf.Blocks)),
	}
	physOf := func(v int) (target.Reg, bool) {
		if v < firstVirtual {
			return target.Reg(v), true
		}
		if r := assigned[v]; r >= 0 {
			return target.Reg(r), true
		}
		return 0, false
	}
	for _, b := range vf.Blocks {
		// One instruction out per instruction in, plus the loads and
		// stores of spilled vregs.
		out := make([]target.Instr, 0, len(b))
		for _, in := range b {
			// Map the (at most two) spilled uses to scratch regs.
			scratch := []target.Reg{target.R12, target.R13}
			si := 0
			regFor := func(v int, isUse bool) (target.Reg, error) {
				if v < 0 {
					return target.R0, nil
				}
				if r, ok := physOf(v); ok {
					return r, nil
				}
				// Spilled.
				if si >= len(scratch) {
					if !isUse {
						// A write-only destination may reuse the first
						// scratch: it is written after all uses are read.
						return scratch[0], nil
					}
					return 0, fmt.Errorf("mi: out of scratch registers in %s", vf.Name)
				}
				r := scratch[si]
				si++
				if isUse {
					out = append(out, target.Instr{Op: target.LOAD, Dst: r, Src: target.FP, Imm: slotOf[v], Size: 8})
				}
				return r, nil
			}

			ni := target.Instr{Op: in.Op, Imm: in.Imm, Scale: in.Scale, Size: in.Size, Cond: in.Cond, Target: in.Target}
			if in.ParamIndex > 0 {
				ni.Imm = frame + 8*int64(in.ParamIndex-1)
			}
			var spillDst int = -1
			var dstReg target.Reg

			// Dst handling depends on whether it is read.
			if in.Dst >= 0 {
				_, isDef := dstRole(in)
				isRead := in.DstIsRead || dstIsUse(in)
				r, err := regFor(in.Dst, isRead)
				if err != nil {
					return nil, err
				}
				dstReg = r
				ni.Dst = r
				if isDef && in.Dst >= firstVirtual && spilled[in.Dst] {
					spillDst = in.Dst
				}
			}
			if in.Src >= 0 {
				r, err := regFor(in.Src, true)
				if err != nil {
					return nil, err
				}
				ni.Src = r
			}
			if in.Src2 >= 0 && in.Scale != 0 {
				r, err := regFor(in.Src2, true)
				if err != nil {
					return nil, err
				}
				ni.Src2 = r
			}
			out = append(out, ni)
			if spillDst >= 0 {
				out = append(out, target.Instr{Op: target.STORE, Dst: target.FP, Src: dstReg, Imm: slotOf[spillDst], Size: 8})
			}
		}
		mf.Blocks = append(mf.Blocks, out)
	}
	return mf, nil
}

// dstRole reports whether Dst is (used, defined) for the opcode.
func dstRole(in VInstr) (used, defined bool) {
	switch in.Op {
	case target.CMPrr, target.CMPri, target.STORE:
		return true, false
	case target.MOVri, target.MOVrr, target.MOVSX, target.MOVZX,
		target.SETcc, target.LOAD, target.LEA, target.POP:
		return false, true
	}
	// ALU two-address family.
	return true, true
}

func dstIsUse(in VInstr) bool {
	u, _ := dstRole(in)
	return u
}
