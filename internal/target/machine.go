package target

import "fmt"

// MemSize is the size of the simulated flat memory. The stack starts
// at the top and grows down; globals are loaded at GlobalBase.
const MemSize = 1 << 20

// DefaultMaxInstrs bounds a single Run so non-terminating programs
// fail instead of hanging the harness.
const DefaultMaxInstrs = 200_000_000

// Machine is the VX64 simulator: a register file, flat memory, and the
// cycle model described in DESIGN.md (including the LEA high-register
// penalty).
type Machine struct {
	Regs [NumRegs]uint64
	Mem  []byte

	// Cycles and Instrs accumulate over Run.
	Cycles uint64
	Instrs uint64

	// MaxInstrs bounds one Run (0 = DefaultMaxInstrs).
	MaxInstrs uint64

	prog *Program

	// flags holds the operands of the last CMP; conditions are
	// evaluated against them on demand.
	flagA, flagB uint64
}

// NewMachine creates a machine with the program's globals loaded and
// SP/FP at the top of memory. The pinned undef register UR reads as an
// arbitrary but fixed value — zero, which also makes a load through UR
// a null dereference (the backend lowers unreachable that way).
func NewMachine(p *Program) *Machine {
	m := &Machine{Mem: make([]byte, MemSize), prog: p}
	addrs := LayoutGlobals(p.Globals)
	for i, g := range p.Globals {
		copy(m.Mem[addrs[i]:], g.Init)
	}
	m.Regs[SP] = MemSize
	m.Regs[FP] = MemSize
	return m
}

// frame is one activation record; frames live host-side, only
// arguments and spills live in simulated memory.
type frame struct {
	fn, blk, idx int
	savedFP      uint64
}

func (m *Machine) load(addr uint64, size uint8) (uint64, error) {
	if addr < GlobalBase || addr+uint64(size) > uint64(len(m.Mem)) {
		return 0, fmt.Errorf("vx64: load fault at %#x", addr)
	}
	var v uint64
	for i := uint8(0); i < size; i++ {
		v |= uint64(m.Mem[addr+uint64(i)]) << (8 * i)
	}
	return v, nil
}

func (m *Machine) store(addr uint64, size uint8, v uint64) error {
	if addr < GlobalBase || addr+uint64(size) > uint64(len(m.Mem)) {
		return fmt.Errorf("vx64: store fault at %#x", addr)
	}
	for i := uint8(0); i < size; i++ {
		m.Mem[addr+uint64(i)] = byte(v >> (8 * i))
	}
	return nil
}

// cost is the cycle model (DESIGN.md, "VX64 size and cycle model"):
// ALU, move, compare and LEA 1, multiply 3, divide and remainder 20,
// load and store 3, push and pop 2, CALL and RET 2, and JMP and Jcc 1
// whether or not the branch is taken. The Queens quirk: LEA with a high
// register (R8–R13) in its address takes 3 cycles instead of 1.
func cost(in Instr) uint64 {
	switch in.Op {
	case IMULrr:
		return 3
	case UDIVrr, SDIVrr, UREMrr, SREMrr:
		return 20
	case LOAD, STORE:
		return 3
	case PUSH, POP:
		return 2
	case CALL, RET:
		return 2
	case LEA:
		if (in.Src >= R8 && in.Src <= R13) || (in.Scale != 0 && in.Src2 >= R8 && in.Src2 <= R13) {
			return 3
		}
		return 1
	}
	return 1
}

func signExtend(v uint64, bytes uint8) uint64 {
	shift := 64 - 8*uint(bytes)
	return uint64(int64(v<<shift) >> shift)
}

func zeroExtend(v uint64, bytes uint8) uint64 {
	if bytes >= 8 {
		return v
	}
	return v & (1<<(8*uint(bytes)) - 1)
}

// Run executes function fi until its outermost RET and returns R0.
// It may be called repeatedly; Cycles and Instrs accumulate.
func (m *Machine) Run(fi int) (uint64, error) {
	if fi < 0 || fi >= len(m.prog.Funcs) {
		return 0, fmt.Errorf("vx64: no function %d", fi)
	}
	maxInstrs := m.MaxInstrs
	if maxInstrs == 0 {
		maxInstrs = DefaultMaxInstrs
	}

	var stack []frame
	fn, blk, idx := fi, 0, 0
	f := m.prog.Funcs[fn]
	// Prologue: allocate the frame, point FP at its base.
	m.Regs[SP] -= uint64(f.FrameSize)
	m.Regs[FP] = m.Regs[SP]

	for {
		if blk >= len(f.Blocks) {
			return 0, fmt.Errorf("vx64: %s: branch to missing block %d", f.Name, blk)
		}
		if idx >= len(f.Blocks[blk]) {
			return 0, fmt.Errorf("vx64: %s: fell off the end of block %d", f.Name, blk)
		}
		in := f.Blocks[blk][idx]
		m.Instrs++
		m.Cycles += cost(in)
		if m.Instrs > maxInstrs {
			return 0, fmt.Errorf("vx64: instruction budget exhausted in %s", f.Name)
		}
		idx++

		r := m.Regs[:]
		switch in.Op {
		case MOVri:
			r[in.Dst] = uint64(in.Imm)
		case MOVrr:
			r[in.Dst] = r[in.Src]
		case MOVSX:
			r[in.Dst] = signExtend(r[in.Src], in.Size)
		case MOVZX:
			r[in.Dst] = zeroExtend(r[in.Src], in.Size)
		case ADDrr:
			r[in.Dst] += r[in.Src]
		case SUBrr:
			r[in.Dst] -= r[in.Src]
		case IMULrr:
			r[in.Dst] *= r[in.Src]
		case ANDrr:
			r[in.Dst] &= r[in.Src]
		case ORrr:
			r[in.Dst] |= r[in.Src]
		case XORrr:
			r[in.Dst] ^= r[in.Src]
		case SHLrr:
			r[in.Dst] <<= r[in.Src] & 63
		case SHRrr:
			r[in.Dst] >>= r[in.Src] & 63
		case SARrr:
			r[in.Dst] = uint64(int64(r[in.Dst]) >> (r[in.Src] & 63))
		case UDIVrr, UREMrr:
			d := r[in.Src]
			if d == 0 {
				return 0, fmt.Errorf("vx64: #DE division by zero in %s", f.Name)
			}
			if in.Op == UDIVrr {
				r[in.Dst] /= d
			} else {
				r[in.Dst] %= d
			}
		case SDIVrr, SREMrr:
			n, d := int64(r[in.Dst]), int64(r[in.Src])
			if d == 0 {
				return 0, fmt.Errorf("vx64: #DE division by zero in %s", f.Name)
			}
			if n == -1<<63 && d == -1 {
				return 0, fmt.Errorf("vx64: #DE division overflow in %s", f.Name)
			}
			if in.Op == SDIVrr {
				r[in.Dst] = uint64(n / d)
			} else {
				r[in.Dst] = uint64(n % d)
			}
		case ADDri:
			r[in.Dst] += uint64(in.Imm)
		case ANDri:
			r[in.Dst] &= uint64(in.Imm)
		case ORri:
			r[in.Dst] |= uint64(in.Imm)
		case XORri:
			r[in.Dst] ^= uint64(in.Imm)
		case SHLri:
			r[in.Dst] <<= uint64(in.Imm) & 63
		case SHRri:
			r[in.Dst] >>= uint64(in.Imm) & 63
		case SARri:
			r[in.Dst] = uint64(int64(r[in.Dst]) >> (uint64(in.Imm) & 63))
		case CMPrr:
			m.flagA, m.flagB = r[in.Dst], r[in.Src]
		case CMPri:
			m.flagA, m.flagB = r[in.Dst], uint64(in.Imm)
		case SETcc:
			if in.Cond.Holds(m.flagA, m.flagB) {
				r[in.Dst] = 1
			} else {
				r[in.Dst] = 0
			}
		case CMOVcc:
			if in.Cond.Holds(m.flagA, m.flagB) {
				r[in.Dst] = r[in.Src]
			}
		case LEA:
			a := r[in.Src] + uint64(in.Imm)
			if in.Scale != 0 {
				a += r[in.Src2] * uint64(in.Scale)
			}
			r[in.Dst] = a
		case LOAD:
			v, err := m.load(r[in.Src]+uint64(in.Imm), in.Size)
			if err != nil {
				return 0, err
			}
			r[in.Dst] = v
		case STORE:
			if err := m.store(r[in.Dst]+uint64(in.Imm), in.Size, r[in.Src]); err != nil {
				return 0, err
			}
		case PUSH:
			r[SP] -= 8
			if err := m.store(r[SP], 8, r[in.Src]); err != nil {
				return 0, err
			}
		case POP:
			v, err := m.load(r[SP], 8)
			if err != nil {
				return 0, err
			}
			r[in.Dst] = v
			r[SP] += 8
		case JMP:
			blk, idx = in.Target, 0
		case Jcc:
			if in.Cond.Holds(m.flagA, m.flagB) {
				blk, idx = in.Target, 0
			}
		case CALL:
			if in.Target < 0 || in.Target >= len(m.prog.Funcs) {
				return 0, fmt.Errorf("vx64: call to missing function %d", in.Target)
			}
			stack = append(stack, frame{fn: fn, blk: blk, idx: idx, savedFP: r[FP]})
			fn, blk, idx = in.Target, 0, 0
			f = m.prog.Funcs[fn]
			r[SP] -= uint64(f.FrameSize)
			r[FP] = r[SP]
		case RET:
			r[SP] += uint64(f.FrameSize)
			if len(stack) == 0 {
				return r[R0], nil
			}
			fr := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			fn, blk, idx = fr.fn, fr.blk, fr.idx
			r[FP] = fr.savedFP
			f = m.prog.Funcs[fn]
		default:
			return 0, fmt.Errorf("vx64: cannot execute %s", in)
		}
	}
}
