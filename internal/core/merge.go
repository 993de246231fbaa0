package core

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	mbits "math/bits"
	"slices"

	"tameir/internal/ir"
)

// State merging. An enumeration (EnumOracle) runs one choice path per
// execution, and each execution replays its prefix from the first
// instruction; under the legacy semantics, where every use of undef is
// its own choice, many paths pass through identical states on the way
// (`add %p0, %p0` on an undef %p0 makes 16 paths but 4 values). Merging
// stops a run at the first state an earlier path already reached: the
// run ends in OutMerged, Next drops the unused tail of its path as it
// always does, and so skips the whole subtree below that state, whose
// outcomes are already in the set.
//
// The rules that keep it exact:
//
//   - Fresh boundaries only. After every new choice the compiled engine
//     checks the next instruction boundary, once: a boundary counts only
//     if the run chose at or beyond the position the last Next advanced
//     since the last check (EnumOracle.mark). Boundaries a run reaches
//     by replaying the previous path's prefix are never recorded or
//     matched.
//   - The key is everything the rest of the run depends on: the pc
//     (block and step), the remaining fuel, the oracle position, and
//     every register not provably dead (liveness may over-approximate,
//     never under-approximate; phi moves count as uses at the end of
//     the predecessor).
//   - Why a match may skip. The enumeration is depth-first in
//     lexicographic order. Two keys with equal positions but different
//     prefixes mean the earlier prefix is the smaller one, so its
//     subtree — every completion of that prefix, a function of the key
//     alone, MaxChoices included — has been enumerated in full. Equal
//     prefixes with equal fuel would be the same boundary, which only
//     replay reaches. A matched record is therefore always closed;
//     visit panics if it is not.
//   - The path count. Each record keeps the number of paths (leaves) in
//     its subtree, taken when Next leaves that subtree; a merged run
//     stands for that many paths (EnumOracle.LastPaths), so MaxExecs and
//     execution counts keep counting choice paths. Overflowed, timeouts
//     and cycle exits inside a skipped subtree were recorded the first
//     time it ran.
//   - Only where the frame is the whole state: at call depth 1, in runs
//     Cycles.Arm would also treat as exact (no memory),
//     on an EnumOracle whose enumeration turned merging on
//     (EnableMerging). The tree-walking interpreter never merges.

// Merges is the compiled engine's handle on state merging, armed once
// per top-level run beside Cycles. The zero value never merges.
type Merges struct {
	o    *EnumOracle // the run's oracle while the run may merge; nil otherwise
	prog *Program    // the program whose liveness trims the keys
}

// Arm readies the handle for a top-level run of p on o. exact has the
// meaning it has for Cycles.Arm.
func (m *Merges) Arm(o Oracle, exact bool, p *Program) {
	m.o = nil
	if e, ok := o.(*EnumOracle); ok && exact && e.merging {
		m.o, m.prog = e, p
	}
}

// Due reports whether the run may merge and has made a new choice since
// its last check: the engine's per-boundary test.
func (m *Merges) Due() bool { return m.o != nil && m.o.pos > m.o.mark }

// Exit ends a merged run: it counts the exit in em and returns the
// OutMerged outcome.
func (m *Merges) Exit(em *EngineMetrics) Outcome {
	em.MergeExits++
	return Outcome{Kind: OutMerged}
}

// visitFrame checks the depth-1 frame, about to run step j of block bi
// with fuel left: it reports whether an earlier path reached the same
// state, and records the state otherwise.
func (m *Merges) visitFrame(bi, j int32, fuel int, regs []Value) bool {
	lv := m.prog.liveness()
	k := m.o.table().begin(uint64(bi), uint64(j), fuel, m.o.pos)
	for w, bits := range lv.at(int(lv.start[bi]) + int(j)) {
		for ; bits != 0; bits &= bits - 1 {
			k = appendValue(k, regs[w*64+mbits.TrailingZeros64(bits)])
		}
	}
	return m.o.visit(k)
}

// appendScalar encodes one lane: its kind, then its bits when concrete.
func appendScalar(k []byte, s Scalar) []byte {
	k = append(k, byte(s.Kind))
	if s.Kind == Concrete {
		k = binary.AppendUvarint(k, s.Bits)
	}
	return k
}

// appendValue encodes one register: 0xff when unset, else its type and
// lanes.
func appendValue(k []byte, v Value) []byte {
	if v.Lanes == nil {
		return append(k, 0xff)
	}
	k = append(k, byte(v.Ty.Kind), byte(v.Ty.Elem))
	k = binary.AppendUvarint(k, uint64(v.Ty.Bits))
	k = binary.AppendUvarint(k, uint64(v.Ty.Len))
	k = binary.AppendUvarint(k, uint64(len(v.Lanes)))
	for _, l := range v.Lanes {
		k = appendScalar(k, l)
	}
	return k
}

// mergeTable holds one enumeration's records: an open-addressed hash
// set of keys over one byte arena, reused from enumeration to
// enumeration so a worker's steady state allocates nothing.
type mergeTable struct {
	keys  []byte     // recorded keys, concatenated
	recs  []mergeRec // records in recording order
	slots []int32    // hash slots: record index + 1; 0 is empty
	open  []int32    // records whose subtree is still being enumerated, by increasing pos
	paths uint64     // choice paths enumerated before the current run
	key   []byte     // scratch for the key being built
}

type mergeRec struct {
	hash   uint64
	off, n uint32 // the key: keys[off : off+n]
	slot   int32  // its hash slot
	pos    int    // oracle position at the boundary: the subtree's depth
	start  uint64 // paths enumerated before the recording run
	leaves uint64 // paths in the subtree once closed; 0 while open
}

// maxMergeRecords bounds one enumeration's records; past it, runs still
// match what was recorded but record nothing new.
const maxMergeRecords = 1 << 14

var mergeSeed = maphash.MakeSeed()

// reset empties the table, keeping its storage.
func (t *mergeTable) reset() {
	for _, r := range t.recs {
		t.slots[r.slot] = 0
	}
	t.keys, t.recs, t.open = t.keys[:0], t.recs[:0], t.open[:0]
	t.paths = 0
}

// begin starts a key in the scratch buffer.
func (t *mergeTable) begin(block, step uint64, fuel, pos int) []byte {
	k := binary.AppendUvarint(t.key[:0], block)
	k = binary.AppendUvarint(k, step)
	k = binary.AppendVarint(k, int64(fuel))
	return binary.AppendUvarint(k, uint64(pos))
}

// find returns the record holding key (or -1) and the slot where the
// probe stopped.
func (t *mergeTable) find(h uint64, key []byte) (int32, int32) {
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := t.slots[i]
		if e == 0 {
			return -1, int32(i)
		}
		r := &t.recs[e-1]
		if r.hash == h && bytes.Equal(t.keys[r.off:r.off+r.n], key) {
			return e - 1, int32(i)
		}
	}
}

// grow doubles the slot array and rehashes every record.
func (t *mergeTable) grow() {
	n := 2 * len(t.slots)
	if n < 64 {
		n = 64
	}
	t.slots = make([]int32, n)
	mask := uint64(n - 1)
	for ri := range t.recs {
		r := &t.recs[ri]
		i := r.hash & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(ri) + 1
		r.slot = int32(i)
	}
}

// table returns the oracle's record table, making it on the first
// check, so enumerations that never reach a fresh boundary allocate
// nothing.
func (o *EnumOracle) table() *mergeTable {
	if o.merge == nil {
		o.merge = new(mergeTable)
	}
	return o.merge
}

// visit checks the key of a fresh boundary at the oracle's position:
// it reports whether an earlier path reached it, and records it
// otherwise. Either way the run is checked up to here.
func (o *EnumOracle) visit(key []byte) bool {
	t := o.merge
	t.key = key
	o.mark = o.pos
	if len(t.recs) < maxMergeRecords && 2*(len(t.recs)+1) > len(t.slots) {
		t.grow()
	}
	h := maphash.Bytes(mergeSeed, key)
	ri, slot := t.find(h, key)
	if ri >= 0 {
		r := &t.recs[ri]
		if r.leaves == 0 {
			panic("core: state merging matched a subtree still being enumerated")
		}
		o.leaves = r.leaves
		return true
	}
	if len(t.recs) >= maxMergeRecords {
		return false
	}
	t.slots[slot] = int32(len(t.recs)) + 1
	t.recs = append(t.recs, mergeRec{
		hash: h, off: uint32(len(t.keys)), n: uint32(len(key)), slot: slot,
		pos: o.pos, start: t.paths,
	})
	t.keys = append(t.keys, key...)
	t.open = append(t.open, int32(len(t.recs)-1))
	return false
}

// advance accounts for the run that just ended (leaves paths) and for
// Next advancing position i: every open record deeper than i has had
// its whole subtree enumerated.
func (t *mergeTable) advance(leaves uint64, i int) {
	t.paths += leaves
	n := len(t.open)
	for n > 0 && t.recs[t.open[n-1]].pos > i {
		r := &t.recs[t.open[n-1]]
		r.leaves = t.paths - r.start
		n--
	}
	t.open = t.open[:n]
}

// liveness is the register liveness of one function over the compiled
// engine's slot numbering (params, then every non-void instruction in
// block order), at the boundary before each non-phi instruction.
type liveness struct {
	words int      // bitset words per boundary
	sets  []uint64 // live slots before each non-phi instruction, by ordinal
	start []int32  // per block: ordinal of its first non-phi instruction
}

// at returns the live-slot bitset at the boundary before the non-phi
// instruction with ordinal g.
func (lv *liveness) at(g int) []uint64 { return lv.sets[g*lv.words : (g+1)*lv.words] }

// liveness returns the program's liveness, computing it on first use:
// programs that never reach a fresh boundary compute nothing.
func (p *Program) liveness() *liveness {
	if lv := p.live.Load(); lv != nil {
		return lv
	}
	lv := computeLiveness(p)
	p.live.Store(lv) // racing computations store equal results
	return lv
}

// computeLiveness runs the backward dataflow over p's function to its
// fixpoint.
func computeLiveness(p *Program) *liveness {
	fn := p.fn
	nSlots := len(fn.Params)
	nOrd := 0
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs() {
			if !in.Ty.IsVoid() {
				nSlots++
			}
			if in.Op != ir.OpPhi {
				nOrd++
			}
		}
	}
	words := (nSlots + 63) / 64
	nb := len(fn.Blocks)
	// One boundary set per ordinal, an always-empty one past the last
	// (a block without steps falls through at once), and the scratch.
	sets := make([]uint64, (nOrd+2)*words)
	lv := &liveness{words: words, sets: sets[:(nOrd+1)*words], start: make([]int32, nb+1)}
	cur := sets[(nOrd+1)*words:]
	g := int32(0)
	for bi, b := range fn.Blocks {
		lv.start[bi] = g
		for _, in := range b.Instrs() {
			if in.Op != ir.OpPhi {
				g++
			}
		}
	}
	lv.start[nb] = g

	// The compiler's positional lookups resolve operands and blocks
	// exactly as the compiled code does, without a map per function.
	c := &compiler{p: p}
	slotOf := func(v ir.Value) int {
		var s int32
		ok := false
		switch x := v.(type) {
		case *ir.Param:
			s, ok = c.slotOfParam(x)
		case *ir.Instr:
			s, ok = c.slotOfInstr(x)
		}
		if !ok {
			return -1
		}
		return int(s)
	}
	add := func(s int) {
		if s >= 0 {
			cur[s/64] |= 1 << (s % 64)
		}
	}

	for changed := true; changed; {
		changed = false
		for bi := nb - 1; bi >= 0; bi-- {
			b := fn.Blocks[bi]
			instrs := b.Instrs()
			clear(cur) // past the last step the block falls through: nothing is read
			g := int(lv.start[bi+1])
			for k := len(instrs) - 1; k >= 0; k-- {
				in := instrs[k]
				if in.Op == ir.OpPhi {
					continue // assigned by the incoming edge
				}
				g--
				if in.Op == ir.OpBr {
					// An edge reads its phi sources, then writes the phis:
					// live = sources ∪ (live at the target − phis).
					for _, s := range in.Succs() {
						ti := c.blockIndex(s)
						tgt := lv.at(int(lv.start[ti]))
						if lv.start[ti] == lv.start[ti+1] {
							tgt = lv.at(nOrd)
						}
						for w := range cur {
							dead := uint64(0)
							for _, ph := range s.Phis() {
								if d := slotOf(ph); d >= 0 && d/64 == w {
									dead |= 1 << (d % 64)
								}
							}
							cur[w] |= tgt[w] &^ dead
						}
						for _, ph := range s.Phis() {
							if src, ok := ph.PhiIncoming(b); ok {
								add(slotOf(src))
							}
						}
					}
				}
				if d := slotOf(in); d >= 0 {
					cur[d/64] &^= 1 << (d % 64)
				}
				for _, a := range in.Args() {
					add(slotOf(a))
				}
				if dst := lv.at(g); !slices.Equal(dst, cur) {
					copy(dst, cur)
					changed = true
				}
			}
		}
	}
	return lv
}
