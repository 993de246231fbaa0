package core

import "tameir/internal/ir"

// Cycles stops executions that provably never terminate. The compiled
// engine arms it at the start of every run, and execFrame hands it
// every backward jump — a branch to a block at or before the current
// one in layout order, which every loop contains — together with the
// jump's target, the frame's registers after the edge's phi moves, the
// call depth and the run's oracle. It keeps one snapshot of that state
// and compares each later jump against it, retaking the snapshot
// whenever the number of jumps since the last one reaches a power of
// two (Brent's cycle detection), so a cycle of λ jumps entered after μ
// jumps is found within about 2·max(μ, λ)+λ jumps.
//
// A repeat proves divergence only when the jump's state is the whole
// state the rest of the run depends on. Arm decides that once per run:
//
//   - the run is exact: the program touches no memory
//     (needsMem is false for the whole call graph), so registers, the
//     oracle and the call stack are everything, and Options.EmitTrace
//     is off, so no tracer observes the steps the exit skips;
//   - the oracle is replayable: ZeroOracle, or an *EnumOracle, whose
//     answer at each position is fixed for the execution, so its
//     future answers depend on pos alone — and pos moves whenever a
//     Choose can answer differently.
//
// The snapshot belongs to one activation: Return drops it when that
// activation returns, so a later activation of the same function at the
// same depth, which may repeat the state and still return, never
// matches it. Between two visits of the same state by the same
// activation, pos stayed fixed (it never decreases within a run), so
// every Choose in between answered 0 at the MaxChoices limit, and
// every callee ran on the same arguments and returned. Hence the run
// repeats that stretch until the fuel runs out, and running it to the
// fuel point would give the same Outcome{Kind: OutTimeout}, the same
// Choose sequence and the same EnumOracle.Overflowed flag (anything the
// stretch sets, it has set once already). Exit zeroes the fuel, as the
// fuel limit would. Only Steps and the time taken differ. The
// tree-walking interpreter never exits early; it is the reference
// TestCompiledMatchesInterpreter holds the exit to.
//
// The zero value is an eight-byte handle. The detector behind it is
// allocated on the first backward jump of a run that can exit early
// and reused by the handle's later runs, so loop-free runs allocate
// nothing. A run that cannot exit early has Arm allocate it idle, so a
// handle without a detector always belongs to a run that can.
type Cycles struct{ d *cycleDetector }

type cycleDetector struct {
	on   bool        // the current run can exit early
	enum *EnumOracle // the run's oracle when it enumerates; nil for ZeroOracle

	// The snapshot.
	depth int   // call depth of the snapshot's activation; 0: none
	block int32 // jump target block
	pos   int   // oracle position
	n     int   // jumps compared against the snapshot so far
	power int   // jumps after which the snapshot is retaken

	vals  []cycleVal // registers: type and lane count
	lanes []Scalar   // registers' lanes, concatenated
}

type cycleVal struct {
	ty ir.Type
	n  int // lane count; -1 for an unset register
}

// replayable reports whether o's future answers depend on its position
// alone, and returns the *EnumOracle that holds the position (nil for
// ZeroOracle, which has none).
func replayable(o Oracle) (*EnumOracle, bool) {
	switch x := o.(type) {
	case *EnumOracle:
		return x, true
	case ZeroOracle:
		return nil, true
	}
	return nil, false
}

// Arm readies the detector for a new top-level execution on o. exact
// reports that the program touches no memory and emits no trace.
func (c *Cycles) Arm(o Oracle, exact bool) {
	if c.d == nil && exact {
		if _, ok := replayable(o); ok {
			return // Repeats allocates the detector on the first backward jump
		}
	}
	c.rearm(o, exact)
}

// rearm allocates the detector if there is none and arms it for a run
// on o.
func (c *Cycles) rearm(o Oracle, exact bool) {
	if c.d == nil {
		c.d = new(cycleDetector)
	}
	d := c.d
	enum, ok := replayable(o)
	d.on, d.enum = ok && exact, enum
	d.depth, d.n, d.power = 0, 0, 1
}

// Repeats records a backward jump to block at call depth depth, with
// the frame's registers v and the run's oracle o, and reports whether
// the same activation has been in exactly this state before in a run
// that can exit early: then the run provably never terminates, and the
// engine returns Exit.
func (c *Cycles) Repeats(o Oracle, depth int, block int32, v []Value) bool {
	if c.d == nil {
		c.rearm(o, true) // without a detector the run is exact (see Arm)
	}
	d := c.d
	if !d.on {
		return false
	}
	pos := 0
	if d.enum != nil {
		pos = d.enum.pos
	}
	if d.depth == 0 {
		d.take(depth, block, pos, v)
		return false
	}
	if d.depth == depth && d.block == block && d.pos == pos && d.same(v) {
		return true
	}
	// Jumps in callees of the snapshot's activation count too: a callee
	// that loops forever gets the snapshot once the window fills.
	d.n++
	if d.n == d.power {
		d.take(depth, block, pos, v)
		d.power *= 2
	}
	return false
}

// Exit ends a run Repeats proved divergent where the fuel limit would
// have ended it: it zeroes the engine's fuel, counts the exit in m and
// returns the timeout.
func (c *Cycles) Exit(fuel *int, m *EngineMetrics) Outcome {
	*fuel = 0
	m.CycleExits++
	return Outcome{Kind: OutTimeout}
}

// Return tells the detector that an activation returned to its caller
// at depth depth. A snapshot taken in the returning activation (or
// deeper) dies with it; the window size is kept, so a loop whose body
// calls looping callees still gets a growing window in its own frame.
func (c *Cycles) Return(depth int) {
	if d := c.d; d != nil && d.depth > depth {
		d.depth, d.n = 0, 0
	}
}

func (d *cycleDetector) take(depth int, block int32, pos int, v []Value) {
	d.depth, d.block, d.pos, d.n = depth, block, pos, 0
	if cap(d.vals) < len(v) {
		// One lane per register covers every scalar; vector lanes
		// grow the buffer on demand.
		d.vals = make([]cycleVal, len(v))
		d.lanes = make([]Scalar, 0, len(v))
	}
	d.vals = d.vals[:len(v)]
	lanes := d.lanes[:0]
	for i := range v {
		l := v[i].Lanes
		if l == nil {
			d.vals[i] = cycleVal{n: -1}
			continue
		}
		d.vals[i] = cycleVal{ty: v[i].Ty, n: len(l)}
		lanes = append(lanes, l...)
	}
	d.lanes = lanes
}

// same compares registers with the snapshot by type and lanes, unset
// registers only with unset ones.
func (d *cycleDetector) same(v []Value) bool {
	if len(v) != len(d.vals) {
		return false
	}
	off := 0
	for i := range v {
		h, l := &d.vals[i], v[i].Lanes
		if l == nil {
			if h.n >= 0 {
				return false
			}
			continue
		}
		if h.n != len(l) {
			return false
		}
		for j := range l {
			if l[j] != d.lanes[off+j] {
				return false
			}
		}
		if h.ty != v[i].Ty {
			return false
		}
		off += len(l)
	}
	return true
}
