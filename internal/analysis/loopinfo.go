package analysis

import "tameir/internal/ir"

// Loop is a natural loop: a header plus the blocks that can reach a
// back edge to the header without leaving the loop.
type Loop struct {
	Header *ir.Block
	// Blocks is the loop body, including the header.
	Blocks map[*ir.Block]bool
	// Latches are the in-loop predecessors of the header.
	Latches []*ir.Block
	// Parent is the innermost enclosing loop, if any.
	Parent *Loop
}

// Contains reports whether b is in the loop.
func (l *Loop) Contains(b *ir.Block) bool { return l.Blocks[b] }

// ContainsInstr reports whether in's block is in the loop.
func (l *Loop) ContainsInstr(in *ir.Instr) bool {
	return in.Parent() != nil && l.Blocks[in.Parent()]
}

// Preheader returns the unique out-of-loop predecessor of the header if
// it has exactly one and that predecessor branches only to the header;
// otherwise nil.
func (l *Loop) Preheader(f *ir.Func) *ir.Block {
	var ph *ir.Block
	for _, p := range f.Preds(l.Header) {
		if l.Blocks[p] {
			continue
		}
		if ph != nil {
			return nil
		}
		ph = p
	}
	if ph == nil {
		return nil
	}
	if t := ph.Terminator(); t == nil || t.IsConditionalBr() || len(t.Succs()) != 1 {
		return nil
	}
	return ph
}

// Exits returns the out-of-loop successor blocks of loop blocks.
func (l *Loop) Exits() []*ir.Block {
	var exits []*ir.Block
	seen := map[*ir.Block]bool{}
	for b := range l.Blocks {
		for _, s := range b.Succs() {
			if !l.Blocks[s] && !seen[s] {
				seen[s] = true
				exits = append(exits, s)
			}
		}
	}
	return exits
}

// IsInvariant reports whether v is computed outside the loop (constant
// leaves and parameters always are).
func (l *Loop) IsInvariant(v ir.Value) bool {
	in, ok := v.(*ir.Instr)
	if !ok {
		return true
	}
	return !l.ContainsInstr(in)
}

// LoopInfo holds the natural loops of a function, innermost first.
type LoopInfo struct {
	Loops []*Loop
	// innermost maps each block to its innermost containing loop.
	innermost map[*ir.Block]*Loop

	// Storage kept for the next computation (a Manager recomputes into
	// the same forest): every Loop built so far, reused by position,
	// the header index and the body walk's worklist.
	store    []*Loop
	byHeader map[*ir.Block]*Loop
	work     []*ir.Block
}

// LoopFor returns the innermost loop containing b, or nil.
func (li *LoopInfo) LoopFor(b *ir.Block) *Loop { return li.innermost[b] }

// FindLoops detects the natural loops of f using its dominator tree.
// Loops sharing a header are merged (as in LLVM).
func FindLoops(f *ir.Func, dt *DomTree) *LoopInfo {
	li := new(LoopInfo)
	li.compute(f, dt, Preds(f))
	return li
}

// compute refills li with the natural loops of f, given its dominator
// tree and predecessor map. Loops are numbered in the order their
// headers are found, then sorted innermost first.
func (li *LoopInfo) compute(f *ir.Func, dt *DomTree, preds map[*ir.Block][]*ir.Block) {
	if li.innermost == nil {
		li.innermost = map[*ir.Block]*Loop{}
		li.byHeader = map[*ir.Block]*Loop{}
	}
	li.reset()
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			// An unreachable b has no dominator, so Dominates rejects
			// its edges too.
			if !dt.Dominates(s, b) {
				continue // not a back edge
			}
			l := li.byHeader[s]
			if l == nil {
				l = li.newLoop(s)
				li.byHeader[s] = l
			}
			l.Latches = append(l.Latches, b)
			// Walk predecessors from the latch until the header.
			work := append(li.work[:0], b)
			for len(work) > 0 {
				x := work[len(work)-1]
				work = work[:len(work)-1]
				if l.Blocks[x] {
					continue
				}
				l.Blocks[x] = true
				work = append(work, preds[x]...)
			}
			li.work = work
		}
	}
	// Sort innermost (smallest) first for stable iteration.
	for i := 0; i < len(li.Loops); i++ {
		for j := i + 1; j < len(li.Loops); j++ {
			if len(li.Loops[j].Blocks) < len(li.Loops[i].Blocks) {
				li.Loops[i], li.Loops[j] = li.Loops[j], li.Loops[i]
			}
		}
	}
	// Parent links: the smallest strictly-containing loop.
	for i, l := range li.Loops {
		for _, cand := range li.Loops[i+1:] {
			if cand != l && cand.Blocks[l.Header] && len(cand.Blocks) > len(l.Blocks) {
				l.Parent = cand
				break
			}
		}
	}
	// Innermost map: loops are smallest-first, so first hit wins.
	for _, l := range li.Loops {
		for b := range l.Blocks {
			if li.innermost[b] == nil {
				li.innermost[b] = l
			}
		}
	}
}

// newLoop appends a loop with header h to li.Loops, reusing a stored
// Loop and its body map when there is one.
func (li *LoopInfo) newLoop(h *ir.Block) *Loop {
	i := len(li.Loops)
	if i == len(li.store) {
		li.store = append(li.store, &Loop{Blocks: map[*ir.Block]bool{}})
	}
	l := li.store[i]
	l.Header = h
	l.Blocks[h] = true
	li.Loops = append(li.Loops, l)
	return l
}

// reset drops every reference li holds, keeping its storage.
func (li *LoopInfo) reset() {
	for _, l := range li.store {
		clear(l.Blocks)
		clear(l.Latches)
		l.Header, l.Latches, l.Parent = nil, l.Latches[:0], nil
	}
	clear(li.Loops)
	li.Loops = li.Loops[:0]
	clear(li.innermost)
	clear(li.byHeader)
}

// InductionVar describes a simple affine induction variable:
//
//	%iv  = phi [ start, preheader ], [ %next, latch ]
//	%next = add(nsw?) %iv, step
type InductionVar struct {
	Phi   *ir.Instr
	Next  *ir.Instr // the add
	Start ir.Value
	Step  *ir.Const
	// NSW reports whether the increment carries the nsw attribute —
	// the fact indvar widening needs (§2.4).
	NSW bool
}

// FindInductionVars recognizes the affine induction variables of loop l
// (a scalar-evolution-lite). Only two-incoming phis in the header with
// a constant-step add on the latch path qualify.
func FindInductionVars(f *ir.Func, l *Loop) []InductionVar {
	var ivs []InductionVar
	ph := l.Preheader(f)
	for _, phi := range l.Header.Phis() {
		if phi.NumArgs() != 2 || !phi.Ty.IsInt() {
			continue
		}
		var start ir.Value
		var nextV ir.Value
		for i := 0; i < 2; i++ {
			if l.Blocks[phi.BlockArg(i)] {
				nextV = phi.Arg(i)
			} else if ph == nil || phi.BlockArg(i) == ph {
				start = phi.Arg(i)
			}
		}
		if start == nil || nextV == nil {
			continue
		}
		next, ok := nextV.(*ir.Instr)
		if !ok || next.Op != ir.OpAdd || !l.ContainsInstr(next) {
			continue
		}
		var step *ir.Const
		if next.Arg(0) == ir.Value(phi) {
			step, _ = next.Arg(1).(*ir.Const)
		} else if next.Arg(1) == ir.Value(phi) {
			step, _ = next.Arg(0).(*ir.Const)
		}
		if step == nil {
			continue
		}
		ivs = append(ivs, InductionVar{
			Phi:   phi,
			Next:  next,
			Start: start,
			Step:  step,
			NSW:   next.Attrs&ir.NSW != 0,
		})
	}
	return ivs
}
