// Package analysis provides the static analyses the optimizer passes
// rely on: CFG orderings, dominator trees, natural-loop detection,
// known-bits, and the poison-aware value-tracking queries whose API
// shape Section 5.6 of the paper discusses (results that hold only "up
// to" the analyzed values being non-poison).
package analysis

import (
	"slices"

	"tameir/internal/ir"
)

// ReversePostorder returns the blocks of f reachable from the entry in
// reverse postorder (predecessors-mostly-before-successors; ideal for
// forward dataflow).
func ReversePostorder(f *ir.Func) []*ir.Block {
	rpo, _ := reversePostorder(f, map[*ir.Block]int{}, nil, nil)
	return rpo
}

// dfsFrame is one block on the depth-first search's stack and the index
// of its next successor to visit.
type dfsFrame struct {
	b    *ir.Block
	next int
}

// reversePostorder writes the blocks of f reachable from the entry into
// rpo[:0] in reverse postorder, adding each to seen (whose values it
// leaves unspecified); stack is the search's scratch. It returns both
// slices so a caller can keep their storage.
func reversePostorder(f *ir.Func, seen map[*ir.Block]int, rpo []*ir.Block, stack []dfsFrame) ([]*ir.Block, []dfsFrame) {
	rpo = rpo[:0]
	entry := f.Entry()
	seen[entry] = 0
	stack = append(stack[:0], dfsFrame{b: entry})
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if succs := top.b.Succs(); top.next < len(succs) {
			s := succs[top.next]
			top.next++
			if _, ok := seen[s]; !ok {
				seen[s] = 0
				stack = append(stack, dfsFrame{b: s})
			}
			continue
		}
		rpo = append(rpo, top.b)
		stack = stack[:len(stack)-1]
	}
	clear(stack[:cap(stack)])
	slices.Reverse(rpo)
	return rpo, stack
}

// Reachable returns the set of blocks reachable from the entry.
func Reachable(f *ir.Func) map[*ir.Block]bool {
	seen := map[*ir.Block]bool{}
	work := []*ir.Block{f.Entry()}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[b] {
			continue
		}
		seen[b] = true
		work = append(work, b.Succs()...)
	}
	return seen
}

// Preds builds the predecessor map for all blocks, counting each
// predecessor block once per distinct edge source.
func Preds(f *ir.Func) map[*ir.Block][]*ir.Block {
	var ps predStore
	return ps.compute(f)
}

// predStore is the storage a predecessor map is computed into: the map,
// one backing array its lists are carved from, and the per-block
// counts that size them. A Manager keeps one across computations.
type predStore struct {
	m     map[*ir.Block][]*ir.Block
	count map[*ir.Block]int
	buf   []*ir.Block
}

// compute refills ps with f's predecessor map and returns it. Each
// block's list is in f.Blocks order, like Func.Preds.
func (ps *predStore) compute(f *ir.Func) map[*ir.Block][]*ir.Block {
	if ps.m == nil {
		ps.m = make(map[*ir.Block][]*ir.Block, len(f.Blocks))
		ps.count = make(map[*ir.Block]int, len(f.Blocks))
	}
	ps.reset()
	n := 0
	eachEdge(f, func(_, s *ir.Block) {
		ps.count[s]++
		n++
	})
	ps.buf = slices.Grow(ps.buf[:0], n)[:n]
	off := 0
	for _, b := range f.Blocks {
		if c := ps.count[b]; c > 0 {
			ps.m[b] = ps.buf[off : off : off+c]
			off += c
		}
	}
	// A successor outside f.Blocks (malformed IR) gets no carved list;
	// append then allocates one.
	eachEdge(f, func(b, s *ir.Block) { ps.m[s] = append(ps.m[s], b) })
	return ps.m
}

// reset drops every reference ps holds, keeping its storage.
func (ps *predStore) reset() {
	clear(ps.m)
	clear(ps.count)
	clear(ps.buf)
}

// eachEdge calls fn(b, s) for every block b of f and each distinct
// successor s of b, in block and successor order.
func eachEdge(f *ir.Func, fn func(b, s *ir.Block)) {
	for _, b := range f.Blocks {
		succs := b.Succs()
		for i, s := range succs {
			if !slices.Contains(succs[:i], s) {
				fn(b, s)
			}
		}
	}
}
