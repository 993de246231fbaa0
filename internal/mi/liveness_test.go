package mi_test

import (
	"slices"
	"sort"
	"testing"

	"tameir/internal/bench"
	"tameir/internal/ir"
	"tameir/internal/mi"
	"tameir/internal/sdag"
	"tameir/internal/target"
)

// refLiveness is the reference block liveness: map sets, rebuilt on
// every sweep until no set grows.
func refLiveness(vf *mi.VFunc) (liveIn, liveOut []map[int]bool) {
	nb := len(vf.Blocks)
	succs := make([][]int, nb)
	use := make([]map[int]bool, nb)
	def := make([]map[int]bool, nb)
	for bi, b := range vf.Blocks {
		use[bi], def[bi] = map[int]bool{}, map[int]bool{}
		for _, in := range b {
			if in.Op == target.JMP || in.Op == target.Jcc {
				succs[bi] = append(succs[bi], in.Target)
			}
			us, d := mi.RegUses(in)
			for _, u := range us {
				if u >= mi.FirstVirtual && !def[bi][u] {
					use[bi][u] = true
				}
			}
			if d >= mi.FirstVirtual {
				def[bi][d] = true
			}
		}
	}
	liveIn = make([]map[int]bool, nb)
	liveOut = make([]map[int]bool, nb)
	for i := range liveIn {
		liveIn[i], liveOut[i] = map[int]bool{}, map[int]bool{}
	}
	for changed := true; changed; {
		changed = false
		for bi := nb - 1; bi >= 0; bi-- {
			out := map[int]bool{}
			for _, s := range succs[bi] {
				for v := range liveIn[s] {
					out[v] = true
				}
			}
			in := map[int]bool{}
			for v := range out {
				if !def[bi][v] {
					in[v] = true
				}
			}
			for v := range use[bi] {
				in[v] = true
			}
			if len(out) != len(liveOut[bi]) || len(in) != len(liveIn[bi]) {
				changed = true
			}
			liveOut[bi], liveIn[bi] = out, in
		}
	}
	return liveIn, liveOut
}

func sorted(set map[int]bool) []int {
	vs := make([]int, 0, len(set))
	for v := range set {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	return vs
}

// selectModule runs instruction selection over every function of an
// optimized module, as mi.CompileModule does before allocation.
func selectModule(t *testing.T, mod *ir.Module) []*mi.VFunc {
	t.Helper()
	var blobs []target.GlobalBlob
	for _, g := range mod.Globals {
		blobs = append(blobs, target.GlobalBlob{Name: g.Name(), Size: g.Size})
	}
	addrs := target.LayoutGlobals(blobs)
	var vfs []*mi.VFunc
	for _, f := range mod.Funcs {
		fd, err := sdag.Build(mod, f)
		if err != nil {
			t.Fatal(err)
		}
		sdag.Combine(fd)
		vf, err := mi.Select(fd, addrs)
		if err != nil {
			t.Fatal(err)
		}
		vfs = append(vfs, vf)
	}
	return vfs
}

// loopKeepsLive builds a function whose n virtual registers are all
// live around a loop back edge: the entry defines them, the loop body
// reads and rewrites each one, and the exit reads only the first.
func loopKeepsLive(n int) *mi.VFunc {
	none := mi.VInstr{Dst: -1, Src: -1, Src2: -1}
	instr := func(op target.Opcode, dst int, imm int64, tgt int) mi.VInstr {
		in := none
		in.Op, in.Dst, in.Imm, in.Target = op, dst, imm, tgt
		return in
	}
	v := func(i int) int { return mi.FirstVirtual + i }
	var entry, body []mi.VInstr
	for i := 0; i < n; i++ {
		entry = append(entry, instr(target.MOVri, v(i), int64(i), 0))
		body = append(body, instr(target.ADDri, v(i), 1, 0))
	}
	entry = append(entry, instr(target.JMP, -1, 0, 1))
	head := []mi.VInstr{instr(target.CMPri, v(0), 100, 0), instr(target.Jcc, -1, 0, 3), instr(target.JMP, -1, 0, 2)}
	head[1].Cond = target.CondNE
	body = append(body, instr(target.JMP, -1, 0, 1))
	ret := instr(target.MOVrr, int(target.R0), 0, 0)
	ret.Src = v(0)
	exit := []mi.VInstr{ret, instr(target.RET, -1, 0, 0)}
	return &mi.VFunc{Name: "loop", Blocks: [][]mi.VInstr{entry, head, body, exit}, NumV: v(n)}
}

// TestLivenessMatchesReference holds the bitset liveness solver to the
// map-based reference on every function of the MinC programs under
// both variants (80–391 virtual registers, up to seven words a row)
// and on a loop that keeps 100 registers (two words) live around its
// back edge.
func TestLivenessMatchesReference(t *testing.T) {
	type named struct {
		name string
		vf   *mi.VFunc
	}
	var funcs []named
	for _, v := range []bench.Variant{bench.Baseline(), bench.Prototype()} {
		for _, p := range bench.Programs {
			mod, _, err := bench.Compile(p, v)
			if err != nil {
				t.Fatal(err)
			}
			for _, vf := range selectModule(t, mod) {
				funcs = append(funcs, named{p.Name + "/" + v.Name + "/" + vf.Name, vf})
			}
		}
	}
	loop := loopKeepsLive(100)
	funcs = append(funcs, named{"loopKeepsLive", loop})

	for _, f := range funcs {
		in, out := mi.Liveness(f.vf)
		refIn, refOut := refLiveness(f.vf)
		for b := range f.vf.Blocks {
			if got, want := in[b], sorted(refIn[b]); !slices.Equal(got, want) {
				t.Errorf("%s block %d live-in:\ngot  %v\nwant %v", f.name, b, got, want)
			}
			if got, want := out[b], sorted(refOut[b]); !slices.Equal(got, want) {
				t.Errorf("%s block %d live-out:\ngot  %v\nwant %v", f.name, b, got, want)
			}
		}
	}
	// The loop's header and body carry all 100 registers.
	in, out := mi.Liveness(loop)
	if len(in[1]) != 100 || len(out[2]) != 100 {
		t.Errorf("loop: %d registers live into the header and %d out of the body, want 100 each", len(in[1]), len(out[2]))
	}
	if _, err := mi.Allocate(loop); err != nil {
		t.Errorf("allocate loop: %v", err)
	}
}
