package mi

// Names the external tests (package mi_test) reach, which import
// packages that import mi.

const FirstVirtual = firstVirtual

var RegUses = regUses

// Liveness returns, for each block of vf, the virtual registers live
// into and out of it, in ascending order.
func Liveness(vf *VFunc) (in, out [][]int) {
	l := liveness(vf)
	vregs := func(row []uint64) []int {
		var vs []int
		forEachVReg(row, func(v int) { vs = append(vs, v) })
		return vs
	}
	for b := range vf.Blocks {
		in = append(in, vregs(l.row(b, inRow)))
		out = append(out, vregs(l.row(b, outRow)))
	}
	return in, out
}
