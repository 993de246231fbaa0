package refine

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tameir/internal/core"
	"tameir/internal/ir"
)

// refRets is the plain map-based model RetSet must agree with: the
// representation BehaviorSet.Rets had before the bitmask.
type refRets map[string]bool

func (r refRets) sorted() []string {
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (r refRets) string(undef bool) string {
	var parts []string
	if undef {
		parts = append(parts, "undef")
	}
	parts = append(parts, r.sorted()...)
	if len(parts) == 0 {
		return "{}"
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// refRefines is Refines restricted to what the return set decides.
func refRefines(src, tgt refRets, tgtUndef bool, retBits uint) (bool, string) {
	if tgtUndef && !(retBits > 0 && retBits <= 20 && len(src) == 1<<retBits) {
		return false, "target returns undef, source returns neither undef nor poison"
	}
	for _, k := range tgt.sorted() {
		if !src[k] {
			return false, "target can return " + k + ", source cannot"
		}
	}
	return true, ""
}

// retDomain lists values of ty to draw return sets from: the whole
// domain where it is small, a sample otherwise.
func retDomain(ty ir.Type) []core.Value {
	if ty.IsVec() {
		vals, _ := CandidateValues(ty, core.Freeze)
		var concrete []core.Value
		for _, v := range vals {
			if v.IsConcrete() {
				concrete = append(concrete, v)
			}
		}
		return concrete
	}
	var vals []core.Value
	for v := uint64(0); v < 1<<ty.Bits && v < 300; v++ {
		vals = append(vals, core.VC(ty, v*(1<<ty.Bits/300+1)))
	}
	return vals
}

// TestMemoRetSetParity checks RetSet against the map model over the
// mask path (i1, i2, i4, i8) and the map path (i16, <2 x i2>): the
// String rendering the campaign's coverage digest folds, Refines'
// reason with its smallest missing value, coversAllConcretes, and
// Keys.
func TestMemoRetSetParity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, ty := range []ir.Type{ir.I1, ir.I2, ir.Int(4), ir.I8, ir.I16, ir.Vec(2, ir.I2)} {
		dom := retDomain(ty)
		retBits := uint(0)
		if ty.Bitwidth() <= 20 {
			retBits = ty.Bitwidth()
		}
		draw := func() (BehaviorSet, refRets) {
			b := BehaviorSet{RetBits: retBits}
			ref := refRets{}
			// Empty, full and random subsets, values repeated as an
			// oracle sweep repeats them.
			var p float64
			switch rng.Intn(4) {
			case 0:
				p = 0
			case 1:
				p = 1
			default:
				p = rng.Float64()
			}
			for pass := 0; pass < 2; pass++ {
				for _, v := range dom {
					if rng.Float64() < p {
						b.Rets.Add(v)
						ref[v.Key()] = true
					}
				}
			}
			return b, ref
		}
		for trial := 0; trial < 200; trial++ {
			src, srcRef := draw()
			tgt, tgtRef := draw()
			tgt.Undef = trial%5 == 0

			if got, want := src.String(), srcRef.string(false); got != want {
				t.Fatalf("%s: String %q, want %q", ty, got, want)
			}
			if got, want := tgt.String(), tgtRef.string(tgt.Undef); got != want {
				t.Fatalf("%s: String %q, want %q", ty, got, want)
			}
			if got, want := src.coversAllConcretes(), retBits > 0 && len(srcRef) == 1<<retBits; got != want {
				t.Fatalf("%s: coversAllConcretes = %t, want %t for %s", ty, got, want, src)
			}
			gotOK, gotReason := Refines(src, tgt)
			wantOK, wantReason := refRefines(srcRef, tgtRef, tgt.Undef, retBits)
			if gotOK != wantOK || gotReason != wantReason {
				t.Fatalf("%s: Refines(%s, %s) = %t %q, want %t %q", ty, src, tgt, gotOK, gotReason, wantOK, wantReason)
			}
			for _, k := range srcRef.sorted() {
				if !src.Rets.Has(k) {
					t.Fatalf("%s: Has(%q) = false", ty, k)
				}
			}
			if got, want := tgt.Rets.Keys(), tgtRef.sorted(); !reflect.DeepEqual(got, want) && len(tgtRef) > 0 {
				t.Fatalf("%s: Keys %q, want %q", ty, got, want)
			}
		}
	}
}
