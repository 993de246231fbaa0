package refine

import (
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"tameir/internal/core"
)

// RetSet is the set of concrete values a function can return on one
// input, each named by its core.Value.Key. Scalar integers of at most
// maskBits bits — every return type of the §6 campaigns — are kept as
// a bitmask over their values, so adding, comparing and copying them
// allocates nothing and leaves the collector nothing to trace; every
// other type falls back to a set of keys. Both forms count and render
// identically. The zero value is the empty set.
type RetSet struct {
	mask  [4]uint64           // bit v: the value v of an iW integer, W = width
	width uint8               // W of the masked values; 0 while the mask is unused
	keys  map[string]struct{} // every other type
}

// maskBits is the widest integer type kept in the mask.
const maskBits = 8

// Add inserts a concrete value. It reads v only for the duration of
// the call, so v may live in an engine's reusable lanes.
func (s *RetSet) Add(v core.Value) {
	if v.Ty.IsInt() && v.Ty.Bits <= maskBits && len(v.Lanes) == 1 && s.maskable(uint8(v.Ty.Bits)) {
		s.setBit(uint8(v.Ty.Bits), v.Lanes[0].Bits)
		return
	}
	var buf [64]byte
	s.addKey(v.AppendTo(buf[:0]))
}

// maskable reports whether an iW value can join the mask.
func (s *RetSet) maskable(w uint8) bool {
	return s.keys == nil && (s.width == 0 || s.width == w)
}

func (s *RetSet) setBit(w uint8, v uint64) {
	s.width = w
	s.mask[v>>6] |= 1 << (v & 63)
}

// addKey inserts a key into the map form, first moving any masked
// values there (a set never mixes types in practice, but it stays
// correct if it does).
func (s *RetSet) addKey(k []byte) {
	if s.keys == nil {
		s.keys = make(map[string]struct{}, 4)
		s.eachMasked(func(v uint64) { s.keys[string(appendMaskKey(nil, s.width, v))] = struct{}{} })
		s.mask, s.width = [4]uint64{}, 0
	}
	if _, ok := s.keys[string(k)]; !ok {
		s.keys[string(k)] = struct{}{}
	}
}

func (s RetSet) eachMasked(f func(v uint64)) {
	for i, w := range s.mask {
		for ; w != 0; w &= w - 1 {
			f(uint64(i*64 + bits.TrailingZeros64(w)))
		}
	}
}

// Len returns the number of values in the set.
func (s RetSet) Len() int {
	if s.keys != nil {
		return len(s.keys)
	}
	n := 0
	for _, w := range s.mask {
		n += bits.OnesCount64(w)
	}
	return n
}

// Has reports whether the value keyed k is in the set.
func (s RetSet) Has(k string) bool {
	if s.keys != nil {
		_, ok := s.keys[k]
		return ok
	}
	w, v, ok := parseMaskKey(k)
	return ok && w == s.width && s.mask[v>>6]&(1<<(v&63)) != 0
}

// Keys returns the values' keys in string order, the order String and
// counterexamples use.
func (s RetSet) Keys() []string {
	out := make([]string, 0, s.Len())
	if s.keys != nil {
		for k := range s.keys {
			out = append(out, k)
		}
	} else {
		s.eachMasked(func(v uint64) { out = append(out, string(appendMaskKey(nil, s.width, v))) })
	}
	sort.Strings(out)
	return out
}

// firstMissing returns the smallest key, in string order, of a value
// in s but not in src.
func (s RetSet) firstMissing(src RetSet) (string, bool) {
	if s.keys == nil && src.keys == nil && s.width == src.width {
		for i := range s.mask {
			s.mask[i] &^= src.mask[i]
		}
		src = RetSet{}
	}
	for _, k := range s.Keys() {
		if !src.Has(k) {
			return k, true
		}
	}
	return "", false
}

// appendMaskKey appends the key of the iW value v: what
// core.Value.Key renders for it.
func appendMaskKey(b []byte, w uint8, v uint64) []byte {
	b = strconv.AppendUint(append(b, 'i'), uint64(w), 10)
	return strconv.AppendUint(append(b, ' '), v, 10)
}

// parseMaskKey recognizes the key of a maskable value, in the exact
// form appendMaskKey renders.
func parseMaskKey(k string) (w uint8, v uint64, ok bool) {
	if !strings.HasPrefix(k, "i") {
		return 0, 0, false
	}
	ws, vs, found := strings.Cut(k[1:], " ")
	if !found {
		return 0, 0, false
	}
	w64, err := strconv.ParseUint(ws, 10, 8)
	if err != nil || w64 == 0 || w64 > maskBits {
		return 0, 0, false
	}
	v, err = strconv.ParseUint(vs, 10, 64)
	if err != nil || v >= 1<<w64 || string(appendMaskKey(nil, uint8(w64), v)) != k {
		return 0, 0, false
	}
	return uint8(w64), v, true
}
