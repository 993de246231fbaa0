package ir

import (
	"testing"
	"testing/quick"
)

func TestTypeProperties(t *testing.T) {
	cases := []struct {
		ty       Type
		str      string
		bitwidth uint
		elems    uint
	}{
		{I1, "i1", 1, 1},
		{I2, "i2", 2, 1},
		{I32, "i32", 32, 1},
		{I64, "i64", 64, 1},
		{Ptr, "ptr", 32, 1},
		{Void, "void", 0, 0},
		{Vec(4, I8), "<4 x i8>", 32, 4},
		{Vec(2, I16), "<2 x i16>", 32, 2},
		{Vec(32, I1), "<32 x i1>", 32, 32},
		{Vec(3, Ptr), "<3 x ptr>", 96, 3},
	}
	for _, c := range cases {
		if got := c.ty.String(); got != c.str {
			t.Errorf("String(%v) = %q, want %q", c.ty, got, c.str)
		}
		if got := c.ty.Bitwidth(); got != c.bitwidth {
			t.Errorf("Bitwidth(%s) = %d, want %d", c.str, got, c.bitwidth)
		}
		if got := c.ty.NumElems(); got != c.elems {
			t.Errorf("NumElems(%s) = %d, want %d", c.str, got, c.elems)
		}
	}
}

func TestParseTypeRoundTrip(t *testing.T) {
	for _, s := range []string{"i1", "i2", "i7", "i32", "i64", "ptr", "void", "<4 x i8>", "<2 x ptr>", "<32 x i1>", "<65536 x i1>"} {
		ty, err := ParseType(s)
		if err != nil {
			t.Fatalf("ParseType(%q): %v", s, err)
		}
		if ty.String() != s {
			t.Errorf("round trip %q -> %q", s, ty.String())
		}
	}
}

func TestParseTypeErrors(t *testing.T) {
	for _, s := range []string{"", "i0", "i65", "i", "x32", "<0 x i8>", "<4 x void>", "<4 x <2 x i8>>", "float", "<65537 x i1>", "<2000000000 x i8>"} {
		if _, err := ParseType(s); err == nil {
			t.Errorf("ParseType(%q) unexpectedly succeeded", s)
		}
	}
}

func TestIntPanicsOnBadWidth(t *testing.T) {
	for _, bits := range []uint{0, 65, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Int(%d) did not panic", bits)
				}
			}()
			Int(bits)
		}()
	}
}

func TestElemType(t *testing.T) {
	if got := Vec(4, I8).ElemType(); !got.Equal(I8) {
		t.Errorf("ElemType(<4 x i8>) = %s", got)
	}
	if got := I32.ElemType(); !got.Equal(I32) {
		t.Errorf("ElemType(i32) = %s", got)
	}
	if got := Vec(2, Ptr).ElemType(); !got.Equal(Ptr) {
		t.Errorf("ElemType(<2 x ptr>) = %s", got)
	}
}

func TestTruncSignExtBits(t *testing.T) {
	cases := []struct {
		v    uint64
		bits uint
		tr   uint64
		se   int64
	}{
		{0, 8, 0, 0},
		{0xff, 8, 0xff, -1},
		{0x7f, 8, 0x7f, 127},
		{0x100, 8, 0, 0},
		{3, 2, 3, -1},
		{2, 2, 2, -2},
		{1, 2, 1, 1},
		{1, 1, 1, -1},
		{^uint64(0), 64, ^uint64(0), -1},
		{0x8000000000000000, 64, 0x8000000000000000, -0x8000000000000000},
	}
	for _, c := range cases {
		if got := TruncBits(c.v, c.bits); got != c.tr {
			t.Errorf("TruncBits(%#x, %d) = %#x, want %#x", c.v, c.bits, got, c.tr)
		}
		if got := SignExtBits(c.v, c.bits); got != c.se {
			t.Errorf("SignExtBits(%#x, %d) = %d, want %d", c.v, c.bits, got, c.se)
		}
	}
}

// Property: for any v and width, TruncBits is idempotent and
// SignExtBits re-truncates to the same low bits.
func TestTruncSignExtProperty(t *testing.T) {
	f := func(v uint64, w8 uint8) bool {
		w := uint(w8%64) + 1
		tr := TruncBits(v, w)
		if TruncBits(tr, w) != tr {
			return false
		}
		return TruncBits(uint64(SignExtBits(v, w)), w) == tr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
