package ir

import (
	"testing"
)

// FuzzParseModule checks the parser never panics and that everything
// it accepts survives a print/reparse round trip. Run with `go test
// -fuzz=FuzzParseModule ./internal/ir` for continuous fuzzing; the
// seed corpus runs as a normal test.
func FuzzParseModule(f *testing.F) {
	seeds := []string{
		"",
		"define i32 @f() {\nentry:\n  ret i32 0\n}",
		"define i1 @f(i2 %a, i2 %b) {\nentry:\n  %x = add nsw i2 %a, %b\n  %c = icmp sgt i2 %x, %a\n  ret i1 %c\n}",
		"@g = global 8 init 1 2 3\ndefine i8 @f() {\nentry:\n  %v = load i8, ptr @g\n  ret i8 %v\n}",
		"define void @f(i1 %c) {\nentry:\n  br i1 %c, label %a, label %a\na:\n  ret void\n}",
		"define <2 x i8> @f() {\nentry:\n  ret <2 x i8> <i8 1, i8 poison>\n}",
		"define i8 @f() {\nentry:\n  %x = freeze i8 undef\n  ret i8 %x\n}",
		"define i32 @f() {\nentry:\n  %p = alloca i32, i32 1\n  store i32 7, ptr %p\n  %v = load i32, ptr %p\n  ret i32 %v\n}",
		"define i32 @r(i32 %n) {\nentry:\n  %x = call i32 @r(i32 %n)\n  ret i32 %x\n}",
		"; comment\ndefine i64 @f(i64 %x) {\nentry:\n  %s = sext i64...", // malformed on purpose
		"define i32 @f() { entry:\n %x = phi i32 [ 1, %entry ]\n ret i32 %x }",
	}
	for _, tc := range parseErrorCases {
		seeds = append(seeds, tc.src)
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return
		}
		m, err := ParseModule(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		printed := m.String()
		m2, err := ParseModule(printed)
		if err != nil {
			// Only verified modules are guaranteed to round-trip: the
			// parser admits some structurally invalid shapes that the
			// verifier rejects (e.g. empty blocks at print time).
			if verr := VerifyModule(m, VerifyLegacy); verr == nil {
				t.Fatalf("verified module failed to reparse: %v\n%s", err, printed)
			}
			return
		}
		if got := m2.String(); got != printed {
			if verr := VerifyModule(m, VerifyLegacy); verr == nil {
				t.Fatalf("verified module round trip unstable:\n--- first\n%s\n--- second\n%s", printed, got)
			}
		}
	})
}

// FuzzParseType checks type parsing against its printer.
func FuzzParseType(f *testing.F) {
	for _, s := range []string{"i1", "i64", "ptr", "void", "<4 x i8>", "<16 x ptr>", "<0 x i1>", "i999", "x"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ty, err := ParseType(s)
		if err != nil {
			return
		}
		re, err := ParseType(ty.String())
		if err != nil || !re.Equal(ty) {
			t.Fatalf("type round trip failed for %q -> %s", s, ty)
		}
	})
}

// TestParserTorture exercises syntax corners directly.
func TestParserTorture(t *testing.T) {
	cases := []struct {
		src string
		ok  bool
	}{
		{"define i32 @f() {\nentry:\n  ret i32 2147483647\n}", true},
		{"define i64 @f() {\nentry:\n  ret i64 -9223372036854775808\n}", true},
		{"define i64 @f() {\nentry:\n  ret i64 18446744073709551615\n}", true},
		{"define i1 @f() {\nentry:\n  ret i1 true\n}", true},
		{"define i1 @f() {\nentry:\n  ret i1 false\n}", true},
		{"define void @f() {\nentry:\n  ret void\n}", true},
		// Names with dots and underscores.
		{"define i8 @my.fn_2() {\nentry:\n  %x.y_1 = add i8 1, 2\n  ret i8 %x.y_1\n}", true},
		// Block named like an opcode mnemonic.
		{"define void @f() {\nadd:\n  ret void\n}", true},
		// Deep nesting of vector syntax in operands.
		{"define <2 x i1> @f() {\nentry:\n  ret <2 x i1> <i1 1, i1 undef>\n}", true},
		// Duplicate value name.
		{"define i8 @f() {\nentry:\n  %x = add i8 1, 1\n  %x = add i8 2, 2\n  ret i8 %x\n}", false},
		// Duplicate block label.
		{"define void @f() {\na:\n  br label %a\na:\n  ret void\n}", false},
		// Mismatched phi types are a verifier error, not a crash.
		{"define i8 @f(i1 %c) {\nentry:\n  br i1 %c, label %x, label %x\nx:\n  %p = phi i8 [ 1, %entry ]\n  ret i8 %p\n}", true},
	}
	for i, c := range cases {
		_, err := ParseModule(c.src)
		if c.ok && err != nil {
			t.Errorf("case %d: unexpected error: %v\n%s", i, err, c.src)
		}
		if !c.ok && err == nil {
			t.Errorf("case %d: expected error for\n%s", i, c.src)
		}
	}
}
