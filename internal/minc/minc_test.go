package minc

import (
	"fmt"
	"testing"

	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/mi"
	"tameir/internal/passes"
	"tameir/internal/target"
)

// runMain compiles src and interprets @main under the Freeze
// semantics, returning the i32 result.
func runMain(t *testing.T, src string, cfg Config) int64 {
	t.Helper()
	mod, err := CompileString(src, cfg)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := ir.VerifyModule(mod, ir.VerifyLegacy); err != nil {
		t.Fatalf("verify: %v\n%s", err, mod)
	}
	main := mod.FuncByName("main")
	if main == nil {
		t.Fatal("no main")
	}
	out := core.Exec(main, nil, core.ZeroOracle{}, core.FreezeOptions())
	if out.Kind != core.OutRet {
		t.Fatalf("main did not return: %v\n%s", out, mod)
	}
	return out.Val.Int()
}

func freezeCfg() Config { return Config{FreezeBitfieldLoads: true} }

func TestArithmeticAndLocals(t *testing.T) {
	src := `
int main() {
    int a = 6;
    int b = 7;
    int c = a * b + 3;
    c = c - 5;
    return c / 2;   // (45-5)/2 = 20
}`
	if got := runMain(t, src, freezeCfg()); got != 20 {
		t.Errorf("got %d, want 20", got)
	}
}

func TestControlFlow(t *testing.T) {
	src := `
int main() {
    int sum = 0;
    for (int i = 0; i < 10; i = i + 1) {
        if (i % 2 == 0) sum += i;
        else sum -= 1;
    }
    int j = 0;
    while (j < 3) { sum = sum * 2; j = j + 1; }
    return sum;    // (0+2+4+6+8 - 5) * 8 = 120
}`
	if got := runMain(t, src, freezeCfg()); got != 120 {
		t.Errorf("got %d, want 120", got)
	}
}

func TestShortCircuit(t *testing.T) {
	src := `
int div(int a, int b) { return a / b; }
int main() {
    int z = 0;
    // RHS must not evaluate: division by zero would be UB.
    if (z != 0 && div(1, z) > 0) return 1;
    if (z == 0 || div(1, z) > 0) return 42;
    return 2;
}`
	if got := runMain(t, src, freezeCfg()); got != 42 {
		t.Errorf("got %d, want 42", got)
	}
}

func TestPointersAndArrays(t *testing.T) {
	src := `
int main() {
    int a[8];
    for (int i = 0; i < 8; i += 1) a[i] = i * i;
    int *p = &a[2];
    p = p + 3;      // &a[5]
    return *p + a[7]; // 25 + 49
}`
	if got := runMain(t, src, freezeCfg()); got != 74 {
		t.Errorf("got %d, want 74", got)
	}
}

func TestGlobals(t *testing.T) {
	src := `
int tab[4] = {10, 20, 30, 40};
int scale = 3;
int main() {
    int s = 0;
    for (int i = 0; i < 4; i += 1) s += tab[i];
    return s * scale;
}`
	if got := runMain(t, src, freezeCfg()); got != 300 {
		t.Errorf("got %d, want 300", got)
	}
}

func TestFunctionsAndRecursion(t *testing.T) {
	src := `
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
int main() { return fib(10); }`
	if got := runMain(t, src, freezeCfg()); got != 55 {
		t.Errorf("got %d, want 55", got)
	}
}

func TestUnsignedAndWidths(t *testing.T) {
	src := `
int main() {
    unsigned char c = 200;
    c = c + 100;            // wraps to 44
    short s = -5;
    long l = s;             // sign-extends
    unsigned int u = 3000000000;
    unsigned int v = u + u; // wraps mod 2^32
    return c + (int)l + (int)(v % 97);
}`
	want := int64(44 - 5 + (1705032704 % 97)) // 6000000000 mod 2^32 = 1705032704
	if got := runMain(t, src, freezeCfg()); got != want {
		t.Errorf("got %d, want %d", got, want)
	}
}

func TestStructsAndBitfields(t *testing.T) {
	src := `
struct flags {
    int a : 3;
    int b : 5;
    unsigned c : 4;
    int wide;
};
int main() {
    struct flags f;
    f.a = 3;
    f.b = -6;
    f.c = 13;
    f.wide = 1000;
    struct flags *p = &f;
    p->wide += 24;
    return f.a * 100000 + (f.b + 16) * 1000 + f.c * 100 + p->wide;
}`
	// a=3, b=-6 (+16 → 10), c=13, wide=1024.
	want := int64(3*100000 + 10*1000 + 13*100 + 1024)
	if got := runMain(t, src, freezeCfg()); got != want {
		t.Errorf("got %d, want %d", got, want)
	}
}

// §5.3: without the freeze, the very first bit-field store under the
// Freeze semantics reads poison and the or-combine taints the whole
// unit, so a sibling field readback is poison. With the freeze it is a
// fresh-but-stable value and overwritten fields read back correctly.
func TestBitfieldFreezeNecessity(t *testing.T) {
	src := `
struct s { int a : 4; int b : 4; };
int main() {
    struct s x;
    x.a = 5;
    x.b = 2;
    return x.a + x.b * 10;  // 25
}`
	// With the fix: defined result.
	if got := runMain(t, src, freezeCfg()); got != 25 {
		t.Errorf("with freeze: got %d, want 25", got)
	}
	// Without the fix, under Freeze semantics: the function returns
	// poison (x.a's unit bits beyond the two fields stay poison, but
	// more importantly the first store's or taints... check directly).
	mod, err := CompileString(src, Config{FreezeBitfieldLoads: false})
	if err != nil {
		t.Fatal(err)
	}
	out := core.Exec(mod.FuncByName("main"), nil, core.ZeroOracle{}, core.FreezeOptions())
	if out.Kind != core.OutRet || !out.Val.AnyPoison() {
		t.Errorf("without freeze the §5.3 program should return poison, got %v", out)
	}
	// Under the legacy semantics the unfrozen lowering is fine: the
	// uninitialized load is undef, and the masked combine keeps the
	// written bits.
	outLegacy := core.Exec(mod.FuncByName("main"), nil, core.NewRandOracle(1), core.LegacyOptions(core.BranchPoisonNondet))
	if outLegacy.Kind != core.OutRet || !outLegacy.Val.IsConcrete() || outLegacy.Val.Int() != 25 {
		t.Errorf("legacy unfrozen bit-field store: got %v, want 25", outLegacy)
	}
}

func TestSizeofAndCasts(t *testing.T) {
	src := `
struct pair { int x; int y; };
int main() {
    long big = 0x123456789;
    int low = (int)big;
    char c = (char)low;
    return sizeof(struct pair) + sizeof(long) + (c == 0x89 - 256 ? 1 : 0);
}`
	// MinC has no ?:, rewrite:
	src = `
struct pair { int x; int y; };
int main() {
    long big = 0x123456789;
    int low = (int)big;
    char c = (char)low;
    int bonus = 0;
    if (c == 0x89 - 256) bonus = 1;
    return sizeof(struct pair) + sizeof(long) + bonus;
}`
	if got := runMain(t, src, freezeCfg()); got != 8+8+1 {
		t.Errorf("got %d, want 17", got)
	}
}

func TestCharLiteralsAndShifts(t *testing.T) {
	src := `
int main() {
    int a = 'A';
    unsigned int u = 0x80000000;
    int arith = (int)u >> 31;      // -1 (sign bits)
    unsigned logical = u >> 31;    // 1
    return a + arith + (int)logical + (1 << 4);
}`
	if got := runMain(t, src, freezeCfg()); got != 65-1+1+16 {
		t.Errorf("got %d, want 81", got)
	}
}

func TestStructArraysAndNesting(t *testing.T) {
	src := `
struct point { int x; int y; };
struct point grid[10];
int main() {
    for (int i = 0; i < 10; i += 1) {
        grid[i].x = i;
        grid[i].y = i * 2;
    }
    int s = 0;
    for (int i = 0; i < 10; i += 1) s += grid[i].x + grid[i].y;
    return s;  // 3 * 45 = 135
}`
	if got := runMain(t, src, freezeCfg()); got != 135 {
		t.Errorf("got %d, want 135", got)
	}
}

// End-to-end: MinC → IR → O2 → VX64 → simulator, compared with the
// unoptimized interpretation.
func TestMinCThroughFullPipeline(t *testing.T) {
	src := `
int gcd(int a, int b) {
    while (b != 0) { int t = a % b; a = b; b = t; }
    return a;
}
int main() {
    int acc = 0;
    for (int i = 1; i <= 20; i += 1) acc += gcd(i * 7, 91);
    return acc;
}`
	want := runMain(t, src, freezeCfg())

	mod, err := CompileString(src, freezeCfg())
	if err != nil {
		t.Fatal(err)
	}
	cfg := passes.DefaultFreezeConfig()
	cfg.VerifyEach = true
	passes.O2().Run(mod, cfg)
	// Optimized interpretation agrees.
	out := core.Exec(mod.FuncByName("main"), nil, core.ZeroOracle{}, core.FreezeOptions())
	if out.Kind != core.OutRet || out.Val.Int() != want {
		t.Fatalf("optimized interpretation: %v, want %d\n%s", out, want, mod)
	}
	// Backend + simulator agree.
	prog, err := mi.CompileModule(mod)
	if err != nil {
		t.Fatalf("backend: %v\n%s", err, mod)
	}
	m := target.NewMachine(prog)
	got, err := m.Run(prog.FuncByName("main"))
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if int64(int32(uint32(got))) != want {
		t.Errorf("simulator: %d, want %d", got, want)
	}
	if m.Cycles == 0 {
		t.Error("no cycles counted")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"int main( { return 0; }",
		"int main() { return 0 }",
		"int main() { foo bar; }",
		"int main() { return x; }",
		"int main() { struct nope s; return 0; }",
		"int main() { int a[0]; return 0; }",
		"int main() { return f(1); }",
	}
	for i, src := range bad {
		if _, err := CompileString(src, freezeCfg()); err == nil {
			t.Errorf("case %d: expected error for %q", i, src)
		}
	}
}

// TestLexAllocations: lexing allocates the token slice, once, and the
// lexer, and nothing per token; a stray byte at or above 0x80 is still
// quoted as its code point.
func TestLexAllocations(t *testing.T) {
	src := `struct S { int a : 3; unsigned b : 5; };
int g[8];
int main() {
    struct S s; int acc = 0;
    for (int i = 0; i < 8; i += 1) {
        s.a = i & 3; s.b = (i << 1) | 1;
        g[i] = s.a * (s.b - 1) / 2 % 7;
        if (g[i] >= 2 && g[i] != 5 || i == 0) acc ^= g[i];
    }
    return acc + 'x' + 0x1F;
}`
	if n := testing.AllocsPerRun(20, func() { lex(src) }); n != 2 {
		t.Errorf("lex allocated %v times per run, want 2 (token slice and lexer)", n)
	}
	_, err := CompileString("int main() { return 0 \xa7; }", Config{})
	if want := `minc: line 1: expected ";", got "§"`; err == nil || err.Error() != want {
		t.Errorf("stray byte: got %v, want %s", err, want)
	}
}

// TestArraySizeLimit: an array or struct larger than the largest
// object the IR holds (ir.MaxGlobalSize) is an error at its length
// token, whether its size wraps 32 bits or not, and an array at the
// limit is accepted.
func TestArraySizeLimit(t *testing.T) {
	const limit = "exceeds the 16777216-byte object size limit"
	for _, c := range []struct{ name, src, wantErr string }{
		{"global, exact 32-bit wrap", "int big[1073741824];\nint main() { return 0; }",
			"minc: line 1: array int[1073741824] " + limit},
		{"local", "int main() {\n  char a[16777217];\n  return 0;\n}",
			"minc: line 2: array char[16777217] " + limit},
		{"struct field", "struct s {\n  int x;\n  long a[2097153];\n};\nint main() { return 0; }",
			"minc: line 3: array long[2097153] " + limit},
		{"struct of fields within the limit", "struct s {\n  int a[4194304];\n  int b;\n};\nint main() { return 0; }",
			"minc: line 3: struct s " + limit},
		{"nested array", "struct row { int v[1024]; };\nstruct row grid[4097];\nint main() { return 0; }",
			"minc: line 2: array struct row[4097] " + limit},
		{"at the limit", "int main() {\n  int a[4194304];\n  return 0;\n}", ""},
	} {
		_, err := Parse(c.src)
		if got := fmt.Sprint(err); (c.wantErr == "" && err != nil) || (c.wantErr != "" && got != c.wantErr) {
			t.Errorf("%s: error %q, want %q", c.name, got, c.wantErr)
		}
	}
}

func TestCompoundAssignOps(t *testing.T) {
	src := `
int main() {
    int x = 100;
    x += 5; x -= 3; x *= 2; x /= 4; x %= 13;
    x <<= 2; x >>= 1; x &= 0xff; x |= 0x100; x ^= 0x3;
    return x;
}`
	x := 100
	x += 5
	x -= 3
	x *= 2
	x /= 4
	x %= 13
	x <<= 2
	x >>= 1
	x &= 0xff
	x |= 0x100
	x ^= 0x3
	if got := runMain(t, src, freezeCfg()); got != int64(x) {
		t.Errorf("got %d, want %d", got, x)
	}
}

// §5.3's "superior alternative": the vector-based bit-field lowering
// needs no freeze at all — per-lane poison cannot contaminate sibling
// fields — and, like the paper's LLVM, our backend cannot lower it
// (vectors are unsupported at VX64), so it runs on the interpreter
// only.
func TestBitfieldVectorLowering(t *testing.T) {
	src := `
struct s { int a : 4; int b : 4; };
int main() {
    struct s x;
    x.a = 5;
    x.b = 2;
    return x.a + x.b * 10;  // 25
}`
	cfg := Config{Bitfields: BitfieldVector} // note: no freeze flag
	mod, err := CompileString(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	freezes := 0
	mod.FuncByName("main").ForEachInstr(func(in *ir.Instr) {
		if in.Op == ir.OpFreeze {
			freezes++
		}
	})
	if freezes != 0 {
		t.Errorf("vector lowering should need no freezes, found %d", freezes)
	}
	out := core.Exec(mod.FuncByName("main"), nil, core.ZeroOracle{}, core.FreezeOptions())
	if out.Kind != core.OutRet || !out.Val.IsConcrete() || out.Val.Int() != 25 {
		t.Errorf("vector-lowered bit fields: got %v, want 25", out)
	}
	// The backend rejects it — the paper's "not well supported by
	// LLVM's backend", faithfully reproduced.
	if _, err := mi.CompileModule(mod); err == nil {
		t.Error("VX64 should reject the vector lowering (as the paper's backend effectively did)")
	}
}
