package bench

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"tameir/internal/target"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/minc_golden.txt from the current compiler")

const goldenPath = "testdata/minc_golden.txt"

// programText renders an allocated VX64 program one instruction a line,
// with its function names and block labels.
func programText(prog *target.Program) string {
	var b strings.Builder
	for _, f := range prog.Funcs {
		fmt.Fprintf(&b, "%s:\n", f.Name)
		for bi, blk := range f.Blocks {
			fmt.Fprintf(&b, " L%d:\n", bi)
			for _, in := range blk {
				b.WriteString("  " + in.String() + "\n")
			}
		}
	}
	return b.String()
}

// TestMincGolden pins E6 and E7 and the code behind them: for every
// program under both variants, the optimized module's instruction and
// freeze counts, object bytes, simulated cycles, checksum, and a
// SHA-256 of the printed optimized module and of the allocated
// program. A compiler change that is meant to keep its output (a
// faster pass, a faster allocator) must reproduce the file exactly;
// one that changes code on purpose regenerates it with
// `go test ./internal/bench -run TestMincGolden -update`.
func TestMincGolden(t *testing.T) {
	var b strings.Builder
	for _, v := range []Variant{Baseline(), Prototype()} {
		for _, p := range Programs {
			mod, prog, err := Compile(p, v)
			if err != nil {
				t.Fatal(err)
			}
			m := observe(p, v, mod, prog)
			if m.SimError != "" {
				t.Fatalf("[%s] %s: simulator: %s", v.Name, p.Name, m.SimError)
			}
			fmt.Fprintf(&b, "%s %s instrs=%d freezes=%d bytes=%d cycles=%d checksum=%d ir=%x vx64=%x\n",
				p.Name, v.Name, m.IRInstrs, m.FreezeCount, m.ObjectBytes, m.Cycles, m.Checksum,
				sha256.Sum256([]byte(mod.String())), sha256.Sum256([]byte(programText(prog))))
		}
	}
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("differs from %s at line %d:\ngot:  %s\nwant: %s", goldenPath, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("%d lines, %s has %d", len(gl), goldenPath, len(wl))
	}
}
