package ir_test

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"tameir/internal/ir"
	"tameir/internal/optfuzz"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/print_golden.txt from the current printer")

const goldenPath = "testdata/print_golden.txt"

// goldenCandidates is how many §6 candidates each generator contributes.
const goldenCandidates = 2000

// goldenInputs returns the functions the printer golden covers, each
// under a stable label: every function of the pass test corpus, then
// the first goldenCandidates 3-instruction candidates of the freeze and
// legacy generators.
func goldenInputs(t *testing.T) (labels []string, funcs []*ir.Func) {
	t.Helper()
	files, err := filepath.Glob("../passes/testdata/*.ll")
	if err != nil || len(files) == 0 {
		t.Fatalf("no pass corpus: %v", err)
	}
	sort.Strings(files)
	for _, path := range files {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ir.ParseModule(string(text))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, f := range m.Funcs {
			labels = append(labels, filepath.Base(path)+" @"+f.Name())
			funcs = append(funcs, f)
		}
	}
	freeze := optfuzz.DefaultConfig(3)
	freeze.AllowUndef, freeze.AllowPoison = false, true
	legacy := optfuzz.DefaultConfig(3)
	for _, g := range []struct {
		name string
		cfg  optfuzz.Config
	}{{"freeze", freeze}, {"legacy", legacy}} {
		g.cfg.MaxFuncs = goldenCandidates
		i := 0
		optfuzz.Exhaustive(g.cfg, func(f *ir.Func) bool {
			labels = append(labels, g.name+" #"+strconv.Itoa(i))
			funcs = append(funcs, f)
			i++
			return true
		})
		if i != goldenCandidates {
			t.Fatalf("%s generator produced %d candidates, want %d", g.name, i, goldenCandidates)
		}
	}
	return labels, funcs
}

func renderGolden(labels []string, funcs []*ir.Func) string {
	var b strings.Builder
	for i, f := range funcs {
		b.WriteString("; ")
		b.WriteString(labels[i])
		b.WriteByte('\n')
		b.WriteString(f.String())
	}
	return b.String()
}

// TestPrintGolden pins the printer's output byte for byte. Memo keys,
// finding text, corpus files and every cmp gate depend on it, so a
// printer change must reproduce the committed file exactly. Regenerate
// with `go test ./internal/ir -run TestPrintGolden -update` only when
// the textual IR syntax itself changes on purpose.
func TestPrintGolden(t *testing.T) {
	labels, funcs := goldenInputs(t)
	got := renderGolden(labels, funcs)
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
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("printer output differs from %s at line %d:\ngot:  %q\nwant: %q", goldenPath, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("printer output differs from %s in length: %d lines, want %d", goldenPath, len(gl), len(wl))
}

// TestPrintRoundTrip: over the golden inputs, printing is a fixed point
// of parsing (ParseFunc(f.String()).String() == f.String()), and every
// instruction's own String is the line the function printer emits for
// it.
func TestPrintRoundTrip(t *testing.T) {
	labels, funcs := goldenInputs(t)
	for i, f := range funcs {
		text := f.String()
		lines := strings.Split(text, "\n")
		n := 0 // the define line
		for _, blk := range f.Blocks {
			n++ // the block label line
			for _, in := range blk.Instrs() {
				n++
				if want := "  " + in.String(); lines[n] != want {
					t.Fatalf("%s: Instr.String %q disagrees with the function printer's line %q", labels[i], want, lines[n])
				}
			}
		}
		if strings.Contains(text, " call ") {
			// ParseFunc cannot resolve calls to sibling functions; the
			// golden file covers these through their module's parse.
			continue
		}
		g, err := ir.ParseFunc(text)
		if err != nil {
			t.Fatalf("%s: reparse: %v\n%s", labels[i], err, text)
		}
		if got := g.String(); got != text {
			t.Fatalf("%s: round trip changed the text:\nfirst:  %q\nsecond: %q", labels[i], text, got)
		}
	}
}
