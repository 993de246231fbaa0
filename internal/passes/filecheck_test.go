package passes

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tameir/internal/core"
	"tameir/internal/ir"
)

// This file implements a FileCheck-lite driver over testdata/*.ll,
// LLVM-style: each file carries a RUN line naming the passes and
// semantics, and CHECK / CHECK-NOT / CHECK-NEXT directives matched
// against the optimized module's printed form.
//
//	; RUN: passes=instcombine,dce sem=freeze [unsound] [freezeblind]
//	; CHECK: %r = shl i8
//	; CHECK-NEXT: ret i8 %r
//	; CHECK-NOT: mul
//
// CHECK matches a substring at or after the previous match's line;
// CHECK-NEXT on the immediately following line; CHECK-NOT asserts the
// substring is absent from the whole output.

// fileCheckRuns is how many times each file's pipeline runs from a
// fresh parse. Every run must print the same module, so each case also
// checks that its passes are deterministic (no map-order output).
const fileCheckRuns = 10

type checkDirective struct {
	kind string // CHECK, CHECK-NEXT, CHECK-NOT
	text string
	line int
}

func runFileCheck(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	src := string(raw)
	lines := strings.Split(src, "\n")

	var passNames []string
	var sem string
	unsound, freezeblind := false, false
	var checks []checkDirective
	for i, line := range lines {
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "; RUN:"):
			for _, tok := range strings.Fields(strings.TrimPrefix(trimmed, "; RUN:")) {
				switch {
				case strings.HasPrefix(tok, "passes="):
					passNames = strings.Split(strings.TrimPrefix(tok, "passes="), ",")
				case strings.HasPrefix(tok, "sem="):
					sem = strings.TrimPrefix(tok, "sem=")
				case tok == "unsound":
					unsound = true
				case tok == "freezeblind":
					freezeblind = true
				default:
					t.Fatalf("%s: unknown RUN token %q", path, tok)
				}
			}
		case strings.HasPrefix(trimmed, "; CHECK-NOT:"):
			checks = append(checks, checkDirective{"CHECK-NOT", strings.TrimSpace(strings.TrimPrefix(trimmed, "; CHECK-NOT:")), i + 1})
		case strings.HasPrefix(trimmed, "; CHECK-NEXT:"):
			checks = append(checks, checkDirective{"CHECK-NEXT", strings.TrimSpace(strings.TrimPrefix(trimmed, "; CHECK-NEXT:")), i + 1})
		case strings.HasPrefix(trimmed, "; CHECK:"):
			checks = append(checks, checkDirective{"CHECK", strings.TrimSpace(strings.TrimPrefix(trimmed, "; CHECK:")), i + 1})
		}
	}
	if len(passNames) == 0 || sem == "" {
		t.Fatalf("%s: missing RUN line", path)
	}
	if len(checks) == 0 {
		t.Fatalf("%s: no CHECK directives", path)
	}

	cfg := &Config{Unsound: unsound, VerifyEach: true}
	switch sem {
	case "freeze":
		cfg.Sem = core.FreezeOptions()
		cfg.FreezeAware = !freezeblind
	case "legacy":
		cfg.Sem = core.LegacyOptions(core.BranchPoisonNondet)
	default:
		t.Fatalf("%s: unknown sem %q", path, sem)
	}
	var out string
	for run := 0; run < fileCheckRuns; run++ {
		mod, err := ir.ParseModule(src)
		if err != nil {
			t.Fatalf("%s: parse: %v", path, err)
		}
		for _, name := range passNames {
			p := PassByName(name)
			if p == nil {
				t.Fatalf("%s: unknown pass %q", path, name)
			}
			for _, fn := range mod.Funcs {
				RunPass(p, fn, cfg)
			}
		}
		if got := mod.String(); run == 0 {
			out = got
		} else if got != out {
			t.Fatalf("%s: run %d printed a different module than run 1:\n%s\nvs\n%s", path, run+1, got, out)
		}
	}
	outLines := strings.Split(out, "\n")

	cursor := -1 // index of the line of the last positive match
	for _, c := range checks {
		switch c.kind {
		case "CHECK-NOT":
			if strings.Contains(out, c.text) {
				t.Errorf("%s:%d: CHECK-NOT %q matched:\n%s", path, c.line, c.text, out)
			}
		case "CHECK":
			found := -1
			for i := cursor + 1; i < len(outLines); i++ {
				if strings.Contains(outLines[i], c.text) {
					found = i
					break
				}
			}
			if found < 0 {
				t.Errorf("%s:%d: CHECK %q not found after line %d:\n%s", path, c.line, c.text, cursor+1, out)
				return
			}
			cursor = found
		case "CHECK-NEXT":
			if cursor+1 >= len(outLines) || !strings.Contains(outLines[cursor+1], c.text) {
				got := "<eof>"
				if cursor+1 < len(outLines) {
					got = outLines[cursor+1]
				}
				t.Errorf("%s:%d: CHECK-NEXT %q, next line is %q:\n%s", path, c.line, c.text, got, out)
				return
			}
			cursor++
		}
	}
}

func TestFileCheckCorpus(t *testing.T) {
	files, err := filepath.Glob("testdata/*.ll")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no testdata/*.ll files")
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) { runFileCheck(t, f) })
	}
}
