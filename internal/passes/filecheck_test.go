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
//	; RUN: passes=instcombine,dce sem=freeze [unsound] [freezeblind] [prefix=P]
//	; CHECK: %r = shl i8
//	; CHECK-NEXT: ret i8 %r
//	; CHECK-NOT: mul
//
// CHECK matches a substring at or after the previous match's line;
// CHECK-NEXT on the immediately following line; CHECK-NOT asserts the
// substring is absent from the whole output.
//
// A file may carry several RUN lines, each run on its own fresh parse.
// Every run checks the CHECK directives; a RUN line with prefix=P
// also checks P, P-NEXT and P-NOT directives, which other runs skip.

// fileCheckRuns is how many times each file's pipeline runs from a
// fresh parse. Every run must print the same module, so each case also
// checks that its passes are deterministic (no map-order output).
const fileCheckRuns = 10

type checkDirective struct {
	prefix string // CHECK, or a RUN line's prefix
	kind   string // "", "-NEXT" or "-NOT"
	text   string
	line   int
}

// fileCheckRun is one RUN line: the passes, their configuration and the
// directive prefix that only this run checks.
type fileCheckRun struct {
	passNames []string
	cfg       *Config
	prefix    string
}

func parseRunLine(t *testing.T, path, line string) fileCheckRun {
	var run fileCheckRun
	var sem string
	unsound, freezeblind := false, false
	for _, tok := range strings.Fields(line) {
		switch {
		case strings.HasPrefix(tok, "passes="):
			run.passNames = strings.Split(strings.TrimPrefix(tok, "passes="), ",")
		case strings.HasPrefix(tok, "sem="):
			sem = strings.TrimPrefix(tok, "sem=")
		case strings.HasPrefix(tok, "prefix="):
			run.prefix = strings.TrimPrefix(tok, "prefix=")
		case tok == "unsound":
			unsound = true
		case tok == "freezeblind":
			freezeblind = true
		default:
			t.Fatalf("%s: unknown RUN token %q", path, tok)
		}
	}
	if len(run.passNames) == 0 || sem == "" {
		t.Fatalf("%s: RUN line needs passes= and sem=", path)
	}
	run.cfg = &Config{Unsound: unsound, VerifyEach: true}
	switch sem {
	case "freeze":
		run.cfg.Sem = core.FreezeOptions()
		run.cfg.FreezeAware = !freezeblind
	case "legacy":
		run.cfg.Sem = core.LegacyOptions(core.BranchPoisonNondet)
	default:
		t.Fatalf("%s: unknown sem %q", path, sem)
	}
	return run
}

func runFileCheck(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	src := string(raw)
	lines := strings.Split(src, "\n")

	var runs []fileCheckRun
	prefixes := map[string]bool{"CHECK": true}
	for _, line := range lines {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "; RUN:"); ok {
			run := parseRunLine(t, path, rest)
			runs = append(runs, run)
			if run.prefix != "" {
				prefixes[run.prefix] = true
			}
		}
	}
	if len(runs) == 0 {
		t.Fatalf("%s: missing RUN line", path)
	}
	var checks []checkDirective
	for i, line := range lines {
		rest, ok := strings.CutPrefix(strings.TrimSpace(line), "; ")
		if !ok {
			continue
		}
		head, text, ok := strings.Cut(rest, ":")
		if !ok {
			continue
		}
		d := checkDirective{prefix: head, text: strings.TrimSpace(text), line: i + 1}
		for _, kind := range []string{"-NEXT", "-NOT"} {
			if p, ok := strings.CutSuffix(head, kind); ok {
				d.prefix, d.kind = p, kind
			}
		}
		if prefixes[d.prefix] {
			checks = append(checks, d)
		}
	}
	if len(checks) == 0 {
		t.Fatalf("%s: no CHECK directives", path)
	}
	for _, run := range runs {
		var own []checkDirective
		for _, c := range checks {
			if c.prefix == "CHECK" || c.prefix == run.prefix {
				own = append(own, c)
			}
		}
		checkRun(t, path, src, run, own)
	}
}

// checkRun runs one RUN line's passes over src fileCheckRuns times and
// matches the printed module against its directives.
func checkRun(t *testing.T, path, src string, run fileCheckRun, checks []checkDirective) {
	t.Helper()
	var out string
	for r := 0; r < fileCheckRuns; r++ {
		mod, err := ir.ParseModule(src)
		if err != nil {
			t.Fatalf("%s: parse: %v", path, err)
		}
		for _, name := range run.passNames {
			p, err := LookupPass(name)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			for _, fn := range mod.Funcs {
				RunPass(p, fn, run.cfg)
			}
		}
		if got := mod.String(); r == 0 {
			out = got
		} else if got != out {
			t.Fatalf("%s: run %d printed a different module than run 1:\n%s\nvs\n%s", path, r+1, got, out)
		}
	}
	outLines := strings.Split(out, "\n")

	cursor := -1 // index of the line of the last positive match
	for _, c := range checks {
		name := c.prefix + c.kind
		switch c.kind {
		case "-NOT":
			if strings.Contains(out, c.text) {
				t.Errorf("%s:%d: %s %q matched:\n%s", path, c.line, name, c.text, out)
			}
		case "":
			found := -1
			for i := cursor + 1; i < len(outLines); i++ {
				if strings.Contains(outLines[i], c.text) {
					found = i
					break
				}
			}
			if found < 0 {
				t.Errorf("%s:%d: %s %q not found after line %d:\n%s", path, c.line, name, c.text, cursor+1, out)
				return
			}
			cursor = found
		case "-NEXT":
			if cursor+1 >= len(outLines) || !strings.Contains(outLines[cursor+1], c.text) {
				got := "<eof>"
				if cursor+1 < len(outLines) {
					got = outLines[cursor+1]
				}
				t.Errorf("%s:%d: %s %q, next line is %q:\n%s", path, c.line, name, c.text, got, out)
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
