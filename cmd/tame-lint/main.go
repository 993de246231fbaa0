// tame-lint runs the static checkers over a module without optimizing
// it: the IR verifier for the chosen dialect, the SSA dominance
// checker, and the flow-sensitive poison dataflow analysis. It reports
// a per-function fact summary and flags every redundant freeze — a
// freeze whose operand the analysis proves never-poison (globally, or
// under a dominating branch guard in the freeze dialect). The rule is
// freeze-elim's own (passes.RedundantFreeze), so the flagged freezes
// are exactly the ones a freeze-elim step deletes.
//
// Usage:
//
//	tame-lint [-sem legacy|freeze] [-q] [file]
//
// Exit status 1 on verifier or SSA errors; redundant freezes are
// informational (they are sound, just wasteful).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"tameir/internal/analysis"
	"tameir/internal/ir"
	"tameir/internal/passes"
)

func main() {
	sem := flag.String("sem", "freeze", "semantics: legacy or freeze")
	quiet := flag.Bool("q", false, "suppress per-function summaries; print only errors and redundant-freeze diagnostics")
	flag.Parse()

	var mode ir.VerifyMode
	var freezeDialect bool
	switch *sem {
	case "freeze":
		mode, freezeDialect = ir.VerifyFreeze, true
	case "legacy":
		mode, freezeDialect = ir.VerifyLegacy, false
	default:
		fatal(fmt.Errorf("unknown semantics %q", *sem))
	}

	var src []byte
	var err error
	name := "<stdin>"
	if flag.NArg() > 0 {
		name = flag.Arg(0)
		src, err = os.ReadFile(name)
	} else {
		src, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		fatal(err)
	}
	mod, err := ir.ParseModule(string(src))
	if err != nil {
		fatal(fmt.Errorf("%s: %w", name, err))
	}

	errs := 0
	redundant := 0
	for _, f := range mod.Funcs {
		if err := ir.Verify(f, mode); err != nil {
			fmt.Printf("%s: @%s: verifier: %v\n", name, f.Name(), err)
			errs++
			continue
		}
		if err := analysis.VerifySSA(f); err != nil {
			fmt.Printf("%s: @%s: ssa: %v\n", name, f.Name(), err)
			errs++
			continue
		}

		facts := analysis.AnalyzePoison(f)
		for _, r := range redundantFreezes(f, facts, freezeDialect) {
			if r.guarded {
				// Branch-on-poison is UB in the freeze dialect, so a
				// dominating guard already proved the operand clean
				// on every execution reaching this block.
				fmt.Printf("%s: @%s: %%%s: redundant freeze: operand is never poison under dominating guard\n",
					name, f.Name(), r.freeze.Name())
			} else {
				fmt.Printf("%s: @%s: %%%s: redundant freeze: operand is never poison\n",
					name, f.Name(), r.freeze.Name())
			}
			redundant++
		}
		if !*quiet {
			never, may := facts.Counts()
			fmt.Printf("%s: @%s: %d never-poison, %d may-poison (%d fixpoint rounds)\n",
				name, f.Name(), never, may, facts.Rounds())
		}
	}

	if !*quiet || errs > 0 || redundant > 0 {
		fmt.Printf("tame-lint: %d functions, %d errors, %d redundant freezes\n",
			len(mod.Funcs), errs, redundant)
	}
	if errs > 0 {
		os.Exit(1)
	}
}

// redundantFreeze is one freeze freeze-elim would delete, and whether
// only a dominating guard makes it redundant.
type redundantFreeze struct {
	freeze  *ir.Instr
	guarded bool
}

// redundantFreezes lists f's redundant freezes in block order, by
// freeze-elim's own rule (passes.RedundantFreeze).
func redundantFreezes(f *ir.Func, facts *analysis.PoisonFacts, freezeDialect bool) []redundantFreeze {
	dt := analysis.NewDomTree(f)
	domTree := func() *analysis.DomTree { return dt }
	var out []redundantFreeze
	for _, b := range f.Blocks {
		for _, in := range b.Instrs() {
			if in.Op != ir.OpFreeze {
				continue
			}
			if redundant, guarded := passes.RedundantFreeze(in, facts, freezeDialect, domTree); redundant {
				out = append(out, redundantFreeze{in, guarded})
			}
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tame-lint:", err)
	os.Exit(1)
}
