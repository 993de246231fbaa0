// tame-run interprets textual IR under either undefined-behavior
// semantics.
//
// Usage:
//
//	tame-run [-sem legacy|freeze] [-fn main] [-seed N] [-interp]
//	         [-enumerate] file [args...]
//
// The module must verify in the -sem dialect. Arguments are decimal
// integers (or the words "poison"/"undef") bound to the function's
// parameters. With -enumerate, all resolutions of
// nondeterminism are explored and the behaviour set is printed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/refine"
	"tameir/internal/telemetry"
)

func main() {
	sem := flag.String("sem", "freeze", "semantics: legacy or freeze")
	fnName := flag.String("fn", "main", "function to run")
	seed := flag.Int64("seed", 0, "oracle seed for randomized nondeterminism")
	enumerate := flag.Bool("enumerate", false, "enumerate all behaviours (small types only)")
	trace := flag.Bool("trace", false, "print every executed instruction")
	interp := flag.Bool("interp", false, "force the tree-walking interpreter instead of the compiled engine")
	metricsPath := flag.String("metrics", "", "write engine metrics after the run ('-' = text on stdout, *.json = JSON)")
	flag.Parse()
	if flag.NArg() < 1 {
		fatal(fmt.Errorf("usage: tame-run [flags] file [args...]"))
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	opts, err := core.SemanticsByName(*sem)
	if err != nil {
		fatal(err)
	}
	mod, err := ir.ParseModule(string(src))
	if err != nil {
		fatal(err)
	}
	if err := ir.VerifyModule(mod, opts.Mode.VerifyMode()); err != nil {
		fatal(err)
	}
	fn := mod.FuncByName(*fnName)
	if fn == nil {
		fatal(fmt.Errorf("no function @%s", *fnName))
	}

	rest := flag.Args()[1:]
	if len(rest) != len(fn.Params) {
		fatal(fmt.Errorf("@%s takes %d arguments, got %d", *fnName, len(fn.Params), len(rest)))
	}
	args := make([]core.Value, len(rest))
	for i, a := range rest {
		switch a {
		case "poison":
			args[i] = core.VPoison(fn.Params[i].Ty)
		case "undef":
			if opts.Mode == core.Freeze {
				fatal(fmt.Errorf("undef does not exist under the freeze semantics"))
			}
			args[i] = core.VUndef(fn.Params[i].Ty)
		default:
			v, err := strconv.ParseInt(a, 0, 64)
			if err != nil {
				fatal(fmt.Errorf("bad argument %q: %v", a, err))
			}
			args[i] = core.VC(fn.Params[i].Ty, uint64(v))
		}
	}

	if *enumerate {
		cfg := refine.DefaultConfig(opts, opts)
		cfg.Interpret = *interp
		set := refine.Behaviors(fn, args, opts, cfg)
		fmt.Printf("behaviours: %s\n", set)
		return
	}
	env, err := core.NewEnv(mod, core.NewRandOracle(*seed), opts)
	if err != nil {
		fatal(err)
	}
	if *trace {
		env.Trace = func(depth int, in *ir.Instr, v core.Value) {
			indent := ""
			for i := 0; i < depth; i++ {
				indent += "  "
			}
			if in.Ty.IsVoid() {
				fmt.Printf("%s%s\n", indent, in)
			} else {
				fmt.Printf("%s%s  ; → %s\n", indent, in, v)
			}
		}
	}
	var out core.Outcome
	if *interp {
		out = env.RunInterp(fn, args)
	} else {
		out = env.Run(fn, args)
	}
	fmt.Println(out)
	if *metricsPath != "" {
		// One deterministic execution: steps and frames.
		reg := telemetry.NewRegistry()
		env.Metrics.Publish(reg, telemetry.Deterministic)
		if err := reg.Snapshot().WriteFile(*metricsPath); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tame-run:", err)
	os.Exit(1)
}
