// tame-run interprets textual IR under either undefined-behavior
// semantics.
//
// Usage:
//
//	tame-run [-sem legacy|freeze] [-fn main] [-seed N] [-interp]
//	         [-enumerate [-cache-dir DIR]] file [args...]
//
// Arguments are decimal integers (or the words "poison"/"undef") bound
// to the function's parameters. With -enumerate, all resolutions of
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
	cacheDir := flag.String("cache-dir", "", "persistent cache directory for -enumerate: warm-start the behaviour-set memo from it and refresh it after the run")
	flag.Parse()
	if flag.NArg() < 1 {
		fatal(fmt.Errorf("usage: tame-run [flags] file [args...]"))
	}
	if *cacheDir != "" && !*enumerate {
		fatal(fmt.Errorf("usage: -cache-dir needs -enumerate (a single run has no behaviour-set memo to warm-start)"))
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	mod, err := ir.ParseModule(string(src))
	if err != nil {
		fatal(err)
	}
	fn := mod.FuncByName(*fnName)
	if fn == nil {
		fatal(fmt.Errorf("no function @%s", *fnName))
	}

	var opts core.Options
	switch *sem {
	case "freeze":
		opts = core.FreezeOptions()
	case "legacy":
		opts = core.LegacyOptions(core.BranchPoisonNondet)
	default:
		fatal(fmt.Errorf("unknown semantics %q", *sem))
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
		// -cache-dir warm-starts the behaviour-set memo.
		cfg := refine.DefaultConfig(opts, opts)
		cfg.Interpret = *interp
		var disk *refine.DiskCache
		if *cacheDir != "" {
			cfg.Memo = refine.NewMemo(0)
			disk = refine.OpenDiskCache(*cacheDir, cfg.Memo)
			if _, err := disk.Load(); err != nil {
				fmt.Fprintf(os.Stderr, "tame-run: warning: cache-dir: %v\n", err)
			}
		}
		set := refine.Behaviors(fn, args, opts, cfg)
		fmt.Printf("behaviours: %s\n", set)
		if err := disk.Save(); err != nil {
			fmt.Fprintf(os.Stderr, "tame-run: warning: cache-dir: %v\n", err)
		}
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
		// One deterministic execution: steps, frames, and the process
		// program-cache traffic it induced.
		reg := telemetry.NewRegistry()
		env.Metrics.Publish(reg, telemetry.Deterministic)
		core.SharedProgramCache().Stats().Publish(reg, telemetry.Deterministic)
		if err := reg.Snapshot().WriteFile(*metricsPath); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tame-run:", err)
	os.Exit(1)
}
