package bench

import (
	"fmt"
	"io"

	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/optfuzz"
	"tameir/internal/passes"
	"tameir/internal/refine"
	"tameir/internal/telemetry"
)

// ValidationRow is one line of the Section 6 experiment: a pass (or
// pipeline) validated against exhaustively generated functions.
type ValidationRow struct {
	Pass         string
	Funcs        int
	Verified     int
	Refuted      int
	Inconclusive int
	// FirstCE is the first counterexample found, for the report.
	FirstCE string
}

// validationPasses mirrors §6: "we used Alive to validate both
// individual passes (InstCombine, GVN, Reassociation, and SCCP) and
// the collection of passes implied by the -O2 compiler flag".
func validationPasses() []struct {
	name string
	run  func(f *ir.Func, cfg *passes.Config)
} {
	single := func(p passes.Pass) func(f *ir.Func, cfg *passes.Config) {
		return func(f *ir.Func, cfg *passes.Config) { passes.RunPass(p, f, cfg) }
	}
	return []struct {
		name string
		run  func(f *ir.Func, cfg *passes.Config)
	}{
		{"instcombine", single(passes.InstCombine{})},
		{"gvn", single(passes.GVN{})},
		{"reassociate", single(passes.Reassociate{})},
		{"sccp", single(passes.SCCP{})},
		{"-O2", func(f *ir.Func, cfg *passes.Config) {
			m := ir.NewModule()
			m.AddFunc(f)
			passes.O2().Run(m, cfg)
		}},
	}
}

// Validate runs the §6 experiment: exhaustively generate functions of
// numInstrs instructions over 2-bit arithmetic (capped at maxFuncs per
// pass), transform each with the pass, and decide refinement.
//
// fixed selects the paper's fixed passes under the Freeze semantics;
// !fixed selects the historical passes under the legacy semantics
// (with nondeterministic branch-on-poison), where the validator finds
// real miscompilations.
//
// reg, when non-nil, receives each pass sweep's checker counters
// labeled {experiment="validate",dialect=…,pass=…} — the serial sweep
// runs no campaign, so the harness publishes the per-pass
// CheckMetrics itself (deterministic class: one worker, no shared
// memo).
func Validate(fixed bool, numInstrs, maxFuncs int, reg *telemetry.Registry) []ValidationRow {
	var sem core.Options
	var pcfg *passes.Config
	gen := optfuzz.DefaultConfig(numInstrs)
	// Enumerate nsw/nuw/exact variants like opt-fuzz: the historical
	// reassociation bug (§10.2) only shows on attribute-carrying
	// chains.
	gen.EnumAttrs = true
	dialect := "freeze"
	if fixed {
		sem = core.FreezeOptions()
		pcfg = passes.DefaultFreezeConfig()
		gen.AllowUndef = false
		gen.AllowPoison = true
	} else {
		sem = core.LegacyOptions(core.BranchPoisonNondet)
		pcfg = passes.DefaultLegacyConfig()
		gen.AllowUndef = true
		dialect = "legacy"
	}
	gen.MaxFuncs = maxFuncs
	rcfg := refine.DefaultConfig(sem, sem)

	var rows []ValidationRow
	for _, vp := range validationPasses() {
		row := ValidationRow{Pass: vp.name}
		var met refine.CheckMetrics
		cfg := rcfg
		if reg != nil {
			cfg.Metrics = &met
		}
		optfuzz.Exhaustive(gen, func(f *ir.Func) bool {
			work := ir.CloneFunc(f)
			vp.run(work, pcfg)
			r := refine.Check(f, work, cfg)
			row.Funcs++
			switch r.Status {
			case refine.Verified:
				row.Verified++
			case refine.Refuted:
				row.Refuted++
				if row.FirstCE == "" {
					row.FirstCE = fmt.Sprintf("%s→%s: %s", oneLine(f), oneLine(work), r.CE)
				}
			default:
				row.Inconclusive++
			}
			return true
		})
		if reg != nil {
			sub := telemetry.NewRegistry()
			met.Publish(sub, telemetry.Deterministic)
			// The E3 verdict tallies, as counters: the serial sweep is
			// fully deterministic, so a metrics diff between two builds
			// is a semantic diff of the validator or the pass.
			sub.Counter("bench_funcs_total", telemetry.Deterministic, "functions generated and validated").Add(uint64(row.Funcs))
			sub.Counter("bench_verified_total", telemetry.Deterministic, "pairs proved refining").Add(uint64(row.Verified))
			sub.Counter("bench_refuted_total", telemetry.Deterministic, "pairs refuted by counterexample").Add(uint64(row.Refuted))
			sub.Counter("bench_inconclusive_total", telemetry.Deterministic, "pairs hitting enumeration limits").Add(uint64(row.Inconclusive))
			reg.MergeLabeled(sub, "experiment", "validate", "dialect", dialect, "pass", vp.name)
		}
		rows = append(rows, row)
	}
	return rows
}

func oneLine(f *ir.Func) string {
	s := f.String()
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, ' ')
		} else {
			out = append(out, s[i])
		}
	}
	return string(out)
}

// ReportValidation renders the E3 table.
func ReportValidation(w io.Writer, title string, rows []ValidationRow) {
	fmt.Fprintf(w, "== E3: translation validation (%s) ==\n", title)
	fmt.Fprintf(w, "%-12s %8s %9s %8s %13s\n", "pass", "funcs", "verified", "refuted", "inconclusive")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %8d %9d %8d %13d\n", r.Pass, r.Funcs, r.Verified, r.Refuted, r.Inconclusive)
	}
	for _, r := range rows {
		if r.FirstCE != "" {
			fmt.Fprintf(w, "first counterexample for %s:\n  %s\n", r.Pass, r.FirstCE)
		}
	}
}
