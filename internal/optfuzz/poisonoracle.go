package optfuzz

import (
	"fmt"
	"strings"

	"tameir/internal/analysis"
	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/parallel"
	"tameir/internal/refine"
	"tameir/internal/telemetry"
)

// This file is the campaign soundness oracle for the flow-sensitive
// poison analysis: over the §6 exhaustive function space, every value
// the analysis claims NeverPoison is cross-checked against concrete
// enumeration — all input tuples (poison and, under legacy, undef
// included) times all nondeterministic resolutions — with the
// interpreter's trace hook watching what each claimed instruction
// actually evaluates to. A single claimed value that evaluates to
// poison (or undef: the lattice promises freedom from both) is a
// soundness bug in the analysis, exactly the class of silent
// miscompile precursor translation validation cannot see until a pass
// consumes the bad fact.

// PoisonOracle configures one soundness sweep. The candidate stream is
// a Source, sharded and budgeted exactly like Campaign's, so a budgeted
// oracle enumerates exactly the candidate set the validation campaign
// does — and any workload (exhaustive, mutation corpus, wide sample)
// can be swept for analysis soundness.
//
// Each execution's nondeterminism oracle and the resolution sweep per
// input tuple are bounded by refine.DefaultConfig's MaxChoices,
// MaxFanout and MaxExecs.
type PoisonOracle struct {
	// Source is the candidate stream (NewExhaustiveSource(gen) for the
	// §6 space), sharded and budgeted like Campaign's. Required.
	Source Source
	// Sem is the execution semantics claims are checked under.
	Sem core.Options
	// Workers bounds the shard worker pool: 1 is serial, below 1 means
	// one per CPU.
	Workers int
	// Telemetry, when non-nil, receives poison_oracle_* counters.
	Telemetry *telemetry.Registry
}

// PoisonViolation is one refuted claim: a concrete execution on which a
// statically NeverPoison instruction evaluated to poison or undef.
type PoisonViolation struct {
	Shard int
	Fn    string // full IR of the offending function
	Val   string // the claimed instruction
	Args  string // the input tuple that broke the claim
	Got   string // the deferred-UB value actually observed
}

func (v PoisonViolation) String() string {
	return fmt.Sprintf("shard %d: %%%s claimed never-poison but evaluated to %s on args (%s)\n%s",
		v.Shard, v.Val, v.Got, v.Args, v.Fn)
}

// PoisonOracleStats is the merged result of a sweep.
type PoisonOracleStats struct {
	Funcs  int    // functions enumerated
	Claims int    // NeverPoison claims checked
	Execs  uint64 // concrete executions traced
	// Incomplete counts functions whose resolution sweep hit MaxExecs;
	// their claims are checked on a prefix of the behavior space only.
	Incomplete int
	Violations []PoisonViolation
}

// Run executes the sweep and returns merged, shard-ordered stats. Like
// the campaign, the result is deterministic: the shard partition fixes
// the function order, every shard owns its oracle and environments, and
// per-shard tallies merge in shard order.
func (po PoisonOracle) Run() PoisonOracleStats {
	src := po.Source
	shards := src.Shards()
	budget := src.Budget()
	var caps []int
	if budget > 0 {
		caps = src.Capacities(budget)
	}
	budgets := shardBudgets(budget, shards, caps)

	lim := refine.DefaultConfig(po.Sem, po.Sem)

	results := parallel.MapTimed(po.Workers, shards, func(s int) PoisonOracleStats {
		if budget > 0 && budgets[s] == 0 {
			return PoisonOracleStats{}
		}
		var st PoisonOracleStats
		src.Enumerate(s, budgets[s], func(f *ir.Func) bool {
			st.Funcs++
			po.checkFunc(f, s, &lim, &st)
			return true
		})
		return st
	}, nil)

	var out PoisonOracleStats
	for _, r := range results {
		out.Funcs += r.Funcs
		out.Claims += r.Claims
		out.Execs += r.Execs
		out.Incomplete += r.Incomplete
		out.Violations = append(out.Violations, r.Violations...)
	}
	if po.Telemetry != nil {
		reg := po.Telemetry
		reg.Counter("poison_oracle_funcs_total", telemetry.Deterministic, "functions swept by the poison soundness oracle").Add(uint64(out.Funcs))
		reg.Counter("poison_oracle_claims_total", telemetry.Deterministic, "static NeverPoison claims cross-checked").Add(uint64(out.Claims))
		reg.Counter("poison_oracle_execs_total", telemetry.Deterministic, "concrete executions traced by the oracle").Add(out.Execs)
		reg.Counter("poison_oracle_incomplete_total", telemetry.Deterministic, "functions whose resolution sweep hit the execution cap").Add(uint64(out.Incomplete))
		reg.Counter("poison_oracle_violations_total", telemetry.Deterministic, "claims refuted by a concrete execution").Add(uint64(len(out.Violations)))
	}
	return out
}

// checkFunc analyzes one function and, when the analysis makes any
// claim, sweeps every input tuple × nondeterministic resolution with a
// tracer watching the claimed instructions.
func (po PoisonOracle) checkFunc(f *ir.Func, shard int, lim *refine.Config, st *PoisonOracleStats) {
	facts := analysis.AnalyzePoison(f)
	claimed := make(map[*ir.Instr]bool)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs() {
			if in.Ty.IsVoid() || in.Op.IsTerminator() {
				continue
			}
			if facts.Fact(in) == analysis.NeverPoison {
				claimed[in] = true
			}
		}
	}
	if len(claimed) == 0 {
		return
	}
	st.Claims += len(claimed)

	// Input tuples: the same candidate sets refine.Check enumerates,
	// including the deferred-UB constants — a claim must hold even when
	// every parameter is poison.
	cands := make([][]core.Value, len(f.Params))
	for i, p := range f.Params {
		cands[i], _ = refine.CandidateValues(p.Ty, po.Sem.Mode)
	}
	args := make([]core.Value, len(f.Params))
	idx := make([]int, len(f.Params))
	for {
		for i, k := range idx {
			args[i] = cands[i][k]
		}
		po.sweepArgs(f, shard, claimed, args, lim, st)

		carry := len(idx) - 1
		for ; carry >= 0; carry-- {
			idx[carry]++
			if idx[carry] < len(cands[carry]) {
				break
			}
			idx[carry] = 0
		}
		if carry < 0 {
			break
		}
	}
}

// sweepArgs runs one input tuple under every nondeterministic
// resolution the enumeration oracle can produce, recording the first
// violated claim per execution.
func (po PoisonOracle) sweepArgs(f *ir.Func, shard int, claimed map[*ir.Instr]bool, args []core.Value, lim *refine.Config, st *PoisonOracleStats) {
	o := core.NewEnumOracle(lim.MaxChoices, lim.MaxFanout)
	execs := 0
	for {
		if execs >= lim.MaxExecs {
			st.Incomplete++
			return
		}
		execs++
		st.Execs++
		o.Reset()
		env, err := core.NewEnv(f.Parent(), o, po.Sem)
		if err != nil {
			// Unsupported module shape: nothing to check concretely.
			return
		}
		env.Trace = func(depth int, in *ir.Instr, v core.Value) {
			if depth != 1 || !claimed[in] {
				return
			}
			if !v.IsConcrete() {
				// Claims promise freedom from poison AND undef, so any
				// non-concrete observation refutes.
				claimed[in] = false // report each claim at most once
				st.Violations = append(st.Violations, PoisonViolation{
					Shard: shard,
					Fn:    f.String(),
					Val:   in.Name(),
					Args:  formatArgs(args),
					Got:   v.String(),
				})
			}
		}
		// The outcome kind is irrelevant: a UB or timeout execution's
		// traced prefix still happened, and claims must hold on it.
		env.RunInterp(f, args)
		if !o.Next() {
			return
		}
	}
}

func formatArgs(args []core.Value) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.String()
	}
	return strings.Join(parts, ", ")
}
