// Package passes implements the optimizer: the transformation passes
// the paper discusses, each in the variant(s) the paper identifies.
//
// Passes that were historically unsound (Section 3) are implemented
// twice, selected by Config.Unsound:
//
//   - loop unswitching without freezing the hoisted condition (§3.3/§5.1)
//   - LICM hoisting control-flow-guarded divisions (§3.2)
//   - InstCombine's select↔arithmetic and select-undef folds (§3.4)
//   - reassociation keeping nsw on rewritten subexpressions (§10.2)
//
// The fixed variants are sound under the paper's Freeze semantics and
// are validated against the refine package by the tests and by the
// Section 6 experiment (cmd/tame-bench -exp validate).
//
// Every pass is one row of the registry table, with one bit: whether
// it preserves the CFG. A PassManager runs passes over a function with
// an analysis.Manager that caches the predecessor map, dominator tree,
// loop info and poison facts across pass steps. A step that changes the
// function drops the poison facts, and the other three as well unless
// the pass preserves the CFG. The manager optionally counts per-pass
// changes into a Stats struct, and times each pass step as a span.
package passes

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"tameir/internal/analysis"
	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/telemetry"
)

// Config parameterizes every pass run.
type Config struct {
	// Sem is the semantics the output must refine the input under.
	// The pipeline presets use core.LegacyOptions for the baseline
	// compiler and core.FreezeOptions for the prototype.
	Sem core.Options

	// Unsound selects the historically buggy variants (see package
	// comment). Only meaningful with legacy semantics; the fixed
	// variants are used otherwise.
	Unsound bool

	// FreezeAware: passes recognize the freeze instruction instead of
	// conservatively giving up. Turning it off reproduces the paper's
	// §7.2 compile-time anecdote (jump threading not kicking in) and
	// run-time regressions.
	FreezeAware bool

	// VerifyEach runs the full checker battery after every pass step
	// (-verify-each): the IR verifier for the configured semantics,
	// the SSA dominance checker, and the analysis cache-coherence
	// invariant (every still-cached analysis must match a fresh
	// recomputation — a mismatch means a pass declared the CFG
	// preserved and changed it). A failure panics. Under an
	// instrumented PassManager, checks and failures are counted in
	// verify_each_checks_total and verify_each_failures_total.
	VerifyEach bool

	// GVNFoldFreeze enables the §6 future-work extension: GVN merges
	// two freezes of the same value when one dominates the other.
	// Sound because the duplicate's uses are ALL redirected at once —
	// the caveat the paper's GVN expert stated — and because merging
	// freezes only shrinks the nondeterminism (the reverse direction,
	// splitting one freeze into two, is the §5.5 unsound duplication).
	// Off by default, like the paper's prototype.
	GVNFoldFreeze bool
}

// DefaultLegacyConfig is the baseline compiler: legacy semantics,
// historically buggy passes, no freeze.
func DefaultLegacyConfig() *Config {
	return &Config{
		Sem:     core.LegacyOptions(core.BranchPoisonNondet),
		Unsound: true,
	}
}

// DefaultFreezeConfig is the paper's prototype: freeze semantics,
// fixed passes, freeze-aware optimizations.
func DefaultFreezeConfig() *Config {
	return &Config{
		Sem:         core.FreezeOptions(),
		FreezeAware: true,
	}
}

// AnalysisManager is the per-function analysis cache passes query for
// CFG, dominator-tree, and loop information. The alias keeps pass files
// from importing internal/analysis just for the signature.
type AnalysisManager = analysis.Manager

// Pass transforms one function.
type Pass interface {
	// Name is the pass's short identifier (e.g. "instcombine").
	Name() string
	// Run transforms f, returning whether anything changed. Analyses
	// are queried through am; a pass that changes the CFG mid-run and
	// queries again must invalidate am itself first (see LoopUnswitch).
	Run(f *ir.Func, cfg *Config, am *AnalysisManager) bool
}

// RunPass runs a single pass over f with a fresh analysis manager: one
// pass step, exactly as a PassManager runs it.
func RunPass(p Pass, f *ir.Func, cfg *Config) bool {
	var pm PassManager
	return pm.runStep(0, p, f, cfg, analysis.NewManager(f), nil)
}

// PassManager runs an ordered list of passes over functions, caching
// analyses between passes and optionally recording per-pass statistics.
// The zero value plus a Passes list is ready to use; NewPassManager
// builds one from registered pass names.
type PassManager struct {
	Passes []Pass
	// Stats, when non-nil, accumulates per-pass change counts,
	// instruction deltas, and analysis cache counters, and per-pass
	// wall time when Trace is set too.
	Stats *Stats
	// PrintChanged, when non-nil, receives an IR dump after every pass
	// that reports a change.
	PrintChanged io.Writer
	// Trace, when non-nil, records one span per pass step (named
	// "<scope path>/<pass name>") — with a traced scope that lands
	// every step in the flight recorder's timeline. Campaigns set it
	// on their per-shard clone. It is the pass manager's one timer: a
	// step reads the clock only for its span, and the span's time is
	// also the step's wall time in Stats.
	Trace *telemetry.Scope
}

// NewPassManager resolves names through the registry into a pass
// manager, failing with the list of available passes on unknown names.
func NewPassManager(names ...string) (*PassManager, error) {
	pm := &PassManager{Passes: make([]Pass, 0, len(names))}
	for _, n := range names {
		p, err := LookupPass(n)
		if err != nil {
			return nil, err
		}
		pm.Passes = append(pm.Passes, p)
	}
	return pm, nil
}

// ParsePipeline reads a -passes value: "o2" or "O2" is the -O2
// pipeline, reported by o2 so a caller can run it to fixpoint;
// anything else is a comma-separated list of registered pass names.
func ParsePipeline(spec string) (pm *PassManager, o2 bool, err error) {
	if spec == "o2" || spec == "O2" {
		return O2(), true, nil
	}
	names := strings.Split(spec, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	pm, err = NewPassManager(names...)
	return pm, false, err
}

// Instrument attaches a fresh Stats collector and returns pm.
func (pm *PassManager) Instrument() *PassManager {
	pm.Stats = NewStats()
	return pm
}

// Clone returns a copy of pm with its own Stats collector (when
// instrumented), sharing the stateless pass list. The parallel campaign
// clones the manager per shard so workers never share counters.
func (pm *PassManager) Clone() *PassManager {
	c := *pm
	if pm.Stats != nil {
		c.Stats = NewStats()
	}
	return &c
}

// Run applies the pipeline to every function of m, returning whether
// anything changed.
func (pm *PassManager) Run(m *ir.Module, cfg *Config) bool {
	changed := false
	for _, f := range m.Funcs {
		if pm.RunFunc(f, cfg) {
			changed = true
		}
	}
	return changed
}

// maxRounds bounds the whole-pipeline repetitions of RunFunc: the
// pipeline repeats while passes report changes.
const maxRounds = 3

// RunFunc applies the pipeline to one function until fixpoint or
// maxRounds, returning whether anything changed.
func (pm *PassManager) RunFunc(f *ir.Func, cfg *Config) bool {
	return pm.runFixpoint(f, cfg, nil)
}

// RunFuncChanged is RunFunc plus attribution: it also returns the names
// of the passes that reported a change, deduplicated, in first-fire
// order. The campaign uses it to pin refinement failures on passes.
func (pm *PassManager) RunFuncChanged(f *ir.Func, cfg *Config) (bool, []string) {
	var fired []string
	changed := pm.runFixpoint(f, cfg, &fired)
	return changed, fired
}

// managers holds the analysis managers of finished fixpoint runs. A
// manager keeps the storage its analyses were computed into, so taking
// one per function, rather than building one, stops the dominator tree,
// predecessor map and loop info from allocating once a worker's
// managers have grown to its functions.
var managers = sync.Pool{New: func() any { return new(analysis.Manager) }}

func (pm *PassManager) runFixpoint(f *ir.Func, cfg *Config, fired *[]string) bool {
	am := managers.Get().(*analysis.Manager)
	am.Reset(f)
	mark := pm.startSteps(f)
	any := false
	converged := false
	rounds := 0
	// stop is one past the last position that changed f in the
	// previous round. Every pass from there on has already run on the
	// IR the previous round ended with and reported no change, so a
	// round that reaches stop without a change has confirmed the
	// fixpoint.
	stop := len(pm.Passes)
	for i := 0; i < maxRounds; i++ {
		rounds++
		last := -1
		for j, p := range pm.Passes {
			if last < 0 && j == stop {
				break
			}
			if pm.runStep(j, p, f, cfg, am, &mark) {
				last = j
				any = true
				if fired != nil && !contains(*fired, p.Name()) {
					*fired = append(*fired, p.Name())
				}
			}
		}
		if last < 0 {
			converged = true
			break
		}
		stop = last + 1
	}
	if pm.Stats != nil {
		pm.Stats.noteFunc(rounds, converged)
		pm.Stats.analysis.Add(am.Stats())
	}
	am.Reset(nil)
	managers.Put(am)
	return any
}

// RunOnce applies each pass once, pass-major (every function sees pass
// k before any function sees pass k+1), with no fixpoint repetition.
// This is the historical tame-opt behaviour for explicit -passes lists.
func (pm *PassManager) RunOnce(m *ir.Module, cfg *Config) bool {
	ams := make(map[*ir.Func]*AnalysisManager, len(m.Funcs))
	for _, f := range m.Funcs {
		ams[f] = analysis.NewManager(f)
	}
	changed := false
	for j, p := range pm.Passes {
		for _, f := range m.Funcs {
			// Consecutive steps here run on different functions, so
			// each one starts its own mark.
			mark := pm.startSteps(f)
			if pm.runStep(j, p, f, cfg, ams[f], &mark) {
				changed = true
			}
		}
	}
	if pm.Stats != nil {
		for _, f := range m.Funcs {
			pm.Stats.funcs++
			pm.Stats.analysis.Add(ams[f].Stats())
		}
	}
	return changed
}

// stepMark is where the previous pass step on a function ended: the
// function's instruction count, so each step's instruction delta is
// the difference of two marks.
type stepMark struct {
	instrs int
}

// startSteps marks the start of the first pass step on f and gives
// Stats one row per pipeline position (only when Stats is set).
func (pm *PassManager) startSteps(f *ir.Func) stepMark {
	if pm.Stats == nil {
		return stepMark{}
	}
	pm.Stats.track(pm.Passes)
	return stepMark{instrs: f.NumInstrs()}
}

// runStep is one pass step, the only way a pass runs: run the pass at
// position pos over one function, dump if changed, drop the analyses a
// change invalidated (the poison facts always, the CFG-level analyses
// too unless the pass's registry row says it preserves the CFG),
// verify (Config.VerifyEach), and (with Stats) count the step and its
// instruction delta since mark. The step reads the clock only for its
// pass span (Trace), whose time covers the pass's Run alone and is the
// step's wall time in Stats.
func (pm *PassManager) runStep(pos int, p Pass, f *ir.Func, cfg *Config, am *AnalysisManager, mark *stepMark) bool {
	sp := pm.Trace.Start(p.Name())
	changed := p.Run(f, cfg, am)
	wall := sp.End()
	if changed {
		if pm.PrintChanged != nil {
			fmt.Fprintf(pm.PrintChanged, "; IR Dump After %s on @%s\n%s\n", p.Name(), f.Name(), f)
		}
		am.Invalidate(preservesCFG(p))
	}
	if cfg.VerifyEach {
		verifyStep(p.Name(), f, cfg, am, pm.Stats)
	}
	if pm.Stats != nil {
		n := f.NumInstrs()
		pm.Stats.record(pos, changed, wall, mark.instrs-n)
		mark.instrs = n
	}
	return changed
}

// verifyStep is the -verify-each battery for one pass step. It runs
// after invalidation on purpose: what survives in the cache is exactly
// what the pass's bit kept, so the coherence check tests the
// declaration itself. It panics on the first failure
// after bumping st's failure counter (st may be nil), so a metrics
// snapshot written by a recovering caller still records the event.
func verifyStep(pass string, f *ir.Func, cfg *Config, am *AnalysisManager, st *Stats) {
	if st != nil {
		st.verifyChecks++
	}
	err := ir.Verify(f, cfg.Sem.Mode.VerifyMode())
	if err == nil {
		err = analysis.VerifySSA(f)
	}
	if err == nil {
		err = am.CheckInvariants()
	}
	if err != nil {
		if st != nil {
			st.verifyFailures++
		}
		panic(fmt.Sprintf("passes: -verify-each after %s on @%s: %v\n%s", pass, f.Name(), err, f))
	}
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// O2 returns the standard optimization pipeline, approximating the
// paper's "-O2 compiler flag" collection: canonicalize, scalarize
// memory, peephole, CFG cleanup, value numbering, loop optimizations,
// constant propagation, reassociation, and final cleanups. freeze-elim
// runs twice — after the mid-pipeline instcombine (so the loop passes
// see through the freezes migrate/unswitch inserted) and again before
// the dead-code sweeps; under freeze-blind configs both are no-ops.
func O2() *PassManager {
	pm, err := NewPassManager(
		"mem2reg", "inline", "instsimplify", "instcombine", "simplifycfg",
		"sccp", "gvn", "reassociate", "instcombine", "freeze-elim",
		"licm", "loopunswitch", "indvars", "jumpthreading", "simplifycfg",
		"instcombine", "freeze-elim",
		"adce", "dce", "codegenprepare", "dce",
	)
	if err != nil {
		panic(err) // every name is a registry row; a miss is a programming error
	}
	return pm
}
