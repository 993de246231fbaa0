package core

import (
	"fmt"

	"tameir/internal/ir"
)

// TierMode selects which execution tier a compiled Program runs on.
// The zero value keeps PR 3's behaviour: always the closure engine.
type TierMode int

const (
	// TierClosure pins execution to the compile-once closure engine.
	TierClosure TierMode = iota
	// TierAuto starts on the closure engine and promotes a program to
	// the bytecode tier once its execution counter trips
	// TierPolicy.PromoteAfter. This is the tiering pattern wazero's
	// interpreter→compiler engines use: pay lowering cost only for
	// programs hot enough to amortize it.
	TierAuto
	// TierBytecode lowers eagerly and runs every execution on the
	// bytecode VM (falling back to closures only for functions the
	// backend cannot lower).
	TierBytecode
)

// String returns the -tier flag spelling of m.
func (m TierMode) String() string {
	switch m {
	case TierClosure:
		return "closure"
	case TierAuto:
		return "auto"
	case TierBytecode:
		return "bytecode"
	}
	return fmt.Sprintf("TierMode(%d)", int(m))
}

// TierPolicy is the tiering controller's configuration, threaded from
// the -tier flag through refine.Config down to each Executor.
type TierPolicy struct {
	Mode TierMode
	// PromoteAfter is the per-program execution count at which
	// TierAuto promotes to bytecode (DefaultPromoteAfter when 0).
	PromoteAfter uint64
}

// DefaultPromoteAfter is the TierAuto promotion threshold. The §6
// campaigns execute every function 30–300× per check (input odometer ×
// oracle enumeration), so 64 promotes everything that survives more
// than a couple of inputs while leaving one-shot runs on the closure
// engine.
const DefaultPromoteAfter = 64

// threshold returns the effective promotion threshold.
func (p TierPolicy) threshold() uint64 {
	if p.PromoteAfter == 0 {
		return DefaultPromoteAfter
	}
	return p.PromoteAfter
}

// ParseTier parses a -tier flag value. The extra "off" spelling maps
// to the tree-walking interpreter and is reported via interpret rather
// than a TierMode, since the interpreter bypasses Program entirely.
func ParseTier(s string) (policy TierPolicy, interpret bool, err error) {
	switch s {
	case "off":
		return TierPolicy{}, true, nil
	case "closure":
		return TierPolicy{Mode: TierClosure}, false, nil
	case "auto":
		return TierPolicy{Mode: TierAuto}, false, nil
	case "bytecode":
		return TierPolicy{Mode: TierBytecode}, false, nil
	}
	return TierPolicy{}, false, fmt.Errorf("bad tier %q (want off, closure, auto or bytecode)", s)
}

// TierRunner executes one Program on behalf of one Executor. Runners
// are not safe for concurrent use; each Executor owns one.
type TierRunner interface {
	// Run executes the program on args, resolving nondeterminism via
	// o. It must produce an Outcome identical to Executor.Run on the
	// closure engine — same UB messages, same Oracle.Choose sequence,
	// same fuel accounting — and update m exactly as the closure
	// engine would (plus its own per-tier exec counter). Like
	// Executor.Run, the outcome's lanes are valid until the next Run.
	// A run may end in OutMerged only when o is an EnumOracle whose
	// enumeration has merging on (merge.go), and then only at a state
	// an earlier run of the same enumeration on this tier reached.
	Run(args []Value, o Oracle, m *EngineMetrics) Outcome
}

// TierProgram is a lowered, immutable form of one function, shareable
// across goroutines the way Program is.
type TierProgram interface {
	// NewRunner returns a fresh single-goroutine execution context
	// for src, the compiled program the executor runs (a shared
	// lowering serves every program with the same text); the runner
	// reads src's liveness to merge states.
	NewRunner(src *Program) TierRunner
}

// TierBackend lowers compiled programs to an alternative tier. The
// bytecode backend registers itself from internal/core/bytecode's
// init; keeping the registration indirect avoids an import cycle
// (bytecode imports core for values, semantics and IR plumbing).
type TierBackend interface {
	Name() string
	// Lower returns the lowered program, or ok=false when fn uses a
	// construct the backend does not support (the caller then stays on
	// the closure engine).
	Lower(fn *ir.Func, opts Options) (tp TierProgram, ok bool)
}

var tierBackend TierBackend

// RegisterTierBackend installs the process-wide tier-2 backend.
// Called from an init function; last registration wins.
func RegisterTierBackend(b TierBackend) { tierBackend = b }
