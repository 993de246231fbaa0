package core

import (
	"fmt"

	"tameir/internal/ir"
)

// Mode selects which deferred-UB universe the semantics lives in.
type Mode uint8

const (
	// Legacy is pre-paper LLVM: both undef and poison exist, and the
	// corners the paper's Section 3 identifies are resolved by the
	// knobs in Options (because LLVM itself never resolved them —
	// different passes assumed different answers).
	Legacy Mode = iota
	// Freeze is the paper's proposal (Section 4): undef is removed,
	// freeze materializes poison into an arbitrary but stable value,
	// and branching on poison is immediate UB.
	Freeze
)

// String returns the mode name.
func (m Mode) String() string {
	if m == Freeze {
		return "freeze"
	}
	return "legacy"
}

// VerifyMode is the IR verifier dialect of m.
func (m Mode) VerifyMode() ir.VerifyMode {
	if m == Freeze {
		return ir.VerifyFreeze
	}
	return ir.VerifyLegacy
}

// BranchPoisonBehavior says what branching on a poison condition does.
type BranchPoisonBehavior uint8

const (
	// BranchPoisonIsUB: immediate UB, the choice GVN needs (§3.3) and
	// the one the paper adopts.
	BranchPoisonIsUB BranchPoisonBehavior = iota
	// BranchPoisonNondet: a nondeterministic choice, the choice legacy
	// loop unswitching needs (§3.3).
	BranchPoisonNondet
)

// SelectPoisonBehavior says what a select with a poison condition does.
type SelectPoisonBehavior uint8

const (
	// SelectPoisonCondPoison: the result is poison (Figure 5; required
	// for SimplifyCFG's phi→select, §3.4).
	SelectPoisonCondPoison SelectPoisonBehavior = iota
	// SelectPoisonCondUB: immediate UB (the "select is like branch"
	// reading, §3.4).
	SelectPoisonCondUB
	// SelectPoisonCondNondet: nondeterministically picks an arm (the
	// "branch is nondeterministic" reading).
	SelectPoisonCondNondet
)

// Options fully determines the semantics.
type Options struct {
	Mode Mode

	// BranchPoison applies in Legacy mode; Freeze mode forces
	// BranchPoisonIsUB.
	BranchPoison BranchPoisonBehavior

	// SelectPoisonCond applies in Legacy mode; Freeze mode forces
	// SelectPoisonCondPoison.
	SelectPoisonCond SelectPoisonBehavior

	// SelectArmPoisonEither: the select result is poison if *either*
	// arm is poison (the legacy LangRef reading, which makes
	// select-to-arithmetic sound and phi-to-select unsound, §3.4).
	// When false only the dynamically chosen arm matters (Figure 5).
	SelectArmPoisonEither bool

	// Fuel bounds the number of executed instructions; 0 means the
	// DefaultFuel.
	Fuel int

	// MaxCallDepth bounds recursion; 0 means DefaultMaxCallDepth.
	MaxCallDepth int

	// EmitTrace compiles per-step Tracer callbacks into the program.
	// It is a compile-time knob like the semantics fields — Compile
	// resolves it into the step closures, so a program compiled without
	// it pays no per-step trace check at all — but it is NOT semantics:
	// traced and untraced programs make identical oracle choices and
	// produce identical Outcomes. The two variants are distinct
	// programs, and the knob is excluded from refine's memo key.
	EmitTrace bool
}

// DefaultFuel is the default instruction budget per execution.
const DefaultFuel = 1 << 20

// DefaultMaxCallDepth is the default call-stack bound.
const DefaultMaxCallDepth = 64

// LegacyOptions returns the legacy semantics with a given resolution of
// the branch-on-poison ambiguity.
func LegacyOptions(bp BranchPoisonBehavior) Options {
	return Options{
		Mode:                  Legacy,
		BranchPoison:          bp,
		SelectPoisonCond:      SelectPoisonCondPoison,
		SelectArmPoisonEither: true,
	}
}

// FreezeOptions returns the paper's proposed semantics (Section 4).
func FreezeOptions() Options {
	return Options{Mode: Freeze}
}

// SemanticsByName reads the tools' -sem value: "freeze" is
// FreezeOptions, "legacy" LegacyOptions with branch on poison a
// nondeterministic choice.
func SemanticsByName(name string) (Options, error) {
	switch name {
	case "freeze":
		return FreezeOptions(), nil
	case "legacy":
		return LegacyOptions(BranchPoisonNondet), nil
	}
	return Options{}, fmt.Errorf("unknown semantics %q", name)
}

// normalized returns o with mode-forced fields and defaults applied.
func (o Options) normalized() Options {
	if o.Mode == Freeze {
		o.BranchPoison = BranchPoisonIsUB
		o.SelectPoisonCond = SelectPoisonCondPoison
		o.SelectArmPoisonEither = false
	}
	if o.Fuel == 0 {
		o.Fuel = DefaultFuel
	}
	if o.MaxCallDepth == 0 {
		o.MaxCallDepth = DefaultMaxCallDepth
	}
	return o
}
