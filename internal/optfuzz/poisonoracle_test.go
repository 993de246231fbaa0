package optfuzz

import (
	"testing"

	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/passes"
	"tameir/internal/refine"
	"tameir/internal/telemetry"
)

// TestPoisonOracleSoundnessFreeze sweeps the entire 1-instruction
// freeze-dialect space: every static NeverPoison claim must survive
// every input tuple (poison parameters included) under every
// nondeterministic resolution. This is acceptance criterion (2) of the
// poison-analysis PR in miniature; `tame-fuzz -poison-oracle` runs the
// same sweep from CI.
func TestPoisonOracleSoundnessFreeze(t *testing.T) {
	gen := DefaultConfig(1)
	gen.AllowUndef = false // undef is not part of the freeze dialect
	gen.AllowPoison = true
	gen.MaxFuncs = 0 // unbounded: the whole 1-instruction space

	reg := telemetry.NewRegistry()
	st := PoisonOracle{Source: NewExhaustiveSource(gen), Sem: core.FreezeOptions(), Workers: 2, Telemetry: reg}.Run()
	if st.Funcs == 0 {
		t.Fatal("oracle enumerated no functions")
	}
	if st.Claims == 0 {
		t.Fatal("analysis made no NeverPoison claims over the whole space; the oracle tested nothing")
	}
	if st.Execs == 0 {
		t.Fatal("oracle ran no executions")
	}
	for _, v := range st.Violations {
		t.Errorf("soundness violation: %s", v)
	}
	snap := reg.Snapshot()
	for _, name := range []string{"poison_oracle_funcs_total", "poison_oracle_claims_total", "poison_oracle_execs_total"} {
		if s, ok := snap.Get(name); !ok || s.Value == 0 {
			t.Errorf("counter %s = %d (present %v), want > 0", name, s.Value, ok)
		}
	}
	if s, ok := snap.Get("poison_oracle_violations_total"); !ok || s.Value != 0 {
		t.Errorf("poison_oracle_violations_total = %d (present %v), want 0", s.Value, ok)
	}
}

// TestPoisonOracleSoundnessLegacy repeats the sweep under legacy
// semantics with undef inputs: NeverPoison also promises undef-freedom
// (the lattice conflates the two on purpose), so an undef observation
// on a claimed value must refute — and must never occur.
func TestPoisonOracleSoundnessLegacy(t *testing.T) {
	gen := DefaultConfig(2)
	gen.AllowUndef = true
	gen.MaxFuncs = 1500

	st := PoisonOracle{Source: NewExhaustiveSource(gen), Sem: core.LegacyOptions(core.BranchPoisonNondet), Workers: 2}.Run()
	if st.Funcs == 0 || st.Execs == 0 {
		t.Fatalf("oracle swept %d funcs over %d execs, want both > 0", st.Funcs, st.Execs)
	}
	for _, v := range st.Violations {
		t.Errorf("soundness violation: %s", v)
	}
}

// TestPoisonOracleDeterministicAcrossWorkers pins the oracle to the
// campaign machinery's contract: worker count affects wall time only.
func TestPoisonOracleDeterministicAcrossWorkers(t *testing.T) {
	gen := DefaultConfig(1)
	gen.AllowUndef = false
	gen.AllowPoison = true
	gen.MaxFuncs = 200

	po := PoisonOracle{Source: NewExhaustiveSource(gen), Sem: core.FreezeOptions()}
	serial := po.Run()
	po.Workers = 4
	parallel := po.Run()
	if serial.Funcs != parallel.Funcs || serial.Claims != parallel.Claims ||
		serial.Execs != parallel.Execs || len(serial.Violations) != len(parallel.Violations) {
		t.Fatalf("worker count changed the sweep: serial %+v, parallel %+v", serial, parallel)
	}
}

// TestFreezeElimCampaignTranslationValidation: every freeze-elim
// rewrite over an exhaustive freeze-heavy campaign slice must itself
// validate as a refinement via refine.Check, and the pass must delete
// exactly the freezes it deletes today: a pass that goes inert, or
// starts deleting more or fewer, fails here. The count is a function
// of the candidates alone, the same for any worker count.
func TestFreezeElimCampaignTranslationValidation(t *testing.T) {
	gen := DefaultConfig(2)
	gen.AllowUndef = false
	gen.AllowPoison = true
	// Restrict the menu so the budget reaches freeze-rooted functions
	// (the full menu's shard budgets never leave the binop prefixes).
	gen.Opcodes = []ir.Op{ir.OpFreeze, ir.OpAdd, ir.OpSelect}
	gen.MaxFuncs = 3000

	sem := core.FreezeOptions()
	pm, err := passes.NewPassManager("freeze-elim")
	if err != nil {
		t.Fatal(err)
	}
	st := Campaign{
		Source:      NewExhaustiveSource(gen),
		Refine:      refine.DefaultConfig(sem, sem),
		Pipeline:    pm.Instrument(),
		PipelineCfg: passes.DefaultFreezeConfig(),
		Workers:     2,
	}.Run()
	if st.Funcs == 0 {
		t.Fatal("campaign checked no functions")
	}
	for _, f := range st.Findings {
		t.Errorf("freeze-elim rewrite refuted:\nsrc:\n%s\ntgt:\n%s\n%+v", f.Src, f.Tgt, f.Result)
	}
	if st.Opt == nil {
		t.Fatal("instrumented pipeline campaign returned no Opt stats")
	}
	if removed := st.Opt.FreezeElimRemoved(); removed != 1199 {
		t.Fatalf("freeze-elim removed %d freezes over %d candidates, want 1199", removed, st.Funcs)
	}
}

// TestVerifyEachO2Campaign runs a small freeze-dialect O2 campaign with
// the full -verify-each battery armed between every pass step. Any
// verifier, SSA, or analysis cache-coherence failure panics; the
// failure counter must end at zero.
func TestVerifyEachO2Campaign(t *testing.T) {
	gen := DefaultConfig(2)
	gen.AllowUndef = false
	gen.AllowPoison = true
	gen.MaxFuncs = 400

	sem := core.FreezeOptions()
	pcfg := passes.DefaultFreezeConfig()
	pcfg.VerifyEach = true
	st := Campaign{
		Source:      NewExhaustiveSource(gen),
		Refine:      refine.DefaultConfig(sem, sem),
		Pipeline:    passes.O2().Instrument(),
		PipelineCfg: pcfg,
		Workers:     2,
	}.Run()
	if st.Funcs == 0 {
		t.Fatal("campaign checked no functions")
	}
	if st.Opt == nil {
		t.Fatal("instrumented pipeline campaign returned no Opt stats")
	}
	if fails := st.Opt.VerifyEachFailures(); fails != 0 {
		t.Fatalf("verify-each recorded %d failures", fails)
	}
	if s, _ := st.Opt.Registry().Snapshot().Get("verify_each_checks_total"); s.Value == 0 {
		t.Fatal("verify-each ran no batteries")
	}
	if st.Refuted != 0 {
		for _, f := range st.Findings {
			t.Errorf("refuted:\nsrc:\n%s\ntgt:\n%s", f.Src, f.Tgt)
		}
	}
}
