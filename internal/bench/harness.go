package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"tameir/internal/ir"
	"tameir/internal/mi"
	"tameir/internal/minc"
	"tameir/internal/passes"
	"tameir/internal/target"
)

// Variant is one compiler configuration. The evaluation compares
// Baseline (the legacy compiler the paper forked from) against
// Prototype (the paper's freeze prototype).
type Variant struct {
	Name    string
	MincCfg minc.Config
	PassCfg *passes.Config
}

// Baseline is the pre-paper compiler: legacy undef+poison semantics,
// historical pass behaviour, no freeze anywhere.
func Baseline() Variant {
	return Variant{
		Name:    "baseline",
		MincCfg: minc.Config{FreezeBitfieldLoads: false},
		PassCfg: passes.DefaultLegacyConfig(),
	}
}

// Prototype is the paper's prototype: freeze semantics, fixed passes,
// freeze-aware optimizations, frontend freezing bit-field loads.
func Prototype() Variant {
	return Variant{
		Name:    "prototype",
		MincCfg: minc.Config{FreezeBitfieldLoads: true},
		PassCfg: passes.DefaultFreezeConfig(),
	}
}

// FreezeBlindPrototype is the prototype with FreezeAware disabled: the
// optimizers conservatively give up around freeze, reproducing the
// early-prototype regressions §6 describes (blocked jump threading,
// unsunk compares).
func FreezeBlindPrototype() Variant {
	cfg := passes.DefaultFreezeConfig()
	cfg.FreezeAware = false
	return Variant{
		Name:    "prototype-freezeblind",
		MincCfg: minc.Config{FreezeBitfieldLoads: true},
		PassCfg: cfg,
	}
}

// Measurement is one (program, variant) data point.
type Measurement struct {
	Program string
	Suite   string
	Variant string

	CompileNs  int64  // E4: frontend+O2+backend wall time, the minimum over MeasureAll's samples
	AllocBytes uint64 // E5: compiler allocations during one compile

	IRInstrs    int
	FreezeCount int
	ObjectBytes uint32
	Cycles      uint64
	SimInstrs   uint64
	Checksum    int32
	ChecksumOK  bool
	SimError    string
}

// Compile runs the full pipeline once and returns the optimized module
// and machine program.
func Compile(p Program, v Variant) (*ir.Module, *target.Program, error) {
	mod, err := minc.CompileString(p.Src, v.MincCfg)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: frontend: %w", p.Name, err)
	}
	passes.O2().Run(mod, v.PassCfg)
	prog, err := mi.CompileModule(mod)
	if err != nil {
		return mod, nil, fmt.Errorf("%s: backend: %w", p.Name, err)
	}
	return mod, prog, nil
}

// Measure compiles p under v once, counting the bytes the compile
// allocates, and runs the program on the simulator. It fills every
// field but CompileNs, which MeasureAll times.
func Measure(p Program, v Variant) (Measurement, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	mod, prog, err := Compile(p, v)
	runtime.ReadMemStats(&after)
	if err != nil {
		return Measurement{}, err
	}
	m := observe(p, v, mod, prog)
	m.AllocBytes = after.TotalAlloc - before.TotalAlloc
	return m, nil
}

// observe counts the optimized module's instructions and freezes,
// sizes the machine program and runs it on the simulator.
func observe(p Program, v Variant, mod *ir.Module, prog *target.Program) Measurement {
	m := Measurement{Program: p.Name, Suite: p.Suite, Variant: v.Name}
	for _, f := range mod.Funcs {
		f.ForEachInstr(func(in *ir.Instr) {
			m.IRInstrs++
			if in.Op == ir.OpFreeze {
				m.FreezeCount++
			}
		})
	}
	m.ObjectBytes = target.ProgramSize(prog)

	mach := target.NewMachine(prog)
	ret, err := mach.Run(prog.FuncByName("main"))
	if err != nil {
		m.SimError = err.Error()
		return m
	}
	m.Cycles = mach.Cycles
	m.SimInstrs = mach.Instrs
	m.Checksum = int32(uint32(ret))
	m.ChecksumOK = m.Checksum == p.Want
	return m
}

// batchCompiles is how many back-to-back compiles one E4 sample
// times. One compile lasts well under a millisecond, so a sample of a
// single compile reads the clock, the collector and the scheduler as
// much as the compiler.
const batchCompiles = 16

// timeBatch returns the mean wall time of batchCompiles back-to-back
// compiles of p under v.
func timeBatch(p Program, v Variant) (int64, error) {
	runtime.GC()
	t0 := time.Now()
	for i := 0; i < batchCompiles; i++ {
		if _, _, err := Compile(p, v); err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Nanoseconds() / batchCompiles, nil
}

// MeasureAll measures every program under each variant and returns one
// slice per variant, in the order given. For each program it times
// samples batches per variant (at least one), the variants taking turns
// and rotating which goes first, so drift in the host's speed lands on
// every variant alike; CompileNs is the fastest batch's mean. It then
// measures each variant once with Measure.
//
// It runs on one P. With more, a run's E5 byte counts moved by up to
// 11% between runs of one build (gcc read 609–679 KB), likely because
// a compile that migrates between Ps refills allocation spans on each;
// on one P every program reads within 1 KB run to run.
func MeasureAll(samples int, vs ...Variant) ([][]Measurement, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	samples = max(samples, 1)
	out := make([][]Measurement, len(vs))
	best := make([]int64, len(vs))
	for _, p := range Programs {
		for s := 0; s < samples; s++ {
			for i := range vs {
				vi := (s + i) % len(vs)
				ns, err := timeBatch(p, vs[vi])
				if err != nil {
					return nil, err
				}
				if s == 0 || ns < best[vi] {
					best[vi] = ns
				}
			}
		}
		for vi, v := range vs {
			m, err := Measure(p, v)
			if err != nil {
				return nil, err
			}
			m.CompileNs = best[vi]
			out[vi] = append(out[vi], m)
		}
	}
	return out, nil
}

// pct returns the percentage change from base to test (positive =
// improvement when lowerIsBetter).
func pct(base, test float64, lowerIsBetter bool) float64 {
	if base == 0 {
		return 0
	}
	ch := (test - base) / base * 100
	if lowerIsBetter {
		return -ch
	}
	return ch
}

// Report renders the paper's §7.2 measurement categories for a
// baseline/prototype pair. Positive percentages mean the prototype
// improved (matching Figure 6's sign convention: "positive values
// indicate that performance improved").
func Report(w io.Writer, base, proto []Measurement) {
	index := map[string]Measurement{}
	for _, m := range base {
		index[m.Program] = m
	}

	fmt.Fprintf(w, "== E4: compile time (baseline vs prototype; positive %% = prototype faster) ==\n")
	fmt.Fprintf(w, "%-12s %-5s %12s %12s %8s\n", "benchmark", "suite", "base(µs)", "proto(µs)", "Δ%")
	for _, m := range proto {
		b := index[m.Program]
		fmt.Fprintf(w, "%-12s %-5s %12.0f %12.0f %+8.1f\n",
			m.Program, m.Suite, float64(b.CompileNs)/1e3, float64(m.CompileNs)/1e3,
			pct(float64(b.CompileNs), float64(m.CompileNs), true))
	}

	fmt.Fprintf(w, "\n== E5: compiler memory (allocations during compile) ==\n")
	fmt.Fprintf(w, "%-12s %12s %12s %8s\n", "benchmark", "base(KB)", "proto(KB)", "Δ%")
	for _, m := range proto {
		b := index[m.Program]
		fmt.Fprintf(w, "%-12s %12.0f %12.0f %+8.1f\n",
			m.Program, float64(b.AllocBytes)/1024, float64(m.AllocBytes)/1024,
			pct(float64(b.AllocBytes), float64(m.AllocBytes), true))
	}

	fmt.Fprintf(w, "\n== E6: object code size and freeze fraction ==\n")
	fmt.Fprintf(w, "%-12s %10s %10s %8s %8s %10s\n", "benchmark", "base(B)", "proto(B)", "Δ%", "freezes", "freeze%IR")
	for _, m := range proto {
		b := index[m.Program]
		frac := 0.0
		if m.IRInstrs > 0 {
			frac = float64(m.FreezeCount) / float64(m.IRInstrs) * 100
		}
		fmt.Fprintf(w, "%-12s %10d %10d %+8.2f %8d %9.2f%%\n",
			m.Program, b.ObjectBytes, m.ObjectBytes,
			pct(float64(b.ObjectBytes), float64(m.ObjectBytes), true),
			m.FreezeCount, frac)
	}

	fmt.Fprintf(w, "\n== E7: run time in simulated cycles (Figure 6; positive %% = prototype faster) ==\n")
	for _, suite := range []string{"CINT", "CFP", "LNT"} {
		fmt.Fprintf(w, "--- %s ---\n", suite)
		fmt.Fprintf(w, "%-12s %14s %14s %8s %s\n", "benchmark", "base(cyc)", "proto(cyc)", "Δ%", "checksum")
		for _, m := range proto {
			if m.Suite != suite {
				continue
			}
			b := index[m.Program]
			status := "ok"
			if !m.ChecksumOK || !b.ChecksumOK {
				status = fmt.Sprintf("MISMATCH base=%d proto=%d want=%d", b.Checksum, m.Checksum, m.Checksum)
			}
			if m.SimError != "" || b.SimError != "" {
				status = "SIM ERROR " + m.SimError + b.SimError
			}
			fmt.Fprintf(w, "%-12s %14d %14d %+8.2f %s\n",
				m.Program, b.Cycles, m.Cycles,
				pct(float64(b.Cycles), float64(m.Cycles), true), status)
		}
	}
}
