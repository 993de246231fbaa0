// Top-level benchmarks: one per table/figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). `go test -bench=.
// -benchmem` regenerates the raw numbers; `go run ./cmd/tame-bench`
// renders the full report.
package tameir_test

import (
	"fmt"
	"testing"

	"tameir/internal/bench"
	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/mi"
	"tameir/internal/minc"
	"tameir/internal/optfuzz"
	"tameir/internal/passes"
	"tameir/internal/refine"
	"tameir/internal/target"
)

// --- E4: §7.2 compile time, baseline vs prototype ---

func benchmarkCompile(b *testing.B, v bench.Variant) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, p := range bench.Programs {
			if _, _, err := bench.Compile(p, v); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCompileTimeBaseline is E4's baseline: the legacy compiler.
func BenchmarkCompileTimeBaseline(b *testing.B) { benchmarkCompile(b, bench.Baseline()) }

// BenchmarkCompileTimePrototype is E4's prototype: freeze everywhere.
// The paper reports compile time "largely unaffected... in the range
// of ±1%"; compare ns/op with the baseline benchmark. (E5, memory, is
// the allocated-bytes column of the same pair.)
func BenchmarkCompileTimePrototype(b *testing.B) { benchmarkCompile(b, bench.Prototype()) }

// --- E6: §7.2 object code size ---

// BenchmarkObjectSize reports total object bytes for both variants as
// custom metrics (the work per iteration is the compile).
func BenchmarkObjectSize(b *testing.B) {
	for _, v := range []bench.Variant{bench.Baseline(), bench.Prototype()} {
		b.Run(v.Name, func(b *testing.B) {
			var total uint64
			for i := 0; i < b.N; i++ {
				total = 0
				for _, p := range bench.Programs {
					_, prog, err := bench.Compile(p, v)
					if err != nil {
						b.Fatal(err)
					}
					total += uint64(target.ProgramSize(prog))
				}
			}
			b.ReportMetric(float64(total), "object-bytes")
		})
	}
}

// --- E7: §7.2 run time (Figure 6) ---

// BenchmarkRunTime simulates every benchmark and reports cycles as a
// custom metric per variant; the Δ% between the variants is Figure 6's
// series. Absolute wall time of this benchmark measures the simulator,
// not the generated code — read the cycles metric.
func BenchmarkRunTime(b *testing.B) {
	for _, v := range []bench.Variant{bench.Baseline(), bench.Prototype()} {
		b.Run(v.Name, func(b *testing.B) {
			// Compile once; simulate b.N times.
			type compiled struct {
				name string
				prog *target.Program
				want int32
			}
			var progs []compiled
			for _, p := range bench.Programs {
				_, prog, err := bench.Compile(p, v)
				if err != nil {
					b.Fatal(err)
				}
				progs = append(progs, compiled{p.Name, prog, p.Want})
			}
			b.ResetTimer()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cycles = 0
				for _, c := range progs {
					m := target.NewMachine(c.prog)
					ret, err := m.Run(c.prog.FuncByName("main"))
					if err != nil {
						b.Fatalf("%s: %v", c.name, err)
					}
					if int32(uint32(ret)) != c.want {
						b.Fatalf("%s: checksum %d, want %d", c.name, int32(uint32(ret)), c.want)
					}
					cycles += m.Cycles
				}
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// --- E3: §6 validation throughput ---

// BenchmarkValidateO2 measures the translation-validation harness: how
// many exhaustively generated functions per second can be pushed
// through -O2 and the Alive-lite checker (the §6 methodology).
func BenchmarkValidateO2(b *testing.B) {
	sem := core.FreezeOptions()
	pcfg := passes.DefaultFreezeConfig()
	rcfg := refine.DefaultConfig(sem, sem)
	gen := optfuzz.DefaultConfig(1)
	gen.AllowUndef = false
	gen.AllowPoison = true
	gen.MaxFuncs = 100
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		refuted := 0
		optfuzz.Exhaustive(gen, func(f *ir.Func) bool {
			work := ir.CloneFunc(f)
			m := ir.NewModule()
			m.AddFunc(work)
			passes.O2().Run(m, pcfg)
			if r := refine.Check(f, work, rcfg); r.Status == refine.Refuted {
				refuted++
			}
			return true
		})
		if refuted != 0 {
			b.Fatalf("fixed -O2 was refuted %d times", refuted)
		}
	}
}

// --- E1/E8 micro: interpreter and checker throughput ---

// BenchmarkInterpreter measures the Figure 5 interpreter on a loop.
func BenchmarkInterpreter(b *testing.B) {
	f := ir.MustParseFunc(`define i32 @f(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %i1, %body ]
  %acc = phi i32 [ 0, %entry ], [ %acc1, %body ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %acc1 = add i32 %acc, %i
  %i1 = add nsw i32 %i, 1
  br label %head
exit:
  ret i32 %acc
}`)
	args := []core.Value{core.VC(ir.I32, 1000)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out := core.Interpret(f, args, core.ZeroOracle{}, core.FreezeOptions())
		if out.Kind != core.OutRet {
			b.Fatal(out)
		}
	}
}

// BenchmarkRefinementCheck measures one exhaustive i2 refinement check
// (the unit of work behind every validation number in EXPERIMENTS.md).
func BenchmarkRefinementCheck(b *testing.B) {
	src := ir.MustParseFunc(`define i1 @f(i2 %a, i2 %b) {
entry:
  %add = add nsw i2 %a, %b
  %cmp = icmp sgt i2 %add, %a
  ret i1 %cmp
}`)
	tgt := ir.MustParseFunc(`define i1 @f(i2 %a, i2 %b) {
entry:
  %cmp = icmp sgt i2 %b, 0
  ret i1 %cmp
}`)
	cfg := refine.DefaultConfig(core.FreezeOptions(), core.FreezeOptions())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r := refine.Check(src, tgt, cfg); r.Status != refine.Verified {
			b.Fatal(r)
		}
	}
}

// BenchmarkFrontend measures MinC parsing+lowering alone (part of E4's
// breakdown).
func BenchmarkFrontend(b *testing.B) {
	p := bench.ByName("gcc")
	cfg := minc.Config{FreezeBitfieldLoads: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := minc.CompileString(p.Src, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBackend measures SelectionDAG+ISel+regalloc alone.
func BenchmarkBackend(b *testing.B) {
	p := bench.ByName("queens")
	mod, err := minc.CompileString(p.Src, minc.Config{FreezeBitfieldLoads: true})
	if err != nil {
		b.Fatal(err)
	}
	passes.O2().Run(mod, passes.DefaultFreezeConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mi.CompileModule(mod); err != nil {
			b.Fatal(err)
		}
	}
}

// Example of regenerating the full report programmatically.
func ExampleReport() {
	base, _ := bench.MeasureAll(bench.Baseline(), 1)
	_ = base
	fmt.Println("see cmd/tame-bench")
	// Output: see cmd/tame-bench
}

// --- The paper's third benchmark set: large single-file programs ---

// BenchmarkLargeFileCompile compiles a synthetic large single-file
// program (the stand-in for the paper's 7k–754k-line files, §7.1)
// under both variants; compare ns/op across the sub-benchmarks.
func BenchmarkLargeFileCompile(b *testing.B) {
	src := bench.GenerateLargeProgram(400)
	p := bench.Program{Name: "largefile", Suite: "LARGE", Src: src}
	for _, v := range []bench.Variant{bench.Baseline(), bench.Prototype()} {
		b.Run(v.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := bench.Compile(p, v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
