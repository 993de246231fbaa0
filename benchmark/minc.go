package main

import (
	"fmt"
	"math/rand"
	"time"

	"tameir/internal/bench"
	"tameir/internal/ir"
	"tameir/internal/mi"
	"tameir/internal/minc"
	"tameir/internal/passes"
	"tameir/internal/target"
	"tameir/internal/telemetry"
	"tameir/internal/telemetry/trace"
)

// mincJob is one program compile under one variant.
type mincJob struct{ prog, variant int }

// runMinc is minc-suite, the paper's §7 pipeline (E4–E7): each sweep
// compiles every bench.Programs entry under bench.Baseline() and
// bench.Prototype(), in a seed-shuffled order, on two closed-loop
// workers. Each compile calls the frontend, the -O2 pipeline and the
// backend separately. After the timed region the first sweep's
// programs run once on the VX64 simulator, on the same workers, for
// checksum, cycles and size.
func runMinc(in repInput) (repResult, error) {
	variants := []bench.Variant{bench.Baseline(), bench.Prototype()}
	perSweep := len(variants) * len(bench.Programs)
	rng := rand.New(rand.NewSource(in.Seed))
	jobs := make([]mincJob, 0, in.Size*perSweep)
	for s := 0; s < in.Size; s++ {
		sweep := len(jobs)
		for v := range variants {
			for p := range bench.Programs {
				jobs = append(jobs, mincJob{p, v})
			}
		}
		rng.Shuffle(perSweep, func(i, j int) {
			jobs[sweep+i], jobs[sweep+j] = jobs[sweep+j], jobs[sweep+i]
		})
	}

	var reg *telemetry.Registry
	var rec *trace.Recorder
	var mincScope, miScope, passScope *telemetry.Scope
	if in.Traced {
		reg = telemetry.NewRegistry()
		rec = trace.NewRecorder(0)
		mincScope = telemetry.NewScope(reg, "minc")
		miScope = telemetry.NewScope(reg, "mi")
		passScope = telemetry.NewScope(reg, "pass")
	}

	sizes := make([]uint32, len(jobs))
	errs := make([]error, len(jobs))
	lat := make([]int64, len(jobs))
	// The first sweep covers every (program, variant) once; its outputs
	// are kept for the simulator and the IR counts.
	mods := make([]*ir.Module, perSweep)
	progs := make([]*target.Program, perSweep)
	pms := make([]*passes.PassManager, in.Workers)
	for w := range pms {
		pms[w] = passes.O2()
		if in.Traced {
			pms[w].Instrument()
			pms[w].Trace = passScope.WithTrace(rec, w)
		}
	}

	m := startTimed(in)
	closedLoop(in.Workers, len(jobs), func(w, i int) {
		p, v := bench.Programs[jobs[i].prog], variants[jobs[i].variant]
		ms := mincScope.WithTrace(rec, w)
		op := ms.Start("compile")
		t0 := time.Now()
		sp := ms.Start("frontend")
		mod, err := minc.CompileString(p.Src, v.MincCfg)
		sp.End()
		var prog *target.Program
		if err == nil {
			pms[w].Run(mod, v.PassCfg)
			sp = miScope.WithTrace(rec, w).Start("backend")
			prog, err = mi.CompileModule(mod)
			sp.End()
		}
		lat[i] = time.Since(t0).Nanoseconds()
		op.End()
		if err != nil {
			errs[i] = err
			return
		}
		sizes[i] = target.ProgramSize(prog)
		if i < perSweep {
			mods[i], progs[i] = mod, prog
		}
	})
	var res repResult
	m.stop(&res, len(jobs), lat)

	// Results per (variant, program) key, from the first sweep.
	type keyResult struct {
		size     uint32
		cycles   uint64
		instrs   int
		freezes  int
		checksum int32
	}
	keys := make([]keyResult, perSweep)
	keyOf := func(j mincJob) int { return j.variant*len(bench.Programs) + j.prog }
	simErrs := make([]error, perSweep)
	closedLoop(in.Workers, perSweep, func(_, i int) {
		if errs[i] != nil {
			return
		}
		k := &keys[keyOf(jobs[i])]
		k.size = sizes[i]
		for _, f := range mods[i].Funcs {
			f.ForEachInstr(func(in *ir.Instr) {
				k.instrs++
				if in.Op == ir.OpFreeze {
					k.freezes++
				}
			})
		}
		mach := target.NewMachine(progs[i])
		ret, err := mach.Run(progs[i].FuncByName("main"))
		k.cycles, k.checksum, simErrs[i] = mach.Cycles, int32(uint32(ret)), err
	})
	res.Attempted = len(jobs) + perSweep
	for i := 0; i < perSweep; i++ {
		p, v := bench.Programs[jobs[i].prog], variants[jobs[i].variant].Name
		k := keys[keyOf(jobs[i])]
		switch {
		case errs[i] != nil:
			// reported with the compiles below
		case simErrs[i] != nil:
			res.fail(1, "%s/%s: simulator: %v", p.Name, v, simErrs[i])
		case k.checksum != p.Want:
			res.fail(1, "%s/%s: checksum %d, want %d", p.Name, v, k.checksum, p.Want)
		}
	}
	for i, j := range jobs {
		p, v := bench.Programs[j.prog].Name, variants[j.variant].Name
		switch {
		case errs[i] != nil:
			res.fail(1, "%s/%s: %v", p, v, errs[i])
		case sizes[i] != keys[keyOf(j)].size:
			res.fail(1, "%s/%s: object size %d differs from the first compile's %d", p, v, sizes[i], keys[keyOf(j)].size)
		}
	}

	var lines []string
	var protoInstrs, protoFreezes, protoBytes, protoCycles float64
	for v := range variants {
		for p := range bench.Programs {
			k := keys[v*len(bench.Programs)+p]
			lines = append(lines, fmt.Sprintf("%s %s bytes=%d cycles=%d checksum=%d",
				bench.Programs[p].Name, variants[v].Name, k.size, k.cycles, k.checksum))
			if variants[v].Name == "prototype" {
				protoInstrs += float64(k.instrs)
				protoFreezes += float64(k.freezes)
				protoBytes += float64(k.size)
				protoCycles += float64(k.cycles)
			}
		}
	}
	res.Digest = digest(lines)
	res.Counts = map[string]int{
		"compiles": len(jobs), "sweeps": in.Size, "programs": len(bench.Programs),
		"prototype_object_bytes": int(protoBytes), "prototype_sim_cycles": int(protoCycles),
	}

	if in.Traced {
		for _, pm := range pms {
			reg.Merge(pm.Stats.Registry())
		}
		s := takeSnap(reg)
		l := newLayers(res)
		busy := s.spanNS("minc/compile")
		fillPassLayers(l, s, busy)
		l["minc.frontend_frac"] = ratio(s.spanNS("minc/frontend"), busy)
		l["mi.backend_frac"] = ratio(s.spanNS("mi/backend"), busy)
		l["minc.ir_instrs"] = protoInstrs
		l["passes.freeze_pct_ir"] = 100 * ratio(protoFreezes, protoInstrs)
		l["mi.object_bytes"] = protoBytes
		l["target.sim_cycles"] = protoCycles
		l["parallel.worker_busy_frac"] = ratio(busy, float64(in.Workers)*float64(res.WallNS))
		res.Layers = l
		if err := writePerfetto(in, rec); err != nil {
			return res, err
		}
	}
	return res, nil
}
