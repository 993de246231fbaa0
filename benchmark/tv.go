package main

import (
	_ "embed"
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/optfuzz"
	"tameir/internal/passes"
	"tameir/internal/refine"
	"tameir/internal/telemetry"
	"tameir/internal/telemetry/trace"
)

// tvLineages is the number of independent mutation lineages in the
// tv-cfg-mutants pool.
const tvLineages = 16

// tvConfig is the tame-tv configuration the workload validates under:
// freeze semantics and the historical (unsound) -O2, so a share of the
// mutants is refuted and the reducer has work.
func tvConfig() (core.Options, *passes.Config) {
	pcfg := passes.DefaultFreezeConfig()
	pcfg.Unsound = true
	return core.FreezeOptions(), pcfg
}

// makeTVCorpus writes about n CFG mutants (branches, diamonds, loops,
// phis) to path: a seeded three-in-four sample of a fixed pool of 4n/3,
// as the sweeps sample the fixed exhaustive space, so every seed checks
// different functions with the same mix. A few percent of the mutants
// cost a hundred times the rest (loops that run to the fuel limit), so
// the share of them a sample holds moves its mean cost; sampling three
// in four, not one in two, halves that variance. The pool is tvLineages
// optfuzz.MutationSource lineages with fixed seeds, each run for its
// default four epochs; epochs 1-3 (the mutants, not the straight-line
// seed prefix) enter the pool.
//
// The sources are advanced with feedback derived from each mutant's
// text alone, never from a check, so the inputs do not depend on the
// passes or the checker under test. freeze is left out of the mutation
// menu: a freeze inside a loop that can run to the fuel limit makes one
// check enumerate thousands of oracle choices, seconds per function for
// one or two mutants in a thousand, which swamped every other cost and
// made throughput differ several-fold between seeds. The -O2 output
// still carries the freezes the passes insert.
func makeTVCorpus(path string, seed int64, n int) error {
	gen := optfuzz.DefaultConfig(3)
	gen.AllowUndef = false
	gen.AllowPoison = true
	gen.Opcodes = []ir.Op{
		ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpUDiv, ir.OpSDiv, ir.OpURem, ir.OpSRem,
		ir.OpShl, ir.OpLShr, ir.OpAShr, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpICmp, ir.OpSelect,
	}
	var all []*ir.Func
	pool := 0
	for k := 0; k < tvLineages; k++ {
		mcfg := optfuzz.DefaultMutationConfig(int64(k))
		mcfg.Gen = gen
		mcfg.Mode = ir.VerifyFreeze
		mcfg.Epochs = 4
		mcfg.PerEpoch = max(1, (4*n+9*tvLineages-1)/(9*tvLineages))
		src := optfuzz.NewMutationSource(mcfg)
		for epoch := 0; epoch < mcfg.Epochs; epoch++ {
			var fb []optfuzz.Feedback
			for s := 0; s < src.Shards(); s++ {
				idx := 0
				src.Enumerate(s, 0, func(f *ir.Func) bool {
					text := f.String()
					if epoch > 0 {
						if sampleHash(seed, 0, pool)&3 != 0 {
							all = append(all, f)
						}
						pool++
					}
					h := fnv.New64a()
					h.Write([]byte(text))
					fb = append(fb, optfuzz.Feedback{Shard: s, Index: idx, Src: text, Behavior: h.Sum64()})
					idx++
					return true
				})
			}
			src.Advance(epoch, fb)
		}
	}
	return optfuzz.SaveCorpus(path, all)
}

// tvOutcome is one function's result, stored by input index.
type tvOutcome struct {
	result  refine.Result
	tgt     *ir.Func
	reduced optfuzz.ReduceResult
}

// runTV is tv-cfg-mutants: every corpus function goes through
// clone → historical freeze -O2 → refine.Check with one shared memo,
// as tame-tv configures the checker, on closed-loop workers; that is the
// timed region. With in.Reduce, every refutation then goes through the
// reducer. Its cost per rep swings with the few dozen refutations a
// sample holds, so it is attributed in traced reps rather than timed
// end to end, and every rep checks the same corpus, so one reducing rep
// per run covers it.
func runTV(in repInput) (repResult, error) {
	funcs, err := optfuzz.LoadCorpus(in.Corpus)
	if err != nil {
		return repResult{}, err
	}
	checks, err := parseKnown(knownLL)
	if err != nil {
		return repResult{}, err
	}
	opts, pcfg := tvConfig()
	memo := refine.NewMemo(0)
	rcfg := refine.DefaultConfig(opts, opts)
	rcfg.Memo = memo

	var reg *telemetry.Registry
	var rec *trace.Recorder
	var benchScope, passScope, checkScope *telemetry.Scope
	if in.Traced {
		reg = telemetry.NewRegistry()
		rec = trace.NewRecorder(0)
		benchScope = telemetry.NewScope(reg, "tv")
		passScope = telemetry.NewScope(reg, "pass")
		checkScope = telemetry.NewScope(reg, "check")
	}
	pms := make([]*passes.PassManager, in.Workers)
	met := make([]refine.CheckMetrics, in.Workers)
	for w := range pms {
		pms[w] = passes.O2()
		if in.Traced {
			pms[w].Instrument()
			pms[w].Trace = passScope.WithTrace(rec, w)
		}
	}
	// check returns the worker's checker configuration; the oracle is
	// private to one check.
	check := func(w int) refine.Config {
		cfg := rcfg
		cfg.Oracle = core.NewEnumOracle(cfg.MaxChoices, cfg.MaxFanout)
		cfg.Metrics = &met[w]
		cfg.Trace = checkScope.WithTrace(rec, w)
		return cfg
	}

	out := make([]tvOutcome, len(funcs))
	lat := make([]int64, len(funcs))
	m := startTimed(in)
	closedLoop(in.Workers, len(funcs), func(w, i int) {
		sp := benchScope.WithTrace(rec, w).Start("function")
		t0 := time.Now()
		work := ir.CloneFunc(funcs[i])
		pms[w].RunFunc(work, pcfg)
		r := refine.Check(funcs[i], work, check(w))
		lat[i] = time.Since(t0).Nanoseconds()
		sp.End()
		out[i] = tvOutcome{result: r}
		if r.Status == refine.Refuted {
			out[i].tgt = work
		}
	})
	var res repResult
	m.stop(&res, len(funcs), lat)
	memoHits, memoLookups := memo.Hits(), memo.Lookups()

	var refutedIdx []int
	for i, o := range out {
		if o.result.Status == refine.Refuted {
			refutedIdx = append(refutedIdx, i)
		}
	}
	// The reducer's own passes and checks stay out of the pass and
	// check spans and counters: they are inside the reduce span.
	reduce := refutedIdx
	if !in.Reduce {
		reduce = nil
	}
	closedLoop(in.Workers, len(reduce), func(w, j int) {
		i := reduce[j]
		rpm := passes.O2()
		cfg := rcfg
		cfg.Oracle = core.NewEnumOracle(cfg.MaxChoices, cfg.MaxFanout)
		sp := benchScope.WithTrace(rec, w).Start("reduce")
		out[i].reduced = optfuzz.ReduceFinding(funcs[i], func(f *ir.Func) []string {
			_, fired := rpm.RunFuncChanged(f, pcfg)
			return fired
		}, cfg, ir.VerifyFreeze, 0)
		sp.End()
	})

	var verified, inconclusive, reduceChecks int
	lines := make([]string, 0, len(funcs)+len(checks))
	res.Attempted = len(funcs)
	for i, o := range out {
		line := fmt.Sprintf("%d %s", i, o.result.Status)
		switch o.result.Status {
		case refine.Verified:
			verified++
		case refine.Inconclusive:
			inconclusive++
		case refine.Refuted:
			reduceChecks += o.reduced.Attempts
			line = fmt.Sprintf("%d %s", i, o.result)
			res.Attempted++
			if err := reproduce(funcs[i], o.tgt, o.result.CE, opts); err != nil {
				res.fail(1, "corpus function %d: %v", i, err)
			}
			if o.reduced.Steps > 0 {
				res.Attempted++
				if err := reproduceText(o.reduced.Src, o.reduced.Tgt, o.reduced.Result.CE, opts); err != nil {
					res.fail(1, "corpus function %d, reduced: %v", i, err)
				}
			}
		}
		lines = append(lines, line)
	}
	for _, k := range checks {
		res.Attempted++
		got := refine.Check(k.src, k.tgt, refine.DefaultConfig(k.opts, k.opts)).Status
		lines = append(lines, fmt.Sprintf("known %s %s %s", k.name, k.sem, got))
		switch {
		case got == k.want:
		case k.knownBug != "" && got == k.bugVerdict:
			res.KnownWrong++
		default:
			res.fail(1, "known pair %s (sem=%s): got %s, want %s", k.name, k.sem, got, k.want)
		}
	}
	res.Digest = digest(lines)
	res.Counts = map[string]int{
		"functions": len(funcs), "verified": verified, "refuted": len(refutedIdx),
		"inconclusive": inconclusive, "reduce_checks": reduceChecks,
		"known_pairs": len(checks), "known_wrong": res.KnownWrong,
	}

	if in.Traced {
		for w := range met {
			met[w].Publish(reg, telemetry.Scheduling)
			reg.Merge(pms[w].Stats.Registry())
		}
		s := takeSnap(reg)
		l := newLayers(res)
		fnNS, reduceNS := s.spanNS("tv/function"), s.spanNS("tv/reduce")
		busy := fnNS + reduceNS
		fillCheckerLayers(l, s, busy)
		fillEngineLayers(l, s)
		l["optfuzz.reduce_frac"] = ratio(reduceNS, busy)
		l["optfuzz.reduce_checks_per_finding"] = ratio(float64(reduceChecks), float64(len(refutedIdx)))
		l["refine.memo_hit_rate"] = ratio(float64(memoHits), float64(memoLookups))
		l["refine.memo_lookups_per_check"] = ratio(float64(memoLookups), s.val("check_checks_total"))
		l["refine.inconclusive_frac"] = ratio(float64(inconclusive), float64(len(funcs)))
		l["refine.known_wrong_verdicts"] = float64(res.KnownWrong)
		l["parallel.worker_busy_frac"] = ratio(fnNS, float64(in.Workers)*float64(res.WallNS))
		res.Layers = l
		if err := writePerfetto(in, rec); err != nil {
			return res, err
		}
	}
	return res, nil
}

//go:embed testdata/known.ll
var knownLL string

// knownCheck is one known-answer validation from testdata/known.ll.
// A pair with a knownBug currently gets bugVerdict instead of want.
type knownCheck struct {
	name, sem, knownBug string
	src, tgt            *ir.Func
	opts                core.Options
	want, bugVerdict    refine.Status
}

// parseStatus reads an expected verdict.
func parseStatus(s string) (refine.Status, error) {
	switch s {
	case "verified":
		return refine.Verified, nil
	case "refuted":
		return refine.Refuted, nil
	case "inconclusive":
		return refine.Inconclusive, nil
	}
	return 0, fmt.Errorf("bad verdict %q", s)
}

// parseKnown reads the "; check <pair> sem=.. expect=.. [known-bug=<id>:<verdict>]"
// annotations and the @<pair>_src / @<pair>_tgt functions they name.
func parseKnown(text string) ([]knownCheck, error) {
	mod, err := ir.ParseModule(text)
	if err != nil {
		return nil, fmt.Errorf("known.ll: %w", err)
	}
	var out []knownCheck
	for n, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, "; check ")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("known.ll:%d: check without a pair name", n+1)
		}
		k := knownCheck{name: fields[0]}
		for _, kv := range fields[1:] {
			key, val, _ := strings.Cut(kv, "=")
			switch key {
			case "sem":
				k.sem = val
			case "expect":
				if k.want, err = parseStatus(val); err != nil {
					return nil, fmt.Errorf("known.ll:%d: expect: %w", n+1, err)
				}
			case "known-bug":
				id, verdict, ok := strings.Cut(val, ":")
				if !ok || id == "" {
					return nil, fmt.Errorf("known.ll:%d: known-bug %q is not <id>:<verdict>", n+1, val)
				}
				k.knownBug = id
				if k.bugVerdict, err = parseStatus(verdict); err != nil {
					return nil, fmt.Errorf("known.ll:%d: known-bug: %w", n+1, err)
				}
			default:
				return nil, fmt.Errorf("known.ll:%d: unknown key %q", n+1, key)
			}
		}
		switch k.sem {
		case "freeze":
			k.opts = core.FreezeOptions()
		case "legacy":
			k.opts = core.LegacyOptions(core.BranchPoisonNondet)
		case "legacy-ub":
			k.opts = core.LegacyOptions(core.BranchPoisonIsUB)
		default:
			return nil, fmt.Errorf("known.ll:%d: bad sem %q", n+1, k.sem)
		}
		k.src, k.tgt = mod.FuncByName(k.name+"_src"), mod.FuncByName(k.name+"_tgt")
		if k.knownBug != "" && k.bugVerdict == k.want {
			return nil, fmt.Errorf("known.ll:%d: known-bug verdict equals the expected one", n+1)
		}
		if k.src == nil || k.tgt == nil {
			return nil, fmt.Errorf("known.ll:%d: pair %s lacks @%s_src or @%s_tgt", n+1, k.name, k.name, k.name)
		}
		out = append(out, k)
	}
	return out, nil
}
