package optfuzz

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/parallel"
	"tameir/internal/passes"
	"tameir/internal/refine"
	"tameir/internal/telemetry"
	"tameir/internal/telemetry/trace"
)

// Campaign is one fuzz-and-validate run, the paper's §6 experiment as
// a pipeline: enumerate a workload's candidate stream, transform every
// candidate, and decide refinement of each transformation.
//
// The workload is a Source: a deterministic, shardable candidate
// stream: the exhaustive §6 enumerator (NewExhaustiveSource), the
// mutation fuzzer (NewMutationSource) and the sampled wide-bitwidth
// sweep (NewWideSource) plug into the same engine. A
// bounded worker pool runs the source's shards concurrently, each
// worker with its own enumeration oracle, and results are merged in
// shard order. The behaviour-set memo itself is ONE
// concurrency-safe cache shared by all shards, so a candidate that
// collapses to a form some other shard already explored is a lookup,
// not a re-enumeration — cross-shard hits are a large fraction of the
// total on §6-style spaces, where most shards funnel into the same few
// small forms.
//
// Evolving sources run in epochs: every shard of epoch e completes,
// the per-candidate feedback merges in (shard, index) order — a
// deterministic barrier — and the source advances before epoch e+1
// enumerates. Coverage-guided mutation therefore sees exactly the same
// feedback stream for every worker count.
//
// A campaign's findings and verdict counters remain byte-identical for
// every worker count, including Workers=1 (which runs inline with no
// goroutines): a memo hit returns exactly the set enumeration would
// have produced, so sharing the memo affects speed, never results.
// Only the memo *statistics* (Stats.MemoHits and friends) depend on
// scheduling when Workers > 1, since which shard computes a shared set
// first is a race.
type Campaign struct {
	// Source is the workload: NewExhaustiveSource(gen) for the §6
	// enumerator, NewMutationSource or NewWideSource for the others.
	// Required. A budgeted source (Budget > 0) is split
	// deterministically across shards (by shard index, not by worker),
	// so the checked candidate set does not depend on the worker count.
	Source Source

	// Refine configures the checker. Its Memo, Oracle and BehaviorHook
	// fields are ignored: the campaign supplies one shared memo, a
	// private oracle per shard, and for evolving sources the hook that
	// derives coverage digests.
	// Refine.Interpret is the campaign's engine switch: it flows into
	// every shard's checker unchanged.
	Refine refine.Config

	// Pipeline, when non-nil, runs every candidate through a per-shard
	// Clone of the pass manager, so findings carry the names of the
	// passes that fired (Finding.ChangedBy) and, when the manager is
	// instrumented, per-shard Stats merge deterministically into the
	// campaign's Opt. A campaign without a Pipeline checks every
	// candidate against itself (self-refinement).
	Pipeline *passes.PassManager

	// PipelineCfg is the pass configuration for Pipeline. Required when
	// Pipeline is set.
	PipelineCfg *passes.Config

	// Workers bounds pool concurrency; 0 means one per CPU, 1 is
	// serial.
	Workers int

	// NoMemo disables the campaign's shared behaviour-set memo.
	NoMemo bool

	// Reduce pushes every refuted finding through the automatic
	// reducer before it is recorded or streamed: greedy instruction /
	// branch / operand shrinking, re-checking the refinement verdict
	// at every step, so the published counterexample is minimal while
	// still refuted by the same transform. The reduced finding is a
	// pure function of the candidate and the campaign configuration,
	// so reduction preserves the byte-identical-across-workers
	// guarantee.
	Reduce bool

	// ReduceMaxSteps bounds the reducer's accepted shrink steps per
	// finding (0 means DefaultReduceMaxSteps).
	ReduceMaxSteps int

	// TracePhases enables fine-grained span telemetry: one span per
	// shard enumeration (span="campaign/s<shard>") plus the per-phase
	// spans inside every refine.Check (compile and per-input behaviour
	// sweeps), without a flight recorder. Off by default: the spans
	// are cheap but still cost clock reads on the hot path, so the
	// benchmark's untraced reps run without them. Requires Telemetry.
	// Only the benchmark harness's traced reps set it; the CLIs turn
	// the same span sites on through Trace.
	TracePhases bool

	// Trace, when non-nil, is the flight recorder: shard spans, check
	// phases, per-pass spans, and one provenance-carrying "finding"
	// instant per finding all land in it, on one track per shard (plus a "campaign"
	// track for run-level events). Implies the TracePhases span sites
	// regardless of that flag. All trace data is scheduling-class: the
	// timeline is never reproducible across runs.
	Trace *trace.Recorder

	// Seed is the workload RNG seed, recorded in finding provenance
	// (the campaign itself never consumes it — sources are seeded at
	// construction).
	Seed int64

	// StallDeadline arms the stall watchdog: a shard silent for longer
	// than this (no candidate completed) dumps all goroutine stacks to
	// stderr, writes an emergency trace snapshot to StallSnapshot,
	// and records a "watchdog_stall" instant instead of hanging
	// silently. Zero disables the watchdog. Heartbeat ages surface as
	// watchdog_beat_age_ms{shard=N} gauges and stall episodes as
	// watchdog_stalls_total in Telemetry.
	StallDeadline time.Duration

	// StallSnapshot, when non-empty, is where the watchdog writes the
	// emergency Chrome-JSON trace snapshot on the first stall.
	StallSnapshot string

	// Telemetry, when non-nil, receives the campaign's merged metric
	// counters after the run: campaign_* verdicts and epochs,
	// per-shard checker and engine counters (check_*, engine_*,
	// pool_frames_*), shared-memo counters (memo_*), worker-pool utilization (pool_*),
	// corpus/reducer counters for evolving or reducing campaigns, and
	// — for instrumented Pipeline campaigns — the merged pass-manager
	// registry (pass_*, opt_*, analysis_*). Shard-local collectors
	// merge in shard order; the registry's deterministic section is
	// byte-identical for every worker count.
	Telemetry *telemetry.Registry

	// Stream, when non-nil, receives every Finding in deterministic
	// (epoch, shard, index) order while the campaign runs, and
	// is closed by Run before it returns. Streamed findings are NOT
	// retained in Stats.Findings, so a campaign with a draining
	// consumer holds at most the out-of-turn shards' findings in
	// memory — this is the report-early-and-bound-memory path for huge
	// campaigns. A slow consumer applies backpressure to the whole
	// pipeline.
	Stream chan<- Finding

	// Progress, when non-nil, is invoked from campaign goroutines —
	// rate-limited to ProgressEvery, serialized, plus once with the
	// final totals — as candidates are validated. Keep it fast; it runs
	// on the hot path's rate-limited edge.
	Progress func(CampaignProgress)

	// ProgressEvery rate-limits Progress callbacks; 0 means 100ms.
	ProgressEvery time.Duration
}

// CampaignProgress is a running snapshot handed to Progress callbacks.
// Counters are totals since the campaign started; Shards counts shard
// enumerations across all epochs.
type CampaignProgress struct {
	Shards     int
	ShardsDone int

	Funcs        uint64
	Verified     uint64
	Refuted      uint64
	Inconclusive uint64
}

// Finding is one refuted transformation.
type Finding struct {
	// Epoch is the source epoch that produced the candidate (always 0
	// for single-epoch workloads like the exhaustive enumerator).
	Epoch int
	// Shard and Index locate the candidate deterministically: Index is
	// its position within the shard's enumeration order for its epoch.
	Shard, Index int
	// ChangedBy lists the pipeline passes that reported a change on
	// this candidate, deduplicated, in first-fire order (only set for
	// Pipeline campaigns). The last CFG- or value-rewriting pass in the
	// list is the prime miscompilation suspect.
	ChangedBy []string
	// Src and Tgt are the printed functions. Under Campaign.Reduce
	// they are the reducer's minimized pair.
	Src, Tgt string
	// OrigSrc is the unreduced candidate when the reducer shrank this
	// finding (empty when reduction is off or made no progress).
	OrigSrc string
	// ReduceSteps is how many accepted shrink steps produced Src.
	ReduceSteps int
	// Result carries the counterexample.
	Result refine.Result
	// Prov records where the finding came from beyond the positional
	// fields above: workload, seed and engine.
	// Always populated by the campaign; mirrored into the flight
	// recorder as a "finding" instant when Campaign.Trace is set, so a
	// trace alone explains every counterexample.
	Prov *Provenance
}

// Provenance is the cross-cutting context attached to each Finding.
// The positional coordinates (epoch, shard, index, ChangedBy, reduce
// steps) live on the Finding itself; Provenance carries the
// campaign-level rest. Every field is deterministic — findings (and
// so their provenance) must stay DeepEqual across worker counts. The
// scheduling-dependent memo counters at sealing time appear only in
// the mirrored trace instant (`memo_lookups`/`memo_hits` args).
type Provenance struct {
	// Source names the workload; Seed is the campaign's RNG seed.
	Source string
	Seed   int64
	// Tier is the engine the checker ran on: "closure" for the
	// compiled engine, "interp" for the tree-walking interpreter.
	Tier string
}

// Stats aggregates a campaign. Funcs counts candidate functions; each
// gets one verdict, so Verified+Refuted+Inconclusive == Funcs.
type Stats struct {
	Funcs        int
	Verified     int
	Refuted      int
	Inconclusive int
	Truncated    bool

	// Source names the workload that ran; Epochs is how many source
	// epochs it took (1 for non-evolving workloads).
	Source string
	Epochs int

	// CorpusSize / CoverageKeys are an evolving source's end-of-run
	// corpus statistics (zero for non-evolving workloads).
	CorpusSize   int
	CoverageKeys int

	// ReduceSteps / ReduceAttempts / ReduceRemovedInstrs /
	// ReducedFindings aggregate the automatic reducer: accepted shrink
	// steps, candidate edits re-checked, instructions removed, and
	// findings that passed through it (all zero unless
	// Campaign.Reduce).
	ReduceSteps         uint64
	ReduceAttempts      uint64
	ReduceRemovedInstrs uint64
	ReducedFindings     uint64

	// Findings lists every refuted candidate in deterministic
	// (epoch, shard, index) order.
	Findings []Finding

	// MemoHits / MemoLookups / MemoEvictions are the shared memo's
	// counters after the run; MemoSets is how many behaviour sets it
	// ended up holding. Under Workers > 1 the hit/eviction split is
	// scheduling-dependent (the verdicts above are not).
	MemoHits      uint64
	MemoLookups   uint64
	MemoEvictions uint64
	MemoSets      int
	// MemoAdmissions counts functions the memo published to its shared
	// index because they came back; MemoDoorkeeper is how many key
	// hashes the admission doorkeeper held at the end. Both are
	// scheduling-dependent like the counters above.
	MemoAdmissions uint64
	MemoDoorkeeper int

	// Opt merges the per-shard pass-manager statistics in shard order
	// (nil unless the campaign ran an instrumented Pipeline).
	Opt *passes.Stats
}

// HitRate returns the memo hit fraction in [0, 1].
func (s Stats) HitRate() float64 {
	if s.MemoLookups == 0 {
		return 0
	}
	return float64(s.MemoHits) / float64(s.MemoLookups)
}

// shardBudgets splits a campaign-wide budget over shards:
// shard i receives total/shards plus one of the remainder's units.
// When caps (per-shard enumeration capacities) is non-nil, a second
// fill pass reclaims the budget that small shards cannot absorb and
// redistributes it — evenly, remainder to the front — over shards with
// room, repeating until the budget is placed or every shard is full.
// The sharded candidate count then equals min(total, Σcaps), exactly
// the count a serial budgeted enumeration yields. The split depends
// only on the shard count and capacities, never on the worker count.
// A zero total means unbounded and yields all zeros.
func shardBudgets(total, shards int, caps []int) []int {
	out := make([]int, shards)
	if total <= 0 {
		return out
	}
	base, rem := total/shards, total%shards
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	if caps == nil {
		return out
	}
	surplus := 0
	for i := range out {
		if out[i] > caps[i] {
			surplus += out[i] - caps[i]
			out[i] = caps[i]
		}
	}
	for surplus > 0 {
		spare := 0
		for i := range out {
			if out[i] < caps[i] {
				spare++
			}
		}
		if spare == 0 {
			break // the whole space is smaller than the budget
		}
		give, giveRem := surplus/spare, surplus%spare
		seen := 0
		for i := range out {
			room := caps[i] - out[i]
			if room == 0 {
				continue
			}
			g := give
			if seen < giveRem {
				g++
			}
			seen++
			if g > room {
				g = room
			}
			out[i] += g
			surplus -= g
		}
	}
	return out
}

// findingStreamer reassembles concurrently produced findings into
// deterministic (shard, index) order within one epoch. The shard
// currently at the head of the order streams its findings straight
// through; later shards buffer until every earlier shard has finished,
// at which point their backlog flushes and they go live. With one
// worker nothing ever buffers. Epochs run sequentially, so one
// streamer per epoch over the same channel yields the global
// (epoch, shard, index) order.
type findingStreamer struct {
	mu      sync.Mutex
	ch      chan<- Finding
	next    int // lowest shard not yet finished: it streams live
	pending [][]Finding
	done    []bool
}

func newFindingStreamer(ch chan<- Finding, shards int) *findingStreamer {
	if ch == nil {
		return nil
	}
	return &findingStreamer{ch: ch, pending: make([][]Finding, shards), done: make([]bool, shards)}
}

// emit routes one finding: live when its shard holds the head of the
// order, buffered otherwise. Channel sends happen under the lock, so a
// slow consumer backpressures every shard — that is the memory bound.
func (st *findingStreamer) emit(shard int, f Finding) {
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if shard == st.next {
		st.ch <- f
	} else {
		st.pending[shard] = append(st.pending[shard], f)
	}
}

// finish marks a shard complete and advances the head past every
// finished shard, flushing the backlog of each shard the head lands
// on so its subsequent emits stream live.
func (st *findingStreamer) finish(shard int) {
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.done[shard] = true
	for st.next < len(st.done) && st.done[st.next] {
		st.next++
		if st.next < len(st.done) {
			for _, f := range st.pending[st.next] {
				st.ch <- f
			}
			st.pending[st.next] = nil
		}
	}
}

// close closes the stream channel (all shards must have finished).
func (st *findingStreamer) close() {
	if st != nil {
		close(st.ch)
	}
}

// progressSink fans shard-side counter updates into rate-limited
// Progress callbacks. Updates are atomic adds; the callback itself is
// serialized by mu.
type progressSink struct {
	fn     func(CampaignProgress)
	every  time.Duration
	shards int

	funcs        atomic.Uint64
	verified     atomic.Uint64
	refuted      atomic.Uint64
	inconclusive atomic.Uint64
	shardsDone   atomic.Int64

	last atomic.Int64 // unix nanos of the last callback
	mu   sync.Mutex
}

func newProgressSink(fn func(CampaignProgress), every time.Duration, shards int) *progressSink {
	if fn == nil {
		return nil
	}
	if every <= 0 {
		every = 100 * time.Millisecond
	}
	return &progressSink{fn: fn, every: every, shards: shards}
}

func (p *progressSink) snapshot() CampaignProgress {
	return CampaignProgress{
		Shards:       p.shards,
		ShardsDone:   int(p.shardsDone.Load()),
		Funcs:        p.funcs.Load(),
		Verified:     p.verified.Load(),
		Refuted:      p.refuted.Load(),
		Inconclusive: p.inconclusive.Load(),
	}
}

// tick fires the callback if the rate limit allows (always when force
// is set, for the final report).
func (p *progressSink) tick(force bool) {
	if p == nil {
		return
	}
	now := time.Now().UnixNano()
	last := p.last.Load()
	if !force {
		if now-last < int64(p.every) || !p.last.CompareAndSwap(last, now) {
			return
		}
	} else {
		p.last.Store(now)
	}
	p.mu.Lock()
	p.fn(p.snapshot())
	p.mu.Unlock()
}

// shardStats is one shard's slice of one epoch.
type shardStats struct {
	Stats
	Check refine.CheckMetrics
	fb    []Feedback
}

// Run executes the campaign and returns the merged, deterministic
// result.
func (c Campaign) Run() Stats {
	src := c.Source
	shards := src.Shards()
	budget := src.Budget()
	var caps []int
	if budget > 0 {
		caps = src.Capacities(budget)
	}
	budgets := shardBudgets(budget, shards, caps)

	epochs := 1
	evolving, _ := src.(Evolving)
	if evolving != nil {
		if e := evolving.Epochs(); e > 1 {
			epochs = e
		}
	}

	var memo *refine.Memo
	if !c.NoMemo {
		memo = refine.NewMemo(0)
	}

	progress := newProgressSink(c.Progress, c.ProgressEvery, shards*epochs)
	var poolPM *parallel.PoolMetrics
	var runSpan *telemetry.Span
	var shardScope, checkScope, passScope *telemetry.Scope
	if c.Telemetry != nil {
		poolPM = &parallel.PoolMetrics{}
	}
	if c.Telemetry != nil || c.Trace != nil {
		// Spans need a registry for their histograms even in a
		// trace-only run; a throwaway one keeps the recorder fed
		// without publishing anywhere.
		sreg := c.Telemetry
		if sreg == nil {
			sreg = telemetry.NewRegistry()
		}
		scope := telemetry.NewScope(sreg, "campaign")
		// Run-level events go on the track after the last shard.
		runSpan = scope.WithTrace(c.Trace, shards).Start("run")
		if c.TracePhases || c.Trace != nil {
			shardScope = scope
			checkScope = telemetry.NewScope(sreg, "check")
			passScope = telemetry.NewScope(sreg, "pass")
		}
	}
	if c.Trace != nil {
		for s := 0; s < shards; s++ {
			c.Trace.SetTrackName(s, fmt.Sprintf("shard %d", s))
		}
		c.Trace.SetTrackName(shards, "campaign")
	}

	var wd *trace.Watchdog
	if c.StallDeadline > 0 {
		treg := c.Telemetry // nil registry is a valid no-op sink
		wd = trace.StartWatchdog(trace.WatchdogConfig{
			Tracks:       shards,
			Deadline:     c.StallDeadline,
			Rec:          c.Trace,
			SnapshotPath: c.StallSnapshot,
			OnBeatAge: func(track int, age time.Duration) {
				treg.Gauge(
					telemetry.L("watchdog_beat_age_ms", "shard", strconv.Itoa(track)),
					telemetry.Scheduling,
					"ms since the shard's last completed candidate",
				).Set(age.Milliseconds())
			},
		})
		defer wd.Stop()
	}

	prov := Provenance{
		Source: src.Name(),
		Seed:   c.Seed,
		Tier:   "closure",
	}
	if c.Refine.Interpret {
		prov.Tier = "interp"
	}

	// The reducer re-verifies every shrunken candidate against the
	// dialect the campaign checks under.
	verifyMode := c.Refine.SrcOpts.Mode.VerifyMode()

	var out Stats
	var check refine.CheckMetrics
	var streamer *findingStreamer

	for epoch := 0; epoch < epochs; epoch++ {
		epoch := epoch
		streamer = newFindingStreamer(c.Stream, shards)
		results := parallel.MapTimed(c.Workers, shards, func(s int) shardStats {
			return c.runShard(src, evolving, epoch, s, budget, budgets[s],
				memo, verifyMode, streamer, progress,
				shardScope, checkScope, passScope, wd, &prov)
		}, poolPM)

		for _, r := range results {
			out.Funcs += r.Funcs
			out.Verified += r.Verified
			out.Refuted += r.Refuted
			out.Inconclusive += r.Inconclusive
			out.Truncated = out.Truncated || r.Truncated
			out.Findings = append(out.Findings, r.Findings...)
			out.ReduceSteps += r.ReduceSteps
			out.ReduceAttempts += r.ReduceAttempts
			out.ReduceRemovedInstrs += r.ReduceRemovedInstrs
			out.ReducedFindings += r.ReducedFindings
			if r.Opt != nil {
				if out.Opt == nil {
					out.Opt = passes.NewStats()
				}
				out.Opt.Merge(r.Opt)
			}
			check.Add(&r.Check)
		}
		if evolving != nil {
			// The feedback barrier: shard order, then index order within
			// each shard — the same total order a serial run observes.
			var fb []Feedback
			for _, r := range results {
				fb = append(fb, r.fb...)
			}
			evolving.Advance(epoch, fb)
		}
	}
	streamer.close()
	if memo != nil {
		out.MemoHits = memo.Hits()
		out.MemoLookups = memo.Lookups()
		out.MemoEvictions = memo.Evictions()
		out.MemoSets = memo.Len()
		out.MemoAdmissions = memo.Admissions()
		out.MemoDoorkeeper = memo.DoorkeeperEntries()
	}
	out.Source = src.Name()
	out.Epochs = epochs
	corpus := false
	if cr, ok := src.(CorpusReporter); ok {
		cs := cr.CorpusStats()
		out.CorpusSize, out.CoverageKeys = cs.Size, cs.Coverage
		corpus = true
	}
	runSpan.End()
	if c.Trace != nil {
		// Final counter samples on the campaign track: the values CI
		// assertions read back from the trace alone (one "finding"
		// instant was emitted per finding, so
		// instants(finding)==counter(findings) must hold unless the
		// ring wrapped).
		c.Trace.Counter(shards, "findings", int64(out.Refuted))
		c.Trace.Counter(shards, "funcs", int64(out.Funcs))
	}
	c.publish(out, shards*epochs, &check, poolPM, memo != nil, corpus)
	if c.Telemetry != nil {
		if wd != nil {
			c.Telemetry.Counter("watchdog_stalls_total", telemetry.Scheduling,
				"stall episodes the watchdog fired on").Add(wd.Stalls())
		}
		if c.Trace != nil {
			c.Telemetry.Counter("trace_events_total", telemetry.Scheduling,
				"events resident in the flight recorder after the run").Add(uint64(len(c.Trace.Events())))
			c.Telemetry.Counter("trace_dropped_total", telemetry.Scheduling,
				"events overwritten by flight-recorder ring wrap").Add(c.Trace.Dropped())
		}
	}
	progress.tick(true)
	return out
}

// runShard enumerates one shard of one epoch, validating every
// candidate against the campaign's pipeline. It owns all its mutable
// state (oracle, pass-manager clone), so distinct shards run
// concurrently without sharing.
func (c Campaign) runShard(src Source, evolving Evolving, epoch, s, budget, max int,
	memo *refine.Memo, verifyMode ir.VerifyMode, streamer *findingStreamer,
	progress *progressSink, shardScope, checkScope, passScope *telemetry.Scope,
	wd *trace.Watchdog, prov *Provenance) shardStats {
	defer func() {
		wd.Done(s)
		streamer.finish(s)
		if progress != nil {
			progress.shardsDone.Add(1)
			progress.tick(false)
		}
	}()
	if budget > 0 && max == 0 {
		return shardStats{} // budget exhausted before this shard
	}
	// Bind this shard's events to its own recorder track. WithTrace is
	// a no-op when the campaign has no recorder, so the TracePhases-
	// only configuration keeps its histogram-only spans.
	shardScope = shardScope.WithTrace(c.Trace, s)
	checkScope = checkScope.WithTrace(c.Trace, s)
	passScope = passScope.WithTrace(c.Trace, s)
	wd.Beat(s)
	if shardScope != nil {
		defer shardScope.Start(fmt.Sprintf("s%d", s)).End()
	}
	rcfg := c.Refine
	rcfg.Oracle = core.NewEnumOracle(rcfg.MaxChoices, rcfg.MaxFanout)
	rcfg.Memo = memo
	rcfg.BehaviorHook = nil
	if checkScope != nil {
		rcfg.Trace = checkScope
	}

	// transform rewrites a candidate's clone and returns the names of
	// the pipeline passes that changed it (nil for self-refinement).
	transform := func(*ir.Func) []string { return nil }
	var pm *passes.PassManager
	if c.Pipeline != nil {
		pm = c.Pipeline.Clone() // private per-shard stats, shared pass list
		pm.Trace = passScope    // per-pass spans ("pass/<name>") on this shard's track
		transform = func(f *ir.Func) []string {
			_, fired := pm.RunFuncChanged(f, c.PipelineCfg)
			return fired
		}
	}

	var st shardStats
	rcfg.Metrics = &st.Check

	// The reducer runs extra checks per finding; its configuration has
	// no hook, which keeps them out of the candidate's coverage digest.
	rrcfg := rcfg
	// For evolving sources, fold every behaviour set the checker
	// consumes into a per-candidate coverage digest. Memo hits return
	// exactly the set enumeration would produce, so the digest is
	// cache- and worker-independent.
	var digest uint64
	if evolving != nil {
		rcfg.BehaviorHook = func(b refine.BehaviorSet) {
			digest = behaviorDigest(digest, b)
		}
	}

	idx := 0
	_, truncated := src.Enumerate(s, max, func(f *ir.Func) bool {
		st.Funcs++
		digest = 0
		work := ir.CloneFunc(f)
		changedBy := transform(work)
		r := refine.Check(f, work, rcfg)
		switch r.Status {
		case refine.Verified:
			st.Verified++
			if progress != nil {
				progress.verified.Add(1)
			}
		case refine.Refuted:
			st.Refuted++
			if progress != nil {
				progress.refuted.Add(1)
			}
			fd := Finding{
				Epoch: epoch, Shard: s, Index: idx,
				ChangedBy: changedBy,
				Src:       f.String(), Tgt: work.String(),
				Result: r,
			}
			if c.Reduce {
				rr := ReduceFinding(f, transform, rrcfg, verifyMode, c.ReduceMaxSteps)
				st.ReduceSteps += uint64(rr.Steps)
				st.ReduceAttempts += uint64(rr.Attempts)
				st.ReduceRemovedInstrs += uint64(rr.RemovedInstrs)
				st.ReducedFindings++
				if rr.Steps > 0 {
					fd.OrigSrc = fd.Src
					fd.ReduceSteps = rr.Steps
					fd.Src, fd.Tgt = rr.Src, rr.Tgt
					fd.ChangedBy = rr.ChangedBy
					fd.Result = rr.Result
				}
			}
			p := *prov
			fd.Prov = &p
			// The memo counters at sealing are scheduling-dependent
			// (which worker derives a shared set first is a race), so
			// they go into the trace record only — Finding.Prov stays
			// deterministic, like every other field DeepEqual'd by the
			// across-workers tests.
			var memoLookups, memoHits uint64
			if memo != nil {
				memoLookups, memoHits = memo.Lookups(), memo.Hits()
			}
			// Pinned: provenance must survive ring wrap so the trace
			// always explains every finding (and CI can assert
			// instants(finding)==counter(findings)).
			c.Trace.InstantPinned(s, "finding",
				"epoch", strconv.Itoa(epoch),
				"shard", strconv.Itoa(s),
				"index", strconv.Itoa(idx),
				"changed_by", strings.Join(fd.ChangedBy, ","),
				"source", p.Source,
				"seed", strconv.FormatInt(p.Seed, 10),
				"tier", p.Tier,
				"memo_lookups", strconv.FormatUint(memoLookups, 10),
				"memo_hits", strconv.FormatUint(memoHits, 10),
				"reduce_steps", strconv.Itoa(fd.ReduceSteps))
			if streamer != nil {
				streamer.emit(s, fd)
			} else {
				st.Findings = append(st.Findings, fd)
			}
		default:
			st.Inconclusive++
			if progress != nil {
				progress.inconclusive.Add(1)
			}
		}
		if evolving != nil {
			st.fb = append(st.fb, Feedback{
				Shard: s, Index: idx, Src: f.String(),
				ChangedBy: changedBy,
				Refuted:   r.Status == refine.Refuted, Inconclusive: r.Status == refine.Inconclusive,
				Behavior: digest,
			})
		}
		idx++
		wd.Beat(s)
		if progress != nil {
			progress.funcs.Add(1)
			progress.tick(false)
		}
		return true
	})
	st.Truncated = truncated
	if pm != nil {
		st.Opt = pm.Stats
	}
	return st
}

// publish folds the campaign's merged collectors into c.Telemetry.
// Verdict and epoch counters, the corpus/reducer counters, and the
// per-shard checker/engine counters are
// Deterministic (pure functions of the shard partition); everything
// touching the shared memo is Scheduling, because which worker computes
// a shared behaviour set first is a race whenever more than one runs —
// and the class must not depend on the worker count.
func (c Campaign) publish(out Stats, shardRuns int, check *refine.CheckMetrics, poolPM *parallel.PoolMetrics, sharedMemo, corpus bool) {
	reg := c.Telemetry
	if reg == nil {
		return
	}
	det := telemetry.Deterministic
	reg.Counter("campaign_shards_total", det, "shard enumerations run").Add(uint64(shardRuns))
	reg.Counter("campaign_funcs_total", det, "candidate functions enumerated").Add(uint64(out.Funcs))
	reg.Counter("campaign_verified_total", det, "validations proved refining").Add(uint64(out.Verified))
	reg.Counter("campaign_refuted_total", det, "validations refuted (findings)").Add(uint64(out.Refuted))
	reg.Counter("campaign_inconclusive_total", det, "validations hitting resource caps").Add(uint64(out.Inconclusive))
	var trunc uint64
	if out.Truncated {
		trunc = 1
	}
	reg.Counter("campaign_truncated_total", det, "campaigns cut short by the budget").Add(trunc)
	reg.Counter("campaign_epochs_total", det, "source epochs run").Add(uint64(out.Epochs))
	if corpus {
		reg.Gauge("corpus_size", det, "functions resident in the mutation corpus").Set(int64(out.CorpusSize))
		reg.Gauge("coverage_keys", det, "distinct coverage keys observed").Set(int64(out.CoverageKeys))
	}
	if c.Reduce {
		reg.Counter("reduce_steps_total", det, "accepted reducer shrink steps").Add(out.ReduceSteps)
		reg.Counter("reduce_attempts_total", det, "reducer candidate edits re-checked").Add(out.ReduceAttempts)
		reg.Counter("reduce_removed_instrs_total", det, "instructions removed from findings by the reducer").Add(out.ReduceRemovedInstrs)
		reg.Counter("reduce_findings_total", det, "findings passed through the reducer").Add(out.ReducedFindings)
	}

	memoClass := det
	if sharedMemo {
		memoClass = telemetry.Scheduling
	}
	check.Publish(reg, memoClass)
	if sharedMemo {
		reg.Counter("memo_lookups_total", telemetry.Scheduling, "shared-memo lookups").Add(out.MemoLookups)
		reg.Counter("memo_hits_total", telemetry.Scheduling, "shared-memo hits").Add(out.MemoHits)
		reg.Counter("memo_evictions_total", telemetry.Scheduling, "shared-memo evictions").Add(out.MemoEvictions)
		reg.Gauge("memo_sets", telemetry.Scheduling, "behaviour sets resident in the shared memo").Set(int64(out.MemoSets))
		reg.Counter("memo_admissions_total", telemetry.Scheduling, "functions admitted to the shared memo on repeat").Add(out.MemoAdmissions)
		reg.Gauge("memo_doorkeeper_entries", telemetry.Scheduling, "key hashes held by the memo's admission doorkeeper").Set(int64(out.MemoDoorkeeper))
	}
	poolPM.Publish(reg)
	if out.Opt != nil {
		reg.Merge(out.Opt.Registry())
	}
}
