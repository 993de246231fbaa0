package optfuzz

import (
	"tameir/internal/ir"
	"tameir/internal/refine"
)

// Source is a workload: a deterministic, shardable stream of candidate
// functions for a validation campaign. The exhaustive §6 enumerator,
// the coverage-guided mutation fuzzer and the sampled wide-bitwidth
// sweep all implement it, so the campaign engine (sharding, budgets,
// shared memo, streaming, telemetry) is written once against this
// contract.
//
// The contract that keeps campaigns reproducible:
//
//   - Shards are disjoint and cover the stream; concatenating shards
//     0..Shards()-1 in order yields one stable global order (the
//     ordinal space). Findings are reported as (shard, index) into it.
//   - Enumerate(shard, ...) must be callable for distinct shards from
//     distinct goroutines concurrently and must not share mutable
//     state between shards.
//   - The stream must depend only on the source's configuration, never
//     on the worker count or on timing. That is what makes a
//     campaign's findings byte-identical for every -workers value.
//
// Emitted functions are owned by the source; the campaign treats them
// as immutable and transforms private clones, so a source may emit
// functions it keeps (the mutation source emits its task list). A
// source must not change an emitted function until emit returns: the
// campaign clones, checks and renders it during the call and keeps no
// reference to it afterwards.
type Source interface {
	// Name labels the workload in telemetry ("exhaustive", "mutate",
	// "wide8", ...).
	Name() string
	// Shards returns how many disjoint shards the stream splits into.
	Shards() int
	// Budget returns the campaign-wide candidate budget (0 means
	// unbounded). The campaign splits it over shards deterministically
	// (shardBudgets) and passes each shard's slice as Enumerate's max.
	Budget() int
	// Capacities returns, for each shard, how many candidates the
	// shard can produce, each saturated at limit — or nil when
	// capacities are unknown (the campaign then splits the budget
	// evenly without surplus redistribution). Only consulted when
	// Budget() > 0.
	Capacities(limit int) []int
	// Enumerate streams shard's candidates in their stable order,
	// calling emit for each; max > 0 bounds the count. It returns how
	// many candidates were emitted and whether enumeration stopped
	// early (by max or by emit returning false).
	Enumerate(shard, max int, emit func(*ir.Func) bool) (int, bool)
}

// Feedback is the campaign's per-candidate verdict summary handed back
// to an Evolving source, in deterministic (shard, index) order.
type Feedback struct {
	// Shard and Index locate the candidate in the epoch's ordinal
	// space.
	Shard, Index int
	// Src is the candidate's canonical text.
	Src string
	// ChangedBy lists the pipeline passes that fired on the candidate
	// (deduplicated, first-fire order; nil for self-refinement
	// campaigns).
	ChangedBy []string
	// Refuted / Inconclusive report the candidate's verdict (both false
	// means it verified).
	Refuted      bool
	Inconclusive bool
	// Behavior is an order-sensitive FNV-1a digest of every behaviour
	// set the checker consumed for this candidate. Memo hits return
	// exactly the set enumeration would produce, so the digest is a
	// pure function of the candidate and the campaign configuration —
	// never of worker count or cache state.
	Behavior uint64
}

// Evolving is a Source whose stream is produced in epochs, with the
// verdicts of each epoch feeding the next (coverage-guided mutation).
// The campaign runs every shard of epoch e to completion, merges the
// feedback in (shard, index) order — a deterministic barrier — and
// calls Advance before enumerating epoch e+1. Enumerate always streams
// the current epoch.
type Evolving interface {
	Source
	// Epochs returns the total number of epochs (at least 1).
	Epochs() int
	// Advance folds one epoch's feedback into the source's state
	// (corpus, coverage map) and prepares the next epoch's stream. It
	// is called from one goroutine between epochs, including after the
	// final epoch (so end-of-run statistics see all feedback).
	Advance(epoch int, fb []Feedback)
}

// CorpusStats describes an evolving source's end-of-run corpus state;
// sources that keep a corpus implement CorpusReporter.
type CorpusStats struct {
	// Size is the number of functions resident in the bounded corpus.
	Size int
	// Coverage is the number of distinct coverage keys observed.
	Coverage int
}

// CorpusReporter is implemented by sources that maintain a corpus.
type CorpusReporter interface {
	CorpusStats() CorpusStats
}

// behaviorDigest folds one behaviour set into an FNV-1a accumulator.
// The canonical String rendering is deterministic (rets are sorted),
// so the fold is too.
func behaviorDigest(acc uint64, b refine.BehaviorSet) uint64 {
	const prime64 = 1099511628211
	if acc == 0 {
		acc = 14695981039346656037 // FNV offset basis
	}
	for _, c := range []byte(b.String()) {
		acc ^= uint64(c)
		acc *= prime64
	}
	acc ^= 0x1f // record set boundaries so {a}{b} != {ab}
	acc *= prime64
	return acc
}

// ExhaustiveSource adapts the §6 exhaustive enumerator (Config,
// NumShards, ShardCapacities, ExhaustiveShard) to the Source
// interface. It is the campaign's default workload: a Campaign with a
// nil Source wraps its Gen field in one of these, and the resulting
// run is byte-identical to the pre-interface engine — same shard
// partition, same budget split, same findings.
type ExhaustiveSource struct {
	Gen Config
}

// NewExhaustiveSource wraps cfg as a Source.
func NewExhaustiveSource(cfg Config) *ExhaustiveSource {
	return &ExhaustiveSource{Gen: cfg}
}

// Name implements Source.
func (e *ExhaustiveSource) Name() string { return "exhaustive" }

// Shards implements Source: one shard per first-instruction template.
func (e *ExhaustiveSource) Shards() int { return NumShards(e.Gen) }

// Budget implements Source: the generator's MaxFuncs bound.
func (e *ExhaustiveSource) Budget() int { return e.Gen.MaxFuncs }

// Capacities implements Source via the template-odometer walk.
func (e *ExhaustiveSource) Capacities(limit int) []int {
	return ShardCapacities(e.Gen, limit)
}

// Enumerate implements Source.
func (e *ExhaustiveSource) Enumerate(shard, max int, emit func(*ir.Func) bool) (int, bool) {
	gen := e.Gen
	gen.MaxFuncs = max
	return ExhaustiveShard(gen, shard, emit)
}
