package core

import "math/rand"

// Oracle resolves the nondeterminism in the semantics: the value an
// undef use takes, the value freeze gives a poison input, the direction
// of a legacy nondeterministic branch on poison, and the content of
// undef bits materialized by ty↑.
type Oracle interface {
	// Choose returns a value in [0, n). n is at least 1.
	Choose(n uint64) uint64
}

// ZeroOracle always chooses 0: the cheapest deterministic refinement of
// the nondeterministic semantics. Useful for smoke-testing and for the
// benchmark pipelines, where any consistent choice will do.
type ZeroOracle struct{}

// Choose implements Oracle.
func (ZeroOracle) Choose(n uint64) uint64 { return 0 }

// RandOracle chooses uniformly at random from a seeded source, giving
// reproducible randomized executions.
type RandOracle struct{ Rng *rand.Rand }

// NewRandOracle returns a RandOracle with the given seed.
func NewRandOracle(seed int64) *RandOracle {
	return &RandOracle{Rng: rand.New(rand.NewSource(seed))}
}

// Choose implements Oracle.
func (o *RandOracle) Choose(n uint64) uint64 {
	if n <= 1 {
		return 0
	}
	return uint64(o.Rng.Int63n(int64(n)))
}

// EnumOracle enumerates every sequence of choices, depth-first. Use it
// to compute the full behaviour set of a function on a given input:
//
//	o := NewEnumOracle(maxChoices)
//	for {
//	    o.Reset()
//	    ... run one execution using o ...
//	    if !o.Next() { break }
//	}
//
// Each execution replays the recorded prefix of choices and extends it
// with zeroes; Next advances the last choice with carry, like an
// odometer whose digit bases are the recorded Choose bounds.
//
// An enumeration that calls EnableMerging lets the compiled engine end
// a run at a state an earlier path reached (merge.go); such a run ends
// in OutMerged and stands for LastPaths choice paths.
type EnumOracle struct {
	path   []uint64
	limits []uint64
	pos    int
	// adv is the position the last Next advanced (0 before the first):
	// a run replays the positions before it. mark is the position up to
	// which the current run's boundaries are replays or already checked
	// for merging.
	adv, mark int
	// merging is set by EnableMerging until the next Clear; merge holds
	// the records, made at the first check and kept across enumerations
	// for its storage. leaves is the number of choice paths the current
	// run stands for.
	merging bool
	merge   *mergeTable
	leaves  uint64
	// Overflowed is set if an execution requested more than MaxChoices
	// choice points; enumeration is then incomplete and the caller must
	// treat results as inconclusive.
	Overflowed bool
	// MaxChoices bounds the number of choice points per execution.
	MaxChoices int
	// MaxFanout bounds any single Choose bound; wider requests set
	// Overflowed and take 0.
	MaxFanout uint64
}

// NewEnumOracle returns an enumerating oracle with the given bounds.
func NewEnumOracle(maxChoices int, maxFanout uint64) *EnumOracle {
	return &EnumOracle{MaxChoices: maxChoices, MaxFanout: maxFanout}
}

// Reset rewinds the oracle to replay mode for the next execution.
func (o *EnumOracle) Reset() { o.pos, o.mark, o.leaves = 0, o.adv, 1 }

// EnableMerging turns state merging on for the enumeration the last
// Clear (or NewEnumOracle) started: compiled runs on o may then end in
// OutMerged. The caller counts each run as LastPaths choice paths.
func (o *EnumOracle) EnableMerging() {
	if o.merge != nil {
		o.merge.reset()
	}
	o.merging = true
}

// LastPaths reports how many choice paths the last execution stands
// for: 1, or, when it ended in OutMerged, the number of paths below
// the state it merged into, whose outcomes an earlier run produced.
func (o *EnumOracle) LastPaths() int { return int(o.leaves) }

// Clear reinitializes the oracle for a fresh enumeration with the
// given bounds, reusing the recorded-path storage. It lets a worker
// keep one oracle for an entire campaign instead of allocating one per
// behaviour set.
func (o *EnumOracle) Clear(maxChoices int, maxFanout uint64) {
	o.path = o.path[:0]
	o.limits = o.limits[:0]
	o.pos, o.adv = 0, 0
	o.merging = false
	o.Overflowed = false
	o.MaxChoices = maxChoices
	o.MaxFanout = maxFanout
}

// Choose implements Oracle.
func (o *EnumOracle) Choose(n uint64) uint64 {
	if n > o.MaxFanout {
		o.Overflowed = true
		n = 1
	}
	if o.pos < len(o.path) {
		v := o.path[o.pos]
		o.pos++
		return v
	}
	if len(o.path) >= o.MaxChoices {
		o.Overflowed = true
		return 0
	}
	o.path = append(o.path, 0)
	o.limits = append(o.limits, n)
	o.pos++
	return 0
}

// Next advances to the next choice sequence; it returns false when the
// space is exhausted. Choice points beyond the position reached by the
// last execution are discarded (they were never used).
func (o *EnumOracle) Next() bool {
	// Drop unused tail (recorded in an earlier, longer execution).
	o.path = o.path[:o.pos]
	o.limits = o.limits[:o.pos]
	for i := len(o.path) - 1; i >= 0; i-- {
		o.path[i]++
		if o.path[i] < o.limits[i] {
			o.path = o.path[:i+1]
			o.limits = o.limits[:i+1]
			o.adv = i
			if o.merging && o.merge != nil {
				o.merge.advance(o.leaves, i)
			}
			return true
		}
		o.path = o.path[:i]
		o.limits = o.limits[:i]
	}
	return false
}
