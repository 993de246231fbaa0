package optfuzz

import (
	"fmt"
	"math/rand"

	"tameir/internal/analysis"
	"tameir/internal/ir"
)

// Coverage-guided CFG mutation fuzzing. Exhaustive enumeration covers
// every straight-line function of a fixed shape; mutation reaches the
// programs that shape excludes — branches, loops, phi merges, grown
// operand webs. The source evolves in epochs: epoch 0 is a seed
// corpus (exhaustive prefix plus any caller-provided functions), and
// each later epoch mutates the corpus members that showed something
// new — a refuted verdict, a pass combination, or a behaviour-set
// digest not seen before.
//
// Everything is deterministic by construction. Candidate i of epoch e
// is produced by an rng seeded with splitmix64(Seed, e, i) from a
// parent chosen by i's position alone; corpus admission replays the
// campaign's feedback in (shard, index) order; and the campaign only
// advances the source at epoch barriers. The same Seed therefore
// yields the same candidates, findings and corpus for every worker
// count — the property the CI determinism gate (workers 2 vs 8)
// checks.

// MutationConfig configures a MutationSource.
type MutationConfig struct {
	// Seed is the campaign RNG seed; every mutation derives from it.
	Seed int64
	// Gen shapes the seed corpus and the value universe: its Width is
	// the integer width mutants compute in, its opcode menu is the
	// instruction set mutations draw from, and its first SeedFuncs
	// exhaustive candidates become epoch 0.
	Gen Config
	// Mode is the IR dialect mutants must verify under (VerifyLegacy
	// admits undef constants inherited from legacy seeds).
	Mode ir.VerifyMode
	// SeedFuncs bounds the exhaustive prefix seeding epoch 0 (default
	// 64).
	SeedFuncs int
	// Seeds are extra seed functions (e.g. a corpus loaded from a
	// previous run); they precede the exhaustive prefix in epoch 0.
	Seeds []*ir.Func
	// Epochs is the total number of epochs including the seed epoch
	// (default 4).
	Epochs int
	// PerEpoch is how many mutants each post-seed epoch checks
	// (default 256).
	PerEpoch int
	// Shards splits each epoch's candidate list for the worker pool
	// (default 8). Purely a parallelism knob: the candidate list is
	// fixed before the epoch runs, so the shard count never changes
	// what is checked.
	Shards int
}

const (
	// mutCorpusCap bounds the corpus FIFO.
	mutCorpusCap = 128
	// mutMaxBlocks and mutMaxInstrs cap mutant growth.
	mutMaxBlocks = 6
	mutMaxInstrs = 24
	// mutSteps is how many mutations each mutant applies to its parent
	// (steps that fail the verifier are skipped, not retried).
	mutSteps = 3
)

// DefaultMutationConfig returns the standard mutation campaign shape
// over the §6 generator defaults.
func DefaultMutationConfig(seed int64) MutationConfig {
	return MutationConfig{Seed: seed, Gen: DefaultConfig(3)}
}

// MutationSource is the coverage-guided Evolving workload.
type MutationSource struct {
	cfg MutationConfig
	ty  ir.Type

	tasks  []*ir.Func // current epoch's candidates, global order
	starts []int      // shard i covers tasks[starts[i]:starts[i+1]]

	corpus   []*ir.Func
	coverage map[string]struct{}
}

// NewMutationSource builds the source and its epoch-0 seed tasks.
func NewMutationSource(cfg MutationConfig) *MutationSource {
	if cfg.SeedFuncs <= 0 {
		cfg.SeedFuncs = 64
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 4
	}
	if cfg.PerEpoch <= 0 {
		cfg.PerEpoch = 256
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.Gen.Width == 0 {
		cfg.Gen = DefaultConfig(3)
	}
	s := &MutationSource{
		cfg:      cfg,
		ty:       ir.Int(cfg.Gen.Width),
		coverage: make(map[string]struct{}),
	}
	var seeds []*ir.Func
	for _, f := range cfg.Seeds {
		seeds = append(seeds, ir.CloneFunc(f))
	}
	gen := cfg.Gen
	gen.MaxFuncs = cfg.SeedFuncs
	Exhaustive(gen, func(f *ir.Func) bool {
		seeds = append(seeds, f)
		return true
	})
	s.setTasks(seeds)
	return s
}

func (s *MutationSource) setTasks(tasks []*ir.Func) {
	s.tasks = tasks
	n := s.cfg.Shards
	s.starts = make([]int, n+1)
	for i := 0; i <= n; i++ {
		s.starts[i] = i * len(tasks) / n
	}
}

// Name implements Source.
func (s *MutationSource) Name() string { return "mutate" }

// Shards implements Source.
func (s *MutationSource) Shards() int { return s.cfg.Shards }

// Budget implements Source: epochs are sized by PerEpoch, not by a
// campaign-wide candidate budget.
func (s *MutationSource) Budget() int { return 0 }

// Capacities implements Source.
func (s *MutationSource) Capacities(limit int) []int { return nil }

// Enumerate implements Source: shard i streams its contiguous slice of
// the epoch's candidate list.
func (s *MutationSource) Enumerate(shard, max int, emit func(*ir.Func) bool) (int, bool) {
	lo, hi := s.starts[shard], s.starts[shard+1]
	n := 0
	for _, f := range s.tasks[lo:hi] {
		if max > 0 && n >= max {
			return n, true
		}
		n++
		if !emit(f) {
			return n, true
		}
	}
	return n, false
}

// Epochs implements Evolving.
func (s *MutationSource) Epochs() int { return s.cfg.Epochs }

// coverageKey renders what made a candidate interesting: its
// behaviour-set digest, its verdict, and the set of passes that fired
// on it. Two candidates with equal keys exercised the pipeline the
// same way.
func coverageKey(f Feedback) string {
	key := fmt.Sprintf("%016x|%t|%t", f.Behavior, f.Refuted, f.Inconclusive)
	for _, c := range f.ChangedBy {
		key += "|" + c
	}
	return key
}

// Advance implements Evolving: admit this epoch's interesting
// candidates into the corpus, then breed the next epoch's mutants.
func (s *MutationSource) Advance(epoch int, fb []Feedback) {
	for _, f := range fb {
		key := coverageKey(f)
		_, seen := s.coverage[key]
		if !seen {
			s.coverage[key] = struct{}{}
		}
		if f.Refuted || !seen {
			s.corpus = append(s.corpus, s.tasks[s.starts[f.Shard]+f.Index])
			if len(s.corpus) > mutCorpusCap {
				s.corpus = s.corpus[1:] // FIFO: retire the oldest
			}
		}
	}
	if epoch+1 >= s.cfg.Epochs {
		return
	}
	parents := s.corpus
	if len(parents) == 0 {
		parents = s.tasks // degenerate epoch: re-mutate the seeds
	}
	next := make([]*ir.Func, s.cfg.PerEpoch)
	for i := range next {
		rng := rand.New(rand.NewSource(int64(splitmix64(uint64(s.cfg.Seed), uint64(epoch+1), uint64(i)))))
		next[i] = s.mutate(parents[i%len(parents)], rng)
	}
	s.setTasks(next)
}

// Corpus returns the current corpus functions (for -corpus saving).
func (s *MutationSource) Corpus() []*ir.Func { return s.corpus }

// CorpusStats implements CorpusReporter.
func (s *MutationSource) CorpusStats() CorpusStats {
	return CorpusStats{Size: len(s.corpus), Coverage: len(s.coverage)}
}

// splitmix64 mixes (seed, epoch, index) into an rng stream seed, so
// every mutant draws from an independent deterministic stream no
// matter how candidates are resliced across shards.
func splitmix64(vals ...uint64) uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		x ^= v + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		x = z ^ (z >> 31)
	}
	return x
}

// mutate derives one mutant: mutSteps random edits, each kept only when
// the result passes the dialect verifier, SSA dominance checking, and
// the growth caps. Failed steps are skipped (the rng advances
// identically either way, preserving determinism).
func (s *MutationSource) mutate(parent *ir.Func, rng *rand.Rand) *ir.Func {
	cand := ir.CloneFunc(parent)
	for step := 0; step < mutSteps; step++ {
		next := ir.CloneFunc(cand)
		if !s.applyMutator(next, rng) {
			continue
		}
		if len(next.Blocks) > mutMaxBlocks || next.NumInstrs() > mutMaxInstrs {
			continue
		}
		if ir.Verify(next, s.cfg.Mode) != nil || analysis.VerifySSA(next) != nil {
			continue
		}
		cand = next
	}
	return cand
}

// consts returns the small constant pool for ty.
func (s *MutationSource) consts(ty ir.Type) []ir.Value {
	max := uint64(1) << ty.Bits
	if max > 4 {
		max = 4
	}
	var vs []ir.Value
	for v := uint64(0); v < max; v++ {
		vs = append(vs, ir.ConstInt(ty, v))
	}
	vs = append(vs, ir.ConstInt(ty, ir.TruncBits(^uint64(0), uint(ty.Bits))))
	return vs
}

// valuesAt returns values of type ty that dominate position (b, idx):
// parameters, constants, b's own defs before idx, and — when b is not
// the entry block — every entry-block def (the entry dominates all
// reachable blocks). Always non-empty for integer ty.
func valuesAt(f *ir.Func, b *ir.Block, idx int, ty ir.Type, consts []ir.Value) []ir.Value {
	var vs []ir.Value
	for _, p := range f.Params {
		if p.Ty.Equal(ty) {
			vs = append(vs, p)
		}
	}
	for _, c := range consts {
		if c.Type().Equal(ty) {
			vs = append(vs, c)
		}
	}
	entry := f.Entry()
	if b != entry {
		for _, in := range entry.Instrs() {
			if !in.Op.IsTerminator() && in.Ty.Equal(ty) {
				vs = append(vs, in)
			}
		}
	}
	for i, in := range b.Instrs() {
		if i >= idx {
			break
		}
		if !in.Op.IsTerminator() && in.Ty.Equal(ty) {
			vs = append(vs, in)
		}
	}
	return vs
}

func pickVal(rng *rand.Rand, vs []ir.Value) ir.Value {
	return vs[rng.Intn(len(vs))]
}

// applyMutator applies one randomly chosen structural edit in place,
// reporting whether anything changed. Every edit keeps dominance by
// construction — operands are drawn from valuesAt — but the caller
// still re-verifies, so a buggy mutator step degrades to a no-op
// rather than a corrupt candidate.
func (s *MutationSource) applyMutator(f *ir.Func, rng *rand.Rand) bool {
	switch rng.Intn(8) {
	case 0, 1: // weighted: growing the dataflow web is the bread and butter
		return s.addInstr(f, rng)
	case 2:
		return s.replaceOperand(f, rng)
	case 3:
		return s.tweakPred(f, rng)
	case 4:
		return s.toggleAttr(f, rng)
	case 5:
		return s.splitDiamond(f, rng)
	case 6:
		return s.addLoop(f, rng)
	case 7:
		return s.deleteOne(f, rng)
	}
	return false
}

// addInstr inserts one new instruction at a random program point and,
// half the time, rewires a later same-block operand onto it so the new
// value is live.
func (s *MutationSource) addInstr(f *ir.Func, rng *rand.Rand) bool {
	b := f.Blocks[rng.Intn(len(f.Blocks))]
	instrs := b.Instrs()
	if b.Terminator() == nil {
		return false
	}
	lo := len(b.Phis())
	hi := len(instrs) - 1 // insert at worst right before the terminator
	idx := lo + rng.Intn(hi-lo+1)
	cpool := s.consts(s.ty)
	vals := valuesAt(f, b, idx, s.ty, cpool)
	if len(vals) == 0 {
		return false
	}
	ops := s.cfg.Gen.opcodes()
	op := ops[rng.Intn(len(ops))]
	var in *ir.Instr
	switch op {
	case ir.OpICmp:
		in = ir.NewInstr(ir.OpICmp, ir.I1, pickVal(rng, vals), pickVal(rng, vals))
		in.Pred = ir.Pred(rng.Intn(10))
	case ir.OpSelect:
		conds := valuesAt(f, b, idx, ir.I1, s.consts(ir.I1))
		if len(conds) == 0 {
			return false
		}
		in = ir.NewInstr(ir.OpSelect, s.ty, pickVal(rng, conds), pickVal(rng, vals), pickVal(rng, vals))
	case ir.OpFreeze:
		in = ir.NewInstr(ir.OpFreeze, s.ty, pickVal(rng, vals))
	default:
		in = ir.NewInstr(op, s.ty, pickVal(rng, vals), pickVal(rng, vals))
		switch op {
		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpShl:
			if rng.Intn(3) == 0 {
				in.Attrs = ir.NSW
			} else if rng.Intn(3) == 0 {
				in.Attrs = ir.NUW
			}
		case ir.OpUDiv, ir.OpSDiv, ir.OpLShr, ir.OpAShr:
			if rng.Intn(4) == 0 {
				in.Attrs = ir.Exact
			}
		}
	}
	in.Nam = f.GenName("m")
	b.InsertBefore(in, instrs[idx])
	if rng.Intn(2) == 0 {
		// Rewire one later same-block operand of matching type onto the
		// new value (the new def dominates everything after idx in b).
		after := b.Instrs()
		for _, cand := range after[idx+1:] {
			if cand.Op == ir.OpPhi {
				continue
			}
			for ai := 0; ai < cand.NumArgs(); ai++ {
				if cand.Arg(ai).Type().Equal(in.Ty) && rng.Intn(2) == 0 {
					cand.SetArg(ai, in)
					return true
				}
			}
		}
	}
	return true
}

// replaceOperand swaps one operand for another dominance-safe value of
// the same type. Phi incomings are restricted to parameters and
// constants (a phi's operand must dominate the incoming edge, not the
// phi itself, so block-local reasoning does not apply).
func (s *MutationSource) replaceOperand(f *ir.Func, rng *rand.Rand) bool {
	type slot struct {
		in  *ir.Instr
		arg int
	}
	var slots []slot
	for _, b := range f.Blocks {
		for _, in := range b.Instrs() {
			for ai := 0; ai < in.NumArgs(); ai++ {
				if in.Arg(ai).Type().IsInt() {
					slots = append(slots, slot{in, ai})
				}
			}
		}
	}
	if len(slots) == 0 {
		return false
	}
	sl := slots[rng.Intn(len(slots))]
	ty := sl.in.Arg(sl.arg).Type()
	var pool []ir.Value
	if sl.in.Op == ir.OpPhi {
		for _, p := range f.Params {
			if p.Ty.Equal(ty) {
				pool = append(pool, p)
			}
		}
		pool = append(pool, s.consts(ty)...)
	} else {
		b := sl.in.Parent()
		idx := 0
		for i, in := range b.Instrs() {
			if in == sl.in {
				idx = i
				break
			}
		}
		pool = valuesAt(f, b, idx, ty, s.consts(ty))
	}
	if len(pool) == 0 {
		return false
	}
	nv := pickVal(rng, pool)
	if nv == sl.in.Arg(sl.arg) {
		return false
	}
	sl.in.SetArg(sl.arg, nv)
	return true
}

// tweakPred rewrites one icmp's predicate.
func (s *MutationSource) tweakPred(f *ir.Func, rng *rand.Rand) bool {
	var cmps []*ir.Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs() {
			if in.Op == ir.OpICmp {
				cmps = append(cmps, in)
			}
		}
	}
	if len(cmps) == 0 {
		return false
	}
	in := cmps[rng.Intn(len(cmps))]
	np := ir.Pred(rng.Intn(10))
	if np == in.Pred {
		return false
	}
	in.Pred = np
	return true
}

// toggleAttr flips a poison-generating attribute on one arithmetic
// instruction — the cheapest way to move a candidate across the
// poison/no-poison boundary the paper's semantics is about.
func (s *MutationSource) toggleAttr(f *ir.Func, rng *rand.Rand) bool {
	type slot struct {
		in *ir.Instr
		a  ir.Attrs
	}
	var slots []slot
	for _, b := range f.Blocks {
		for _, in := range b.Instrs() {
			switch in.Op {
			case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpShl:
				slots = append(slots, slot{in, ir.NSW}, slot{in, ir.NUW})
			case ir.OpUDiv, ir.OpSDiv, ir.OpLShr, ir.OpAShr:
				slots = append(slots, slot{in, ir.Exact})
			}
		}
	}
	if len(slots) == 0 {
		return false
	}
	sl := slots[rng.Intn(len(slots))]
	sl.in.Attrs ^= sl.a
	return true
}

// splitDiamond rewrites one returning block into an if/else diamond
// with a phi merge: `ret x` becomes a conditional branch to two fresh
// arms joining in a phi over x and another dominating value.
func (s *MutationSource) splitDiamond(f *ir.Func, rng *rand.Rand) bool {
	var rets []*ir.Block
	for _, b := range f.Blocks {
		if t := b.Terminator(); t != nil && t.Op == ir.OpRet && t.NumArgs() == 1 && t.Arg(0).Type().Equal(s.ty) {
			rets = append(rets, b)
		}
	}
	if len(rets) == 0 {
		return false
	}
	b := rets[rng.Intn(len(rets))]
	ret := b.Terminator()
	x := ret.Arg(0)
	idx := len(b.Instrs()) - 1
	cpool := s.consts(s.ty)
	vals := valuesAt(f, b, idx, s.ty, cpool)
	y := pickVal(rng, vals)
	cmp := ir.NewInstr(ir.OpICmp, ir.I1, pickVal(rng, vals), pickVal(rng, vals))
	cmp.Pred = ir.Pred(rng.Intn(10))
	cmp.Nam = f.GenName("m")
	b.Erase(ret) // releases x's use; x stays dominating b's end

	t := f.NewBlock(f.GenName("bt"))
	e := f.NewBlock(f.GenName("be"))
	j := f.NewBlock(f.GenName("bj"))
	b.Append(cmp)
	br := ir.NewInstr(ir.OpBr, ir.Void, cmp)
	br.AddBlockArg(t)
	br.AddBlockArg(e)
	b.Append(br)
	for _, arm := range []*ir.Block{t, e} {
		ab := ir.NewInstr(ir.OpBr, ir.Void)
		ab.AddBlockArg(j)
		arm.Append(ab)
	}
	ph := ir.NewInstr(ir.OpPhi, s.ty)
	ph.Nam = f.GenName("m")
	ph.AddPhiIncoming(x, t)
	ph.AddPhiIncoming(y, e)
	j.Append(ph)
	j.Append(ir.NewInstr(ir.OpRet, ir.Void, ph))
	return true
}

// addLoop rewrites one returning block to run a short counted loop
// (trip count ≤ 3) accumulating over the returned value, introducing
// back-edge phis — the structure exhaustive straight-line enumeration
// can never produce.
func (s *MutationSource) addLoop(f *ir.Func, rng *rand.Rand) bool {
	var rets []*ir.Block
	for _, b := range f.Blocks {
		if t := b.Terminator(); t != nil && t.Op == ir.OpRet && t.NumArgs() == 1 && t.Arg(0).Type().Equal(s.ty) {
			rets = append(rets, b)
		}
	}
	if len(rets) == 0 {
		return false
	}
	b := rets[rng.Intn(len(rets))]
	ret := b.Terminator()
	x := ret.Arg(0)
	idx := len(b.Instrs()) - 1
	vals := valuesAt(f, b, idx, s.ty, s.consts(s.ty))
	step := pickVal(rng, vals)
	b.Erase(ret)

	l := f.NewBlock(f.GenName("bl"))
	exit := f.NewBlock(f.GenName("bx"))
	br := ir.NewInstr(ir.OpBr, ir.Void)
	br.AddBlockArg(l)
	b.Append(br)

	i := ir.NewInstr(ir.OpPhi, s.ty)
	i.Nam = f.GenName("m")
	acc := ir.NewInstr(ir.OpPhi, s.ty)
	acc.Nam = f.GenName("m")
	l.Append(i)
	l.Append(acc)
	accNext := ir.NewInstr(ir.OpAdd, s.ty, acc, step)
	accNext.Nam = f.GenName("m")
	l.Append(accNext)
	iNext := ir.NewInstr(ir.OpAdd, s.ty, i, ir.ConstInt(s.ty, 1))
	iNext.Nam = f.GenName("m")
	l.Append(iNext)
	trip := uint64(2 + rng.Intn(2)) // 2 or 3 iterations
	cmp := ir.NewInstr(ir.OpICmp, ir.I1, iNext, ir.ConstInt(s.ty, ir.TruncBits(trip, uint(s.ty.Bits))))
	cmp.Pred = ir.PredULT
	cmp.Nam = f.GenName("m")
	l.Append(cmp)
	lbr := ir.NewInstr(ir.OpBr, ir.Void, cmp)
	lbr.AddBlockArg(l)
	lbr.AddBlockArg(exit)
	l.Append(lbr)
	i.AddPhiIncoming(ir.ConstInt(s.ty, 0), b)
	i.AddPhiIncoming(iNext, l)
	acc.AddPhiIncoming(x, b)
	acc.AddPhiIncoming(accNext, l)
	exit.Append(ir.NewInstr(ir.OpRet, ir.Void, accNext))
	return true
}

// deleteOne removes one non-terminator instruction, patching uses with
// a dominating same-type operand or a zero constant — the shrinking
// counterweight to addInstr, keeping mutant size in equilibrium.
func (s *MutationSource) deleteOne(f *ir.Func, rng *rand.Rand) bool {
	var dels []*ir.Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs() {
			if !in.Op.IsTerminator() && in.Ty.IsInt() {
				dels = append(dels, in)
			}
		}
	}
	if len(dels) == 0 {
		return false
	}
	in := dels[rng.Intn(len(dels))]
	var repl ir.Value
	if in.NumUses() > 0 {
		repl = ir.ConstInt(in.Ty, 0)
		for ai := 0; ai < in.NumArgs(); ai++ {
			if a := in.Arg(ai); a.Type().Equal(in.Ty) && a != ir.Value(in) && in.Op != ir.OpPhi {
				repl = a
				break
			}
		}
	}
	ir.DeleteInstr(in, repl)
	ir.RemoveUnreachableBlocks(f)
	return true
}
