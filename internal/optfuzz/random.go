package optfuzz

import (
	"fmt"
	"math/rand"

	"tameir/internal/ir"
)

// RandomConfig shapes the randomized CFG generator.
type RandomConfig struct {
	Width       uint
	NumParams   int
	AllowUndef  bool
	AllowPoison bool
	AllowFreeze bool
}

// Random functions have at most randomMaxBlocks blocks of at most
// randomMaxInstrs instructions each.
const (
	randomMaxBlocks = 4
	randomMaxInstrs = 3
)

// DefaultRandomConfig is sized for quick validator runs.
func DefaultRandomConfig() RandomConfig {
	return RandomConfig{
		Width:       2,
		NumParams:   2,
		AllowUndef:  true,
		AllowFreeze: true,
	}
}

// Random generates a random function with control flow: a DAG of
// blocks with conditional branches and phi nodes at merge points
// (loops are avoided so refinement enumeration stays small).
func Random(rng *rand.Rand, cfg RandomConfig) *ir.Func {
	ty := ir.Int(cfg.Width)
	params := make([]*ir.Param, cfg.NumParams)
	for i := range params {
		params[i] = ir.NewParam(fmt.Sprintf("p%d", i), ty)
	}
	f := ir.NewFunc("rf", ty, params...)

	nblocks := 1 + rng.Intn(randomMaxBlocks)
	blocks := make([]*ir.Block, nblocks)
	for i := range blocks {
		blocks[i] = f.NewBlock(fmt.Sprintf("b%d", i))
	}

	// Values available per block: parameters and constants everywhere;
	// instruction results only in the defining block and blocks it
	// branches to directly (kept simple and always dominance-correct:
	// we only use same-block defs plus function-level values).
	baseVals := []ir.Value{}
	for _, p := range params {
		baseVals = append(baseVals, p)
	}
	for v := uint64(0); v < 1<<cfg.Width; v++ {
		baseVals = append(baseVals, ir.ConstInt(ty, v))
	}
	if cfg.AllowUndef {
		baseVals = append(baseVals, ir.NewUndef(ty))
	}
	if cfg.AllowPoison {
		baseVals = append(baseVals, ir.NewPoison(ty))
	}

	binops := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpUDiv, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl}

	for bi, b := range blocks {
		local := append([]ir.Value(nil), baseVals...)
		pick := func() ir.Value { return local[rng.Intn(len(local))] }
		n := rng.Intn(randomMaxInstrs + 1)
		for k := 0; k < n; k++ {
			var in *ir.Instr
			switch r := rng.Intn(10); {
			case r < 6:
				op := binops[rng.Intn(len(binops))]
				in = ir.NewInstr(op, ty, pick(), pick())
				if rng.Intn(3) == 0 && (op == ir.OpAdd || op == ir.OpSub || op == ir.OpMul) {
					in.Attrs = ir.NSW
				}
			case r < 8:
				cmp := ir.NewInstr(ir.OpICmp, ir.I1, pick(), pick())
				cmp.Pred = ir.Pred(rng.Intn(10))
				cmp.Nam = f.GenName("c")
				b.Append(cmp)
				in = ir.NewInstr(ir.OpSelect, ty, cmp, pick(), pick())
			case cfg.AllowFreeze:
				in = ir.NewInstr(ir.OpFreeze, ty, pick())
			default:
				in = ir.NewInstr(ir.OpAdd, ty, pick(), pick())
			}
			in.Nam = f.GenName("v")
			b.Append(in)
			local = append(local, in)
		}
		// Terminator: branch forward or return.
		if bi == nblocks-1 || rng.Intn(3) == 0 {
			ret := ir.NewInstr(ir.OpRet, ir.Void, local[rng.Intn(len(local))])
			b.Append(ret)
			continue
		}
		// Forward edges only (acyclic).
		t1 := blocks[bi+1+rng.Intn(nblocks-bi-1)]
		if rng.Intn(2) == 0 {
			br := ir.NewInstr(ir.OpBr, ir.Void)
			br.AddBlockArg(t1)
			b.Append(br)
		} else {
			t2 := blocks[bi+1+rng.Intn(nblocks-bi-1)]
			cmp := ir.NewInstr(ir.OpICmp, ir.I1, local[rng.Intn(len(local))], local[rng.Intn(len(local))])
			cmp.Pred = ir.Pred(rng.Intn(10))
			cmp.Nam = f.GenName("bc")
			// Insert before the terminator we are about to add.
			b.Append(cmp)
			br := ir.NewInstr(ir.OpBr, ir.Void, cmp)
			br.AddBlockArg(t1)
			br.AddBlockArg(t2)
			b.Append(br)
		}
	}
	// Blocks with no predecessors (other than entry) are unreachable;
	// keep them — passes must cope. But unreachable blocks may lack
	// proper phi structure; our generator adds no phis, so the
	// function is structurally valid as-is.
	return f
}
