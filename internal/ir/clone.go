package ir

// CloneFunc returns a deep copy of f: fresh blocks, instructions and
// parameters, with all internal references remapped. Constants are
// shared (they are immutable). The clone is detached from any module;
// call instructions keep pointing at the original callees.
//
// Parameters are remapped by Idx and blocks by position, so the only
// table a clone builds is the one for instructions.
func CloneFunc(f *Func) *Func {
	nf := &Func{Nam: f.Nam, RetTy: f.RetTy, nextID: f.nextID}
	nf.Params = make([]*Param, len(f.Params))
	for i, p := range f.Params {
		np := NewParam(p.Nam, p.Ty)
		np.Idx = p.Idx
		nf.Params[i] = np
	}
	nf.Blocks = make([]*Block, len(f.Blocks))
	for i, b := range f.Blocks {
		nf.Blocks[i] = &Block{Nam: b.Nam, parent: nf, instrs: make([]*Instr, 0, len(b.instrs))}
	}
	// First create all instruction shells so forward references (phis)
	// can be remapped.
	imap := make(map[*Instr]*Instr, f.NumInstrs())
	for i, b := range f.Blocks {
		nb := nf.Blocks[i]
		for _, in := range b.instrs {
			ni := &Instr{
				Op:      in.Op,
				Ty:      in.Ty,
				Attrs:   in.Attrs,
				Pred:    in.Pred,
				AllocTy: in.AllocTy,
				Callee:  in.Callee,
				Nam:     in.Nam,
				parent:  nb,
			}
			nb.instrs = append(nb.instrs, ni)
			imap[in] = ni
		}
	}
	// Now wire operands.
	for _, b := range f.Blocks {
		for _, in := range b.instrs {
			ni := imap[in]
			if len(in.args) > 0 {
				ni.args = make([]Value, 0, len(in.args))
			}
			for _, a := range in.args {
				// Constant leaves, and values from outside f, are shared.
				switch x := a.(type) {
				case *Instr:
					if c, ok := imap[x]; ok {
						a = c
					}
				case *Param:
					if x.Idx < len(f.Params) && f.Params[x.Idx] == x {
						a = nf.Params[x.Idx]
					}
				}
				ni.AddArg(a)
			}
			if len(in.blocks) > 0 {
				ni.blocks = make([]*Block, len(in.blocks))
				for i, bb := range in.blocks {
					ni.blocks[i] = cloneOf(f, nf, bb)
				}
			}
		}
	}
	return nf
}

// cloneOf maps a block of f to its clone in nf by position (nil for a
// block outside f). The scan is cheap at the sizes functions have
// here, and it spares every clone a block table.
func cloneOf(f, nf *Func, b *Block) *Block {
	for i, x := range f.Blocks {
		if x == b {
			return nf.Blocks[i]
		}
	}
	return nil
}

// CloneModule deep-copies a module. Call instructions are retargeted to
// the cloned callees; globals are deep-copied too.
func CloneModule(m *Module) *Module {
	nm := NewModule()
	for _, g := range m.Globals {
		ng := &Global{Nam: g.Nam, Size: g.Size, Init: append([]byte(nil), g.Init...)}
		nm.AddGlobal(ng)
	}
	gmap := map[*Global]*Global{}
	for i, g := range m.Globals {
		gmap[g] = nm.Globals[i]
	}
	fmap := map[*Func]*Func{}
	for _, f := range m.Funcs {
		nf := CloneFunc(f)
		nm.AddFunc(nf)
		fmap[f] = nf
	}
	for _, nf := range nm.Funcs {
		nf.ForEachInstr(func(in *Instr) {
			if in.Callee != nil {
				if c, ok := fmap[in.Callee]; ok {
					in.Callee = c
				}
			}
			for i, a := range in.Args() {
				if g, ok := a.(*Global); ok {
					if ng, ok := gmap[g]; ok {
						in.SetArg(i, ng)
					}
				}
			}
		})
	}
	return nm
}
