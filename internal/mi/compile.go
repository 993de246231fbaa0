package mi

import (
	"tameir/internal/ir"
	"tameir/internal/sdag"
	"tameir/internal/target"
)

// CompileModule runs the full backend pipeline over a module:
// IR → SelectionDAG (build, combine) → MachineInstr (select, allocate,
// peephole) → a VX64 program ready for the size model and the simulator.
func CompileModule(mod *ir.Module) (*target.Program, error) {
	prog := &target.Program{}
	for _, g := range mod.Globals {
		prog.Globals = append(prog.Globals, target.GlobalBlob{
			Name: g.Name(), Size: g.Size, Init: append([]byte(nil), g.Init...),
		})
	}
	addrs := target.LayoutGlobals(prog.Globals)
	for _, f := range mod.Funcs {
		fd, err := sdag.Build(mod, f)
		if err != nil {
			return nil, err
		}
		sdag.Combine(fd)
		vf, err := Select(fd, addrs)
		if err != nil {
			return nil, err
		}
		mf, err := Allocate(vf)
		if err != nil {
			return nil, err
		}
		prog.Funcs = append(prog.Funcs, mf)
	}
	Peephole(prog)
	return prog, nil
}
