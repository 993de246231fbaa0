package mi

import (
	"tameir/internal/ir"
	"tameir/internal/sdag"
	"tameir/internal/target"
)

// Options controls optional backend behaviour.
type Options struct {
	// ExpandCMovs lowers conditional moves into branch diamonds — the
	// §5.2 reverse predication, legal without freeze at this level
	// because MI has no poison.
	ExpandCMovs bool
}

// CompileModule runs the full backend pipeline over a module:
// IR → SelectionDAG (build, combine) → MachineInstr (select, allocate,
// peephole) → a VX64 program ready for the size model and the simulator.
func CompileModule(mod *ir.Module) (*target.Program, error) {
	return CompileModuleOpts(mod, Options{})
}

// CompileModuleOpts is CompileModule with backend options.
func CompileModuleOpts(mod *ir.Module, opts Options) (*target.Program, error) {
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
	if opts.ExpandCMovs {
		ExpandCMovs(prog)
	}
	return prog, nil
}
