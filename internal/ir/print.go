package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// The printers append into a caller's buffer instead of going through
// fmt: canonical function text is the memo's key, rendered for every
// function a campaign checks, so its cost is paid per candidate.

// appendIdent appends v's operand spelling (Value.Ident).
func appendIdent(b []byte, v Value) []byte {
	switch v := v.(type) {
	case *Instr:
		return append(append(b, '%'), v.Nam...)
	case *Param:
		return append(append(b, '%'), v.Nam...)
	case *Const:
		return v.appendIdent(b)
	case *VecConst:
		return v.appendIdent(b)
	}
	return append(b, v.Ident()...)
}

// appendTyped appends "ty ident" for an operand.
func appendTyped(b []byte, v Value) []byte {
	b = v.Type().AppendTo(b)
	b = append(b, ' ')
	return appendIdent(b, v)
}

// appendTypedArgs appends "ty ident" for each value operand, separated
// by ", ".
func (in *Instr) appendTypedArgs(b []byte) []byte {
	for i, a := range in.args {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendTyped(b, a)
	}
	return b
}

func appendLabel(b []byte, blk *Block) []byte {
	return append(append(b, "label %"...), blk.Nam...)
}

// String renders the instruction in textual IR syntax (one line, no
// leading indentation).
func (in *Instr) String() string { return string(in.appendTo(nil)) }

func (in *Instr) appendTo(b []byte) []byte {
	if !in.Ty.IsVoid() {
		b = append(append(b, '%'), in.Nam...)
		b = append(b, " = "...)
	}
	switch {
	case in.Op.IsBinop():
		b = append(append(b, in.Op.String()...), ' ')
		b = in.Attrs.appendTo(b)
		b = appendTyped(b, in.Arg(0))
		b = append(b, ", "...)
		b = appendIdent(b, in.Arg(1))
	case in.Op == OpICmp:
		b = append(b, "icmp "...)
		b = append(append(b, in.Pred.String()...), ' ')
		b = appendTyped(b, in.Arg(0))
		b = append(b, ", "...)
		b = appendIdent(b, in.Arg(1))
	case in.Op == OpPhi:
		b = append(b, "phi "...)
		b = append(in.Ty.AppendTo(b), ' ')
		for i := 0; i < in.NumArgs(); i++ {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = append(b, "[ "...)
			b = appendIdent(b, in.Arg(i))
			b = append(b, ", %"...)
			b = append(b, in.BlockArg(i).Nam...)
			b = append(b, " ]"...)
		}
	case in.Op == OpSelect, in.Op == OpFreeze, in.Op == OpStore,
		in.Op == OpExtractElement, in.Op == OpInsertElement:
		b = append(append(b, in.Op.String()...), ' ')
		b = in.appendTypedArgs(b)
	case in.Op == OpAlloca:
		b = append(b, "alloca "...)
		b = append(in.AllocTy.AppendTo(b), ", "...)
		b = appendTyped(b, in.Arg(0))
	case in.Op == OpLoad:
		b = append(b, "load "...)
		b = append(in.Ty.AppendTo(b), ", "...)
		b = appendTyped(b, in.Arg(0))
	case in.Op == OpGEP:
		b = append(b, "getelementptr "...)
		if in.Attrs&NSW != 0 {
			b = append(b, "inbounds "...)
		}
		b = append(in.AllocTy.AppendTo(b), ", "...)
		b = in.appendTypedArgs(b)
	case in.Op.IsCast():
		b = append(append(b, in.Op.String()...), ' ')
		b = appendTyped(b, in.Arg(0))
		b = append(b, " to "...)
		b = in.Ty.AppendTo(b)
	case in.Op == OpBr && in.NumArgs() == 0:
		b = appendLabel(append(b, "br "...), in.BlockArg(0))
	case in.Op == OpBr:
		b = appendTyped(append(b, "br "...), in.Arg(0))
		b = appendLabel(append(b, ", "...), in.BlockArg(0))
		b = appendLabel(append(b, ", "...), in.BlockArg(1))
	case in.Op == OpRet && in.NumArgs() == 0:
		b = append(b, "ret void"...)
	case in.Op == OpRet:
		b = appendTyped(append(b, "ret "...), in.Arg(0))
	case in.Op == OpUnreachable:
		b = append(b, "unreachable"...)
	case in.Op == OpCall:
		b = append(b, "call "...)
		b = append(in.Ty.AppendTo(b), " @"...)
		b = append(append(b, in.Callee.Nam...), '(')
		b = append(in.appendTypedArgs(b), ')')
	default:
		b = append(b, "<unknown op "...)
		b = append(strconv.AppendUint(b, uint64(in.Op), 10), '>')
	}
	return b
}

// String renders the function in textual IR syntax.
func (f *Func) String() string { return string(f.AppendTo(make([]byte, 0, 256))) }

// AppendTo appends String's rendering of the function to b.
func (f *Func) AppendTo(b []byte) []byte {
	b = append(b, "define "...)
	b = append(f.RetTy.AppendTo(b), " @"...)
	b = append(append(b, f.Nam...), '(')
	for i, p := range f.Params {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(p.Ty.AppendTo(b), " %"...)
		b = append(b, p.Nam...)
	}
	b = append(b, ") {\n"...)
	for _, blk := range f.Blocks {
		b = append(append(b, blk.Nam...), ":\n"...)
		for _, in := range blk.instrs {
			b = append(in.appendTo(append(b, "  "...)), '\n')
		}
	}
	return append(b, "}\n"...)
}

// String renders the module: globals followed by functions.
func (m *Module) String() string {
	var b strings.Builder
	for _, g := range m.Globals {
		fmt.Fprintf(&b, "@%s = global %d", g.Nam, g.Size)
		if len(g.Init) > 0 {
			b.WriteString(" init")
			for _, by := range g.Init {
				fmt.Fprintf(&b, " %d", by)
			}
		}
		b.WriteByte('\n')
	}
	for i, f := range m.Funcs {
		if i > 0 || len(m.Globals) > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(f.String())
	}
	return b.String()
}
