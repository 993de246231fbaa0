package minc

import (
	"fmt"

	"tameir/internal/ir"
)

// Parse parses a MinC translation unit.
func Parse(src string) (*Program, error) {
	lx, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{lx: lx, prog: &Program{Structs: map[string]*StructType{}}}
	if err := p.parseProgram(); err != nil {
		return nil, err
	}
	return p.prog, nil
}

type parser struct {
	lx   *lexer
	prog *Program
}

func (p *parser) errf(t token, format string, args ...any) error {
	return fmt.Errorf("minc: line %d: %s", t.line, fmt.Sprintf(format, args...))
}

func (p *parser) expect(text string) (token, error) {
	t := p.lx.next()
	if t.text != text {
		return t, p.errf(t, "expected %q, got %q", text, t.text)
	}
	return t, nil
}

func (p *parser) accept(text string) bool {
	if p.lx.peek().text == text {
		p.lx.next()
		return true
	}
	return false
}

// isTypeStart reports whether the next tokens begin a type.
func (p *parser) isTypeStart() bool {
	t := p.lx.peek()
	if t.kind != tKeyword {
		return false
	}
	switch t.text {
	case "char", "short", "int", "long", "unsigned", "signed", "void", "struct":
		return true
	}
	return false
}

// parseBaseType parses a type name without declarator suffixes.
func (p *parser) parseBaseType() (*CType, error) {
	t := p.lx.next()
	unsigned := false
	if t.text == "unsigned" || t.text == "signed" {
		unsigned = t.text == "unsigned"
		if p.lx.peek().kind == tKeyword {
			switch p.lx.peek().text {
			case "char", "short", "int", "long":
				t = p.lx.next()
			default:
				return &CType{Kind: CInt, Bits: 32, Unsigned: unsigned}, nil
			}
		} else {
			return &CType{Kind: CInt, Bits: 32, Unsigned: unsigned}, nil
		}
	}
	var base *CType
	switch t.text {
	case "void":
		base = TyVoid
	case "char":
		base = &CType{Kind: CInt, Bits: 8, Unsigned: unsigned}
	case "short":
		base = &CType{Kind: CInt, Bits: 16, Unsigned: unsigned}
	case "int":
		base = &CType{Kind: CInt, Bits: 32, Unsigned: unsigned}
	case "long":
		if p.lx.peek().text == "long" {
			p.lx.next()
		}
		base = &CType{Kind: CInt, Bits: 64, Unsigned: unsigned}
	case "struct":
		nameTok := p.lx.next()
		if nameTok.kind != tIdent {
			return nil, p.errf(nameTok, "expected struct name")
		}
		if p.lx.peek().text == "{" {
			st, err := p.parseStructBody(nameTok.text)
			if err != nil {
				return nil, err
			}
			p.prog.Structs[nameTok.text] = st
			base = &CType{Kind: CStruct, Struct: st}
		} else {
			st, ok := p.prog.Structs[nameTok.text]
			if !ok {
				return nil, p.errf(nameTok, "unknown struct %q", nameTok.text)
			}
			base = &CType{Kind: CStruct, Struct: st}
		}
	default:
		return nil, p.errf(t, "expected type, got %q", t.text)
	}
	for p.accept("*") {
		base = Ptr(base)
	}
	return base, nil
}

// parseStructBody parses "{ fields }" and lays out the struct.
func (p *parser) parseStructBody(name string) (*StructType, error) {
	if _, err := p.expect("{"); err != nil {
		return nil, err
	}
	st := &StructType{Name: name}
	var off uint32
	// Bit-field packing state: current unit offset/width and next bit.
	unitOff := uint32(0)
	unitBits := uint(0)
	nextBit := uint(0)
	for !p.accept("}") {
		fty, err := p.parseBaseType()
		if err != nil {
			return nil, err
		}
		for {
			nameTok := p.lx.next()
			if nameTok.kind != tIdent {
				return nil, p.errf(nameTok, "expected field name")
			}
			f := Field{Name: nameTok.Name(), Ty: fty}
			at := nameTok // where a struct over the size limit is reported
			if p.accept(":") {
				wTok := p.lx.next()
				if wTok.kind != tNumber || wTok.num == 0 || fty.Kind != CInt || wTok.num > uint64(fty.Bits) {
					return nil, p.errf(wTok, "bad bit-field width")
				}
				w := uint(wTok.num)
				// Start a new unit if the current one is of another
				// width or out of room.
				if unitBits != fty.Bits || nextBit+w > unitBits {
					off = align(off, fty.Size())
					unitOff = off
					unitBits = fty.Bits
					nextBit = 0
					off += fty.Size()
				}
				f.IsBitfield = true
				f.Offset = unitOff
				f.BitOff = nextBit
				f.BitWidth = w
				nextBit += w
			} else {
				unitBits = 0 // close any open bit-field unit
				if p.accept("[") {
					at = p.lx.next()
					if f.Ty, err = p.arrayType(fty, at); err != nil {
						return nil, err
					}
					if _, err := p.expect("]"); err != nil {
						return nil, err
					}
				}
				al := f.Ty.Size()
				if f.Ty.Kind == CArray {
					al = f.Ty.Elem.Size()
				}
				off = align(off, al)
				f.Offset = off
				off += f.Ty.Size()
			}
			// Every field is within the limit, so off cannot wrap.
			if off > ir.MaxGlobalSize {
				return nil, p.errf(at, "struct %s exceeds the %d-byte object size limit", name, ir.MaxGlobalSize)
			}
			st.Fields = append(st.Fields, f)
			if !p.accept(",") {
				break
			}
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	st.Size = align(off, 4)
	if st.Size == 0 {
		st.Size = 4
	}
	return st, nil
}

// arrayType returns the type of an array of elem whose length is
// lenTok. A zero length, or one that makes the array larger than the
// largest object the IR holds (ir.MaxGlobalSize), is an error at
// lenTok; the bound keeps every size within uint32.
func (p *parser) arrayType(elem *CType, lenTok token) (*CType, error) {
	if lenTok.kind != tNumber || lenTok.num == 0 {
		return nil, p.errf(lenTok, "bad array length")
	}
	if lenTok.num > ir.MaxGlobalSize/max(uint64(elem.Size()), 1) {
		return nil, p.errf(lenTok, "array %s[%s] exceeds the %d-byte object size limit", elem, lenTok.text, ir.MaxGlobalSize)
	}
	return &CType{Kind: CArray, Elem: elem, Len: uint32(lenTok.num)}, nil
}

func align(off, a uint32) uint32 {
	if a == 0 {
		a = 1
	}
	return (off + a - 1) &^ (a - 1)
}

// Name returns the token's identifier text.
func (t token) Name() string { return t.text }

func (p *parser) parseProgram() error {
	for {
		if p.lx.peek().kind == tEOF {
			return nil
		}
		ty, err := p.parseBaseType()
		if err != nil {
			return err
		}
		// Bare "struct S { ... };".
		if p.accept(";") {
			continue
		}
		nameTok := p.lx.next()
		if nameTok.kind != tIdent {
			return p.errf(nameTok, "expected name, got %q", nameTok.text)
		}
		if p.lx.peek().text == "(" {
			fn, err := p.parseFunc(ty, nameTok)
			if err != nil {
				return err
			}
			p.prog.Funcs = append(p.prog.Funcs, fn)
			continue
		}
		g, err := p.parseGlobal(ty, nameTok)
		if err != nil {
			return err
		}
		p.prog.Globals = append(p.prog.Globals, g)
	}
}

func (p *parser) parseGlobal(ty *CType, nameTok token) (*GlobalDecl, error) {
	g := &GlobalDecl{Name: nameTok.text, Ty: ty, Line: nameTok.line}
	if p.accept("[") {
		var err error
		if g.Ty, err = p.arrayType(ty, p.lx.next()); err != nil {
			return nil, err
		}
		if _, err := p.expect("]"); err != nil {
			return nil, err
		}
	}
	if p.accept("=") {
		if p.accept("{") {
			for !p.accept("}") {
				if len(g.Init) > 0 {
					if _, err := p.expect(","); err != nil {
						return nil, err
					}
				}
				v, err := p.parseConstNum()
				if err != nil {
					return nil, err
				}
				g.Init = append(g.Init, v)
			}
		} else {
			v, err := p.parseConstNum()
			if err != nil {
				return nil, err
			}
			g.Init = []uint64{v}
		}
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	return g, nil
}

func (p *parser) parseConstNum() (uint64, error) {
	neg := p.accept("-")
	t := p.lx.next()
	if t.kind != tNumber {
		return 0, p.errf(t, "expected constant")
	}
	if neg {
		return uint64(-int64(t.num)), nil
	}
	return t.num, nil
}

func (p *parser) parseFunc(ret *CType, nameTok token) (*FuncDecl, error) {
	fn := &FuncDecl{Name: nameTok.text, Ret: ret, Line: nameTok.line}
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	if p.lx.peek().text == "void" && p.lx.peek2().text == ")" {
		p.lx.next()
	}
	for !p.accept(")") {
		if len(fn.Params) > 0 {
			if _, err := p.expect(","); err != nil {
				return nil, err
			}
		}
		pty, err := p.parseBaseType()
		if err != nil {
			return nil, err
		}
		pn := p.lx.next()
		if pn.kind != tIdent {
			return nil, p.errf(pn, "expected parameter name")
		}
		fn.Params = append(fn.Params, CParam{Name: pn.text, Ty: pty})
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *parser) parseBlock() (*Block, error) {
	if _, err := p.expect("{"); err != nil {
		return nil, err
	}
	b := &Block{}
	for !p.accept("}") {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	return b, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.lx.peek()
	switch {
	case t.text == "{":
		return p.parseBlock()
	case t.text == "if":
		p.lx.next()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		st := &If{Cond: cond, Then: then}
		if p.accept("else") {
			els, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			st.Else = els
		}
		return st, nil
	case t.text == "while":
		p.lx.next()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &While{Cond: cond, Body: body}, nil
	case t.text == "for":
		p.lx.next()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		var init Stmt
		if !p.accept(";") {
			s, err := p.parseSimpleStmt()
			if err != nil {
				return nil, err
			}
			init = s
			if _, err := p.expect(";"); err != nil {
				return nil, err
			}
		}
		var cond Expr
		if !p.accept(";") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			cond = e
			if _, err := p.expect(";"); err != nil {
				return nil, err
			}
		}
		var post Stmt
		if p.lx.peek().text != ")" {
			s, err := p.parseSimpleStmt()
			if err != nil {
				return nil, err
			}
			post = s
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &For{Init: init, Cond: cond, Post: post, Body: body}, nil
	case t.text == "return":
		p.lx.next()
		st := &Return{Line: t.line}
		if !p.accept(";") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.E = e
			if _, err := p.expect(";"); err != nil {
				return nil, err
			}
		}
		return st, nil
	case t.text == "break":
		p.lx.next()
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return &BreakStmt{Line: t.line}, nil
	case t.text == "continue":
		p.lx.next()
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return &ContinueStmt{Line: t.line}, nil
	case t.text == ";":
		p.lx.next()
		return &Block{}, nil
	default:
		s, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return s, nil
	}
}

// parseSimpleStmt parses a declaration or expression statement (no
// trailing semicolon).
func (p *parser) parseSimpleStmt() (Stmt, error) {
	if p.isTypeStart() {
		ty, err := p.parseBaseType()
		if err != nil {
			return nil, err
		}
		nameTok := p.lx.next()
		if nameTok.kind != tIdent {
			return nil, p.errf(nameTok, "expected variable name")
		}
		if p.accept("[") {
			if ty, err = p.arrayType(ty, p.lx.next()); err != nil {
				return nil, err
			}
			if _, err := p.expect("]"); err != nil {
				return nil, err
			}
		}
		d := &Decl{Name: nameTok.text, Ty: ty, Line: nameTok.line}
		if p.accept("=") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			d.Init = e
		}
		return d, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &ExprStmt{E: e}, nil
}

// --- expressions (precedence climbing) ---

var binPrec = map[string]int{
	"||": 1, "&&": 2,
	"|": 3, "^": 4, "&": 5,
	"==": 6, "!=": 6,
	"<": 7, ">": 7, "<=": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *parser) parseExpr() (Expr, error) { return p.parseAssign() }

func (p *parser) parseAssign() (Expr, error) {
	l, err := p.parseBin(1)
	if err != nil {
		return nil, err
	}
	t := p.lx.peek()
	switch t.text {
	case "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=":
		p.lx.next()
		r, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		op := ""
		if t.text != "=" {
			op = t.text[:len(t.text)-1]
		}
		return &Assign{Op: op, L: l, R: r, Line: t.line}, nil
	}
	return l, nil
}

func (p *parser) parseBin(minPrec int) (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.lx.peek()
		prec, ok := binPrec[t.text]
		if !ok || prec < minPrec {
			return l, nil
		}
		p.lx.next()
		r, err := p.parseBin(prec + 1)
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: t.text, L: l, R: r, Line: t.line}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.lx.peek()
	switch t.text {
	case "-", "!", "~", "*", "&":
		p.lx.next()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: t.text, E: e, Line: t.line}, nil
	}
	// Cast: "(" type ")" unary.
	if t.text == "(" && p.lx.peek2().kind == tKeyword && p.lx.peek2().text != "sizeof" {
		p.lx.next()
		ty, err := p.parseBaseType()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Cast{To: ty, E: e, Line: t.line}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.lx.peek()
		switch t.text {
		case "[":
			p.lx.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect("]"); err != nil {
				return nil, err
			}
			e = &Index{Base: e, Idx: idx, Line: t.line}
		case ".":
			p.lx.next()
			n := p.lx.next()
			e = &Member{Base: e, Name: n.text, Line: t.line}
		case "->":
			p.lx.next()
			n := p.lx.next()
			e = &Member{Base: e, Name: n.text, Arrow: true, Line: t.line}
		default:
			return e, nil
		}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.lx.next()
	switch {
	case t.kind == tNumber:
		return &NumLit{Val: t.num, Line: t.line}, nil
	case t.kind == tKeyword && t.text == "sizeof":
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		ty, err := p.parseBaseType()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		return &SizeofT{Ty: ty, Line: t.line}, nil
	case t.kind == tIdent:
		if p.lx.peek().text == "(" {
			p.lx.next()
			c := &Call{Name: t.text, Line: t.line}
			for !p.accept(")") {
				if len(c.Args) > 0 {
					if _, err := p.expect(","); err != nil {
						return nil, err
					}
				}
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				c.Args = append(c.Args, a)
			}
			return c, nil
		}
		return &VarRef{Name: t.text, Line: t.line}, nil
	case t.text == "(":
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, p.errf(t, "unexpected token %q", t.text)
}
