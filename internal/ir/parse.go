package ir

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// ParseModule parses textual IR in the syntax produced by
// Module.String. Comments run from ';' to end of line.
func ParseModule(src string) (*Module, error) {
	p := &parser{lex: newLexer(src), mod: NewModule()}
	if err := p.parseModule(); err != nil {
		return nil, err
	}
	return p.mod, nil
}

// ParseFunc parses a single function definition. The function may call
// itself; calls to other functions are unresolved errors.
func ParseFunc(src string) (*Func, error) {
	m, err := ParseModule(src)
	if err != nil {
		return nil, err
	}
	if len(m.Funcs) != 1 {
		return nil, fmt.Errorf("ir: expected exactly one function, found %d", len(m.Funcs))
	}
	return m.Funcs[0], nil
}

// MustParseFunc is ParseFunc, panicking on error. Intended for tests
// and examples where the IR text is a literal.
func MustParseFunc(src string) *Func {
	f, err := ParseFunc(src)
	if err != nil {
		panic(err)
	}
	return f
}

// MustParseModule is ParseModule, panicking on error.
func MustParseModule(src string) *Module {
	m, err := ParseModule(src)
	if err != nil {
		panic(err)
	}
	return m
}

// --- lexer ---

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokWord
	tokLocal  // %name
	tokGlobal // @name
	tokInt
	tokPunct // single char: , ( ) [ ] { } = : < >
)

// token is one lexeme and its byte offset in the source; errors turn
// the offset into a line and column (lexer.position).
type token struct {
	kind tokKind
	text string
	off  int
}

type lexer struct {
	src  string
	toks []token
	pos  int
}

func newLexer(src string) *lexer {
	var toks []token
	i := 0
	tok := func(k tokKind, text string) token { return token{k, text, i} }
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == ';':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '%' || c == '@':
			j := i + 1
			for j < len(src) && isIdentChar(src[j]) {
				j++
			}
			k := tokLocal
			if c == '@' {
				k = tokGlobal
			}
			toks = append(toks, tok(k, src[i+1:j]))
			i = j
		case c == '-' || (c >= '0' && c <= '9'):
			j := i + 1
			for j < len(src) && src[j] >= '0' && src[j] <= '9' {
				j++
			}
			toks = append(toks, tok(tokInt, src[i:j]))
			i = j
		case isIdentChar(c):
			j := i
			for j < len(src) && isIdentChar(src[j]) {
				j++
			}
			toks = append(toks, tok(tokWord, src[i:j]))
			i = j
		default:
			toks = append(toks, tok(tokPunct, string(c)))
			i++
		}
	}
	toks = append(toks, tok(tokEOF, ""))
	return &lexer{src: src, toks: toks}
}

// position returns the line and byte column, both counted from 1, of
// the source offset off.
func (l *lexer) position(off int) (line, col int) {
	before := l.src[:off]
	return strings.Count(before, "\n") + 1, off - strings.LastIndexByte(before, '\n')
}

func isIdentChar(c byte) bool {
	return c == '_' || c == '.' || unicode.IsLetter(rune(c)) || (c >= '0' && c <= '9')
}

func (l *lexer) peek() token { return l.toks[l.pos] }

func (l *lexer) next() token {
	t := l.toks[l.pos]
	if t.kind != tokEOF {
		l.pos++
	}
	return t
}

// --- parser ---

// forwardRef stands in for a not-yet-defined local value during
// parsing; it is patched out before parseFunc returns. at is its
// first reference, where an undefined value is reported.
type forwardRef struct {
	userTracker
	ty   Type
	name string
	at   token
}

// Type implements Value with the type stated at the referencing use.
func (r *forwardRef) Type() Type { return r.ty }

// Ident implements Value.
func (r *forwardRef) Ident() string { return "%" + r.name }

type parser struct {
	lex *lexer
	mod *Module

	// per-function state
	fn     *Func
	vals   map[string]Value
	fwd    map[string]*forwardRef
	blocks map[string]*Block
	// blockAt holds each block's first reference as an operand, where
	// an undefined block is reported.
	blockAt map[string]token

	// calls to functions not yet defined are patched at module end.
	pendingCalls []pendingCall
}

type pendingCall struct {
	in    *Instr
	at    token // the callee, @name
	retTy Type
}

// errf reports an error at t's position.
func (p *parser) errf(t token, format string, args ...any) error {
	line, col := p.lex.position(t.off)
	return fmt.Errorf("ir: line %d:%d: %s", line, col, fmt.Sprintf(format, args...))
}

func (p *parser) expectWord(w string) error {
	t := p.lex.next()
	if t.kind != tokWord || t.text != w {
		return p.errf(t, "expected %q, got %q", w, t.text)
	}
	return nil
}

func (p *parser) expectPunct(c string) error {
	t := p.lex.next()
	if t.kind != tokPunct || t.text != c {
		return p.errf(t, "expected %q, got %q", c, t.text)
	}
	return nil
}

func (p *parser) acceptPunct(c string) bool {
	if t := p.lex.peek(); t.kind == tokPunct && t.text == c {
		p.lex.next()
		return true
	}
	return false
}

func (p *parser) acceptWord(w string) bool {
	if t := p.lex.peek(); t.kind == tokWord && t.text == w {
		p.lex.next()
		return true
	}
	return false
}

func (p *parser) parseModule() error {
	for {
		t := p.lex.peek()
		switch {
		case t.kind == tokEOF:
			return p.resolveCalls()
		case t.kind == tokWord && t.text == "define":
			if err := p.parseFunc(); err != nil {
				return err
			}
		case t.kind == tokGlobal:
			if err := p.parseGlobal(); err != nil {
				return err
			}
		default:
			return p.errf(t, "expected 'define' or global, got %q", t.text)
		}
	}
}

func (p *parser) resolveCalls() error {
	for _, pc := range p.pendingCalls {
		f := p.mod.FuncByName(pc.at.text)
		if f == nil {
			return p.errf(pc.at, "call to undefined function @%s", pc.at.text)
		}
		if !f.RetTy.Equal(pc.retTy) {
			return p.errf(pc.at, "call return type %s does not match @%s's %s",
				pc.retTy, pc.at.text, f.RetTy)
		}
		pc.in.Callee = f
	}
	p.pendingCalls = nil
	return nil
}

// parseGlobal parses "@name = global SIZE [init b0 b1 ...]".
func (p *parser) parseGlobal() error {
	t := p.lex.next() // @name
	name := t.text
	if err := p.expectPunct("="); err != nil {
		return err
	}
	if err := p.expectWord("global"); err != nil {
		return err
	}
	szTok := p.lex.next()
	if szTok.kind != tokInt {
		return p.errf(szTok, "expected global size, got %q", szTok.text)
	}
	sz, err := strconv.ParseUint(szTok.text, 10, 32)
	if err != nil {
		return p.errf(szTok, "bad global size %q", szTok.text)
	}
	g := &Global{Nam: name, Size: uint32(sz)}
	if p.acceptWord("init") {
		for p.lex.peek().kind == tokInt {
			bt := p.lex.next()
			bv, err := strconv.ParseUint(bt.text, 10, 8)
			if err != nil {
				return p.errf(bt, "bad init byte %q", bt.text)
			}
			g.Init = append(g.Init, byte(bv))
		}
		if len(g.Init) > int(g.Size) {
			return p.errf(szTok, "global @%s: %d init bytes exceed size %d", name, len(g.Init), g.Size)
		}
	}
	p.mod.AddGlobal(g)
	return nil
}

func (p *parser) parseType() (Type, error) {
	t := p.lex.peek()
	if t.kind == tokWord {
		p.lex.next()
		ty, err := ParseType(t.text)
		if err != nil {
			return Type{}, p.errf(t, "%s", strings.TrimPrefix(err.Error(), "ir: "))
		}
		return ty, nil
	}
	if t.kind == tokPunct && t.text == "<" {
		p.lex.next()
		nTok := p.lex.next()
		if nTok.kind != tokInt {
			return Type{}, p.errf(nTok, "expected vector length")
		}
		n, err := strconv.ParseUint(nTok.text, 10, 32)
		if err != nil || n == 0 {
			return Type{}, p.errf(nTok, "bad vector length %q", nTok.text)
		}
		if err := p.expectWord("x"); err != nil {
			return Type{}, err
		}
		elem, err := p.parseType()
		if err != nil {
			return Type{}, err
		}
		if elem.IsVec() || elem.IsVoid() {
			return Type{}, p.errf(nTok, "vector element must be an integer or pointer type, not %s", elem)
		}
		if err := p.expectPunct(">"); err != nil {
			return Type{}, err
		}
		return Vec(uint(n), elem), nil
	}
	return Type{}, p.errf(t, "expected type, got %q", t.text)
}

// parseOperand parses an operand of a known type.
func (p *parser) parseOperand(ty Type) (Value, error) {
	t := p.lex.peek()
	switch {
	case t.kind == tokLocal:
		p.lex.next()
		return p.localRef(t, ty), nil
	case t.kind == tokGlobal:
		p.lex.next()
		g := p.mod.GlobalByName(t.text)
		if g == nil {
			return nil, p.errf(t, "undefined global @%s", t.text)
		}
		return g, nil
	case t.kind == tokInt:
		p.lex.next()
		if !ty.IsInt() && !ty.IsPtr() {
			return nil, p.errf(t, "integer literal %q cannot have type %s", t.text, ty)
		}
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			// Large unsigned literal.
			u, uerr := strconv.ParseUint(t.text, 10, 64)
			if uerr != nil {
				return nil, p.errf(t, "bad integer %q", t.text)
			}
			return ConstInt(ty, u), nil
		}
		return ConstInt(ty, uint64(v)), nil
	case t.kind == tokWord && t.text == "poison":
		p.lex.next()
		return NewPoison(ty), nil
	case t.kind == tokWord && t.text == "undef":
		p.lex.next()
		return NewUndef(ty), nil
	case t.kind == tokWord && t.text == "true":
		p.lex.next()
		return ConstBool(true), nil
	case t.kind == tokWord && t.text == "false":
		p.lex.next()
		return ConstBool(false), nil
	case t.kind == tokPunct && t.text == "<":
		return p.parseVecConst()
	}
	return nil, p.errf(t, "expected operand, got %q", t.text)
}

// parseVecConst parses "<i8 1, i8 poison, ...>".
func (p *parser) parseVecConst() (Value, error) {
	if err := p.expectPunct("<"); err != nil {
		return nil, err
	}
	var elems []Value
	for {
		t := p.lex.peek()
		ety, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if ety.IsVec() || ety.IsVoid() {
			return nil, p.errf(t, "bad vector element type %s", ety)
		}
		if len(elems) > 0 && !ety.Equal(elems[0].Type()) {
			return nil, p.errf(t, "vector constant mixes element types %s and %s", elems[0].Type(), ety)
		}
		ev, err := p.parseOperand(ety)
		if err != nil {
			return nil, err
		}
		if !IsConstLeaf(ev) {
			return nil, p.errf(t, "vector constant element must be constant")
		}
		elems = append(elems, ev)
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectPunct(">"); err != nil {
		return nil, err
	}
	return NewVecConst(elems), nil
}

// parseTypedOperand parses "ty operand".
func (p *parser) parseTypedOperand() (Value, error) {
	ty, err := p.parseType()
	if err != nil {
		return nil, err
	}
	return p.parseOperand(ty)
}

// localRef resolves the local value t names, standing in a forward
// reference for one not yet defined.
func (p *parser) localRef(t token, ty Type) Value {
	if v, ok := p.vals[t.text]; ok {
		return v
	}
	if r, ok := p.fwd[t.text]; ok {
		return r
	}
	r := &forwardRef{ty: ty, name: t.text, at: t}
	p.fwd[t.text] = r
	return r
}

// blockOperand resolves the block a label operand t names, recording
// the block's first reference.
func (p *parser) blockOperand(t token) *Block {
	if _, ok := p.blockAt[t.text]; !ok {
		p.blockAt[t.text] = t
	}
	return p.blockRef(t.text)
}

func (p *parser) blockRef(name string) *Block {
	if b, ok := p.blocks[name]; ok {
		return b
	}
	b := &Block{Nam: name, parent: p.fn}
	p.blocks[name] = b
	return b
}

func (p *parser) parseFunc() error {
	p.lex.next() // "define"
	retTy, err := p.parseType()
	if err != nil {
		return err
	}
	nameTok := p.lex.next()
	if nameTok.kind != tokGlobal {
		return p.errf(nameTok, "expected function name, got %q", nameTok.text)
	}
	fn := NewFunc(nameTok.text, retTy)
	p.fn = fn
	p.vals = map[string]Value{}
	p.fwd = map[string]*forwardRef{}
	p.blocks = map[string]*Block{}
	p.blockAt = map[string]token{}

	if err := p.expectPunct("("); err != nil {
		return err
	}
	for !p.acceptPunct(")") {
		if len(fn.Params) > 0 {
			if err := p.expectPunct(","); err != nil {
				return err
			}
		}
		pty, err := p.parseType()
		if err != nil {
			return err
		}
		pt := p.lex.next()
		if pt.kind != tokLocal {
			return p.errf(pt, "expected parameter name, got %q", pt.text)
		}
		param := NewParam(pt.text, pty)
		param.Idx = len(fn.Params)
		fn.Params = append(fn.Params, param)
		p.vals[pt.text] = param
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}

	var cur *Block
	defined := map[string]bool{}
	for {
		t := p.lex.peek()
		if t.kind == tokPunct && t.text == "}" {
			p.lex.next()
			break
		}
		if t.kind == tokEOF {
			return p.errf(t, "unexpected EOF in function body")
		}
		// Block label: word followed by ':'.
		if t.kind == tokWord && p.lex.toks[p.lex.pos+1].kind == tokPunct && p.lex.toks[p.lex.pos+1].text == ":" {
			p.lex.next()
			p.lex.next()
			if defined[t.text] {
				return p.errf(t, "duplicate block label %q", t.text)
			}
			defined[t.text] = true
			cur = p.blockRef(t.text)
			fn.Blocks = append(fn.Blocks, cur)
			continue
		}
		if cur == nil {
			cur = p.blockRef("entry")
			defined["entry"] = true
			fn.Blocks = append(fn.Blocks, cur)
		}
		in, err := p.parseInstr()
		if err != nil {
			return err
		}
		in.parent = cur
		cur.instrs = append(cur.instrs, in)
		if in.Nam != "" {
			if _, dup := p.vals[in.Nam]; dup {
				return p.errf(t, "redefinition of %%%s", in.Nam)
			}
			p.vals[in.Nam] = in
			if r, ok := p.fwd[in.Nam]; ok {
				r.replaceUses(r, in) // patch forward references
				delete(p.fwd, in.Nam)
			}
		}
	}

	// Report the first reference, in source order, to a value or block
	// that was never defined.
	var undef *forwardRef
	for _, r := range p.fwd {
		if undef == nil || r.at.off < undef.at.off {
			undef = r
		}
	}
	if undef != nil {
		return p.errf(undef.at, "undefined value %%%s in @%s", undef.name, fn.Nam)
	}
	var undefBlock token
	found := false
	for name, t := range p.blockAt {
		if !defined[name] && (!found || t.off < undefBlock.off) {
			undefBlock, found = t, true
		}
	}
	if found {
		return p.errf(undefBlock, "undefined block %%%s in @%s", undefBlock.text, fn.Nam)
	}
	p.mod.AddFunc(fn)
	return nil
}

// parseInstr parses one instruction line.
func (p *parser) parseInstr() (*Instr, error) {
	name := ""
	if t := p.lex.peek(); t.kind == tokLocal {
		p.lex.next()
		name = t.text
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
	}
	opTok := p.lex.next()
	if opTok.kind != tokWord {
		return nil, p.errf(opTok, "expected opcode, got %q", opTok.text)
	}
	op := OpFromString(opTok.text)
	if op == OpInvalid {
		return nil, p.errf(opTok, "unknown opcode %q", opTok.text)
	}
	in, err := p.parseInstrBody(op, opTok)
	if err != nil {
		return nil, err
	}
	in.Nam = name
	if in.Ty.IsVoid() != (name == "") {
		if name == "" {
			return nil, p.errf(opTok, "%s result must be named", op)
		}
		return nil, p.errf(opTok, "%s produces no result but is named %%%s", op, name)
	}
	return in, nil
}

func (p *parser) parseInstrBody(op Op, opTok token) (*Instr, error) {
	switch {
	case op.IsBinop():
		var attrs Attrs
		for {
			if p.acceptWord("nsw") {
				attrs |= NSW
			} else if p.acceptWord("nuw") {
				attrs |= NUW
			} else if p.acceptWord("exact") {
				attrs |= Exact
			} else {
				break
			}
		}
		x, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		y, err := p.parseOperand(x.Type())
		if err != nil {
			return nil, err
		}
		in := NewInstr(op, x.Type(), x, y)
		in.Attrs = attrs
		return in, nil

	case op == OpICmp:
		predTok := p.lex.next()
		pred, ok := PredFromString(predTok.text)
		if !ok {
			return nil, p.errf(predTok, "unknown icmp predicate %q", predTok.text)
		}
		x, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		y, err := p.parseOperand(x.Type())
		if err != nil {
			return nil, err
		}
		rt := I1
		if x.Type().IsVec() {
			rt = Vec(x.Type().Len, I1)
		}
		in := NewInstr(OpICmp, rt, x, y)
		in.Pred = pred
		return in, nil

	case op == OpSelect:
		c, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		x, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		y, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		return NewInstr(OpSelect, x.Type(), c, x, y), nil

	case op == OpPhi:
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		in := NewInstr(OpPhi, ty)
		for {
			if err := p.expectPunct("["); err != nil {
				return nil, err
			}
			v, err := p.parseOperand(ty)
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
			bt := p.lex.next()
			if bt.kind != tokLocal {
				return nil, p.errf(bt, "expected block label, got %q", bt.text)
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			in.AddArg(v)
			in.AddBlockArg(p.blockOperand(bt))
			if !p.acceptPunct(",") {
				break
			}
		}
		return in, nil

	case op == OpFreeze:
		x, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		return NewInstr(OpFreeze, x.Type(), x), nil

	case op == OpAlloca:
		elem, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		cnt, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		in := NewInstr(OpAlloca, Ptr, cnt)
		in.AllocTy = elem
		return in, nil

	case op == OpLoad:
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		ptr, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		return NewInstr(OpLoad, ty, ptr), nil

	case op == OpStore:
		v, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		ptr, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		return NewInstr(OpStore, Void, v, ptr), nil

	case op == OpGEP:
		var attrs Attrs
		if p.acceptWord("inbounds") {
			attrs = NSW
		}
		elem, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		base, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		idx, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		in := NewInstr(OpGEP, Ptr, base, idx)
		in.AllocTy = elem
		in.Attrs = attrs
		return in, nil

	case op.IsCast():
		x, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expectWord("to"); err != nil {
			return nil, err
		}
		to, err := p.parseType()
		if err != nil {
			return nil, err
		}
		return NewInstr(op, to, x), nil

	case op == OpExtractElement:
		vec, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		idx, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		return NewInstr(OpExtractElement, vec.Type().ElemType(), vec, idx), nil

	case op == OpInsertElement:
		vec, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		s, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		idx, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		return NewInstr(OpInsertElement, vec.Type(), vec, s, idx), nil

	case op == OpBr:
		if p.acceptWord("label") {
			bt := p.lex.next()
			if bt.kind != tokLocal {
				return nil, p.errf(bt, "expected block label, got %q", bt.text)
			}
			in := NewInstr(OpBr, Void)
			in.AddBlockArg(p.blockOperand(bt))
			return in, nil
		}
		cond, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		if err := p.expectWord("label"); err != nil {
			return nil, err
		}
		t1 := p.lex.next()
		if t1.kind != tokLocal {
			return nil, p.errf(t1, "expected block label, got %q", t1.text)
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		if err := p.expectWord("label"); err != nil {
			return nil, err
		}
		t2 := p.lex.next()
		if t2.kind != tokLocal {
			return nil, p.errf(t2, "expected block label, got %q", t2.text)
		}
		in := NewInstr(OpBr, Void, cond)
		in.AddBlockArg(p.blockOperand(t1))
		in.AddBlockArg(p.blockOperand(t2))
		return in, nil

	case op == OpRet:
		if p.acceptWord("void") {
			return NewInstr(OpRet, Void), nil
		}
		v, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		return NewInstr(OpRet, Void, v), nil

	case op == OpUnreachable:
		return NewInstr(OpUnreachable, Void), nil

	case op == OpCall:
		retTy, err := p.parseType()
		if err != nil {
			return nil, err
		}
		ct := p.lex.next()
		if ct.kind != tokGlobal {
			return nil, p.errf(ct, "expected callee, got %q", ct.text)
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		in := NewInstr(OpCall, retTy)
		for !p.acceptPunct(")") {
			if in.NumArgs() > 0 {
				if err := p.expectPunct(","); err != nil {
					return nil, err
				}
			}
			a, err := p.parseTypedOperand()
			if err != nil {
				return nil, err
			}
			in.AddArg(a)
		}
		p.pendingCalls = append(p.pendingCalls, pendingCall{in: in, at: ct, retTy: retTy})
		return in, nil
	}
	return nil, p.errf(opTok, "unhandled opcode %q", opTok.text)
}
