// Package minc is a small C-like frontend ("MinC") that compiles to
// the IR of package ir, playing the role Clang plays in the paper. Its
// one paper-relevant lowering decision is §5.3: a store to a struct
// bit field is load / mask / combine / store of the containing word,
// and under the Freeze semantics the loaded word must be frozen —
// otherwise the very first store to a fresh struct would read poison
// and poison the whole word. The paper's entire Clang change was this
// one line; Config.FreezeBitfieldLoads is that line.
//
// Language summary:
//
//	types:       char, short, int, long (+ unsigned), pointers, arrays,
//	             struct { ... } with optional bit fields "int f : 3;"
//	statements:  declarations with optional init, if/else, while, for,
//	             return, expression statements, blocks
//	expressions: usual C operators (no ++/--/?:), array indexing,
//	             struct member access (. and ->), function calls,
//	             casts "(type)expr", address-of and dereference
//	top level:   functions and global arrays/scalars
package minc

import (
	"fmt"
	"strconv"
	"unicode"
)

type tokKind uint8

const (
	tEOF tokKind = iota
	tIdent
	tNumber
	tPunct
	tKeyword
)

var keywords = map[string]bool{
	"char": true, "short": true, "int": true, "long": true,
	"unsigned": true, "signed": true, "void": true, "struct": true,
	"if": true, "else": true, "while": true, "for": true,
	"return": true, "sizeof": true, "break": true, "continue": true,
}

type token struct {
	kind tokKind
	text string
	num  uint64
	line int
}

type lexer struct {
	toks []token
	pos  int
}

var multiPunct = []string{
	"<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "->",
}

func lex(src string) (*lexer, error) {
	// MinC source runs about 0.3 tokens a byte (at most 0.43 in the
	// benchmark programs), so half the length plus one for the EOF
	// token holds every token of such a source without growing.
	toks := make([]token, 0, len(src)/2+1)
	line := 1
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < len(src) && src[i+1] == '*':
			i += 2
			for i+1 < len(src) && !(src[i] == '*' && src[i+1] == '/') {
				if src[i] == '\n' {
					line++
				}
				i++
			}
			i += 2
		case unicode.IsLetter(rune(c)) || c == '_':
			j := i
			for j < len(src) && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) || src[j] == '_') {
				j++
			}
			word := src[i:j]
			k := tIdent
			if keywords[word] {
				k = tKeyword
			}
			toks = append(toks, token{kind: k, text: word, line: line})
			i = j
		case c >= '0' && c <= '9':
			j := i
			base := 10
			if c == '0' && j+1 < len(src) && (src[j+1] == 'x' || src[j+1] == 'X') {
				base = 16
				j += 2
			}
			for j < len(src) && isNumChar(src[j], base) {
				j++
			}
			text := src[i:j]
			var v uint64
			var err error
			if base == 16 {
				v, err = strconv.ParseUint(text[2:], 16, 64)
			} else {
				v, err = strconv.ParseUint(text, 10, 64)
			}
			if err != nil {
				return nil, fmt.Errorf("minc: line %d: bad number %q", line, text)
			}
			toks = append(toks, token{kind: tNumber, text: text, num: v, line: line})
			i = j
		case c == '\'':
			if i+2 < len(src) && src[i+2] == '\'' {
				toks = append(toks, token{kind: tNumber, text: src[i : i+3], num: uint64(src[i+1]), line: line})
				i += 3
			} else {
				return nil, fmt.Errorf("minc: line %d: bad char literal", line)
			}
		default:
			matched := false
			for _, mp := range multiPunct {
				if len(src)-i >= len(mp) && src[i:i+len(mp)] == mp {
					toks = append(toks, token{kind: tPunct, text: mp, line: line})
					i += len(mp)
					matched = true
					break
				}
			}
			if !matched {
				// An ASCII byte is its own one-byte string; string(c)
				// of a byte at or above 0x80 is that code point's
				// UTF-8, which error messages quote.
				text := src[i : i+1]
				if c >= 0x80 {
					text = string(c)
				}
				toks = append(toks, token{kind: tPunct, text: text, line: line})
				i++
			}
		}
	}
	toks = append(toks, token{kind: tEOF, line: line})
	return &lexer{toks: toks}, nil
}

func isNumChar(c byte, base int) bool {
	if c >= '0' && c <= '9' {
		return true
	}
	if base == 16 {
		return (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
	}
	return false
}

func (l *lexer) peek() token  { return l.toks[l.pos] }
func (l *lexer) peek2() token { return l.toks[min(l.pos+1, len(l.toks)-1)] }

func (l *lexer) next() token {
	t := l.toks[l.pos]
	if t.kind != tEOF {
		l.pos++
	}
	return t
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
