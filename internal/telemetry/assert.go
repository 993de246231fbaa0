package telemetry

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"tameir/internal/telemetry/trace"
)

// The assertion language behind tame-metrics -check and tame-trace
// -assert. An assertion is a comma-separated list of clauses; each
// clause is either a term on its own — a presence check — or
// "term OP term" with OP one of == = != >= <= > <. A term is
//
//	a number        0, 1.5
//	a series name   summed over the name and its {…}-labelled children;
//	                as a presence check it also matches a histogram's
//	                _bucket/_count/_sum children
//	a ratio a/b     of two non-ratio terms, compared with a number;
//	                undefined when either side is absent or b is 0
//	spans(P)        complete trace events whose name starts with P
//	instants(P)     instant trace events whose name starts with P
//	dur(P)          total ns of complete trace events starting with P
//	counter(N)      final value of trace counter N
//
// The four functions read a trace and are syntax errors against a
// metric snapshot; over a trace, series names read its counters. A
// named series or counter that is absent fails its clause (it is never
// read as 0), and so does a comparison with an undefined ratio. As a
// presence check, spans(P), instants(P) and dur(P) require at least
// one matching event.

// ParseSeries reads a metric snapshot in either format — the JSON
// snapshot or the text exposition, told apart by a leading '{' — into
// the name→value pairs of its text exposition, so both formats answer
// an assertion alike.
func ParseSeries(data []byte) (map[string]int64, error) {
	if t := bytes.TrimSpace(data); len(t) > 0 && t[0] == '{' {
		snap, err := ParseJSON(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := snap.WriteText(&buf); err != nil {
			return nil, err
		}
		data = buf.Bytes()
	}
	return ParseText(bytes.NewReader(data))
}

// CheckSeries evaluates an assertion against metric series (as
// ParseSeries returns them). The error lists every clause that fails,
// or names the first malformed one.
func CheckSeries(assertion string, series map[string]int64) error {
	return check(assertion, facts{series: series})
}

// CheckTrace evaluates an assertion against trace events; its series
// are the trace's counters at their final values.
func CheckTrace(assertion string, evs []trace.Event) error {
	return check(assertion, facts{series: trace.Summarize(evs, nil).Counters, evs: evs, onTrace: true})
}

// facts is what a clause reads.
type facts struct {
	series  map[string]int64
	evs     []trace.Event
	onTrace bool
}

// term is one parsed operand. kind is "number" (num), "series"
// (name), "ratio" (numer/denom) or a trace function applied to name.
// text is its source, for messages.
type term struct {
	kind, text, name string
	num              float64
	numer, denom     *term
}

// ops are the comparison operators, longest first so ">=" is not read
// as ">".
var ops = []struct {
	op    string
	holds func(l, r float64) bool
}{
	{"==", func(l, r float64) bool { return l == r }},
	{"!=", func(l, r float64) bool { return l != r }},
	{">=", func(l, r float64) bool { return l >= r }},
	{"<=", func(l, r float64) bool { return l <= r }},
	{"=", func(l, r float64) bool { return l == r }},
	{">", func(l, r float64) bool { return l > r }},
	{"<", func(l, r float64) bool { return l < r }},
}

type clause struct {
	text     string
	op       int // index into ops; -1 for a presence check
	lhs, rhs *term
}

func check(assertion string, f facts) error {
	var clauses []clause
	for _, text := range strings.Split(assertion, ",") {
		if text = strings.TrimSpace(text); text == "" {
			continue
		}
		c, err := parseClause(text, f.onTrace)
		if err != nil {
			return fmt.Errorf("syntax error in %q: %v", text, err)
		}
		clauses = append(clauses, c)
	}
	if len(clauses) == 0 {
		return fmt.Errorf("empty assertion")
	}
	var failed []string
	for _, c := range clauses {
		if why := f.eval(c); why != "" {
			failed = append(failed, fmt.Sprintf("%s (%s)", c.text, why))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("assertion failed: %s", strings.Join(failed, "; "))
	}
	return nil
}

func parseClause(text string, onTrace bool) (c clause, err error) {
	c.text, c.op = text, -1
	i, err := topLevel(text, "=!<>")
	if err != nil {
		return c, err
	}
	lhs := text
	if i >= 0 {
		for k, o := range ops {
			if strings.HasPrefix(text[i:], o.op) {
				c.op = k
				break
			}
		}
		if c.op < 0 {
			return c, fmt.Errorf("bad operator at %q", text[i:])
		}
		lhs = text[:i]
		if c.rhs, err = parseTerm(text[i+len(ops[c.op].op):], onTrace); err != nil {
			return c, err
		}
	}
	if c.lhs, err = parseTerm(lhs, onTrace); err != nil {
		return c, err
	}
	switch {
	case c.rhs == nil && c.lhs.kind == "number":
		return c, fmt.Errorf("a number on its own checks nothing")
	case c.rhs != nil && (c.lhs.kind == "ratio" && c.rhs.kind != "number" || c.rhs.kind == "ratio" && c.lhs.kind != "number"):
		return c, fmt.Errorf("a ratio compares with a number")
	}
	return c, nil
}

// topLevel returns the index of the first byte of s in set that lies
// outside parentheses, or -1.
func topLevel(s, set string) (int, error) {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '(':
			depth++
		case c == ')':
			if depth--; depth < 0 {
				return 0, fmt.Errorf("unbalanced ')'")
			}
		case depth == 0 && strings.IndexByte(set, c) >= 0:
			return i, nil
		}
	}
	if depth != 0 {
		return 0, fmt.Errorf("unbalanced '('")
	}
	return -1, nil
}

// parseTerm reads a number, a series, a trace function or a ratio of
// two of those.
func parseTerm(s string, onTrace bool) (*term, error) {
	i, err := topLevel(s, "/")
	if err != nil {
		return nil, err
	}
	if i < 0 {
		return parseAtom(s, onTrace)
	}
	n, err := parseAtom(s[:i], onTrace)
	if err != nil {
		return nil, err
	}
	d, err := parseAtom(s[i+1:], onTrace)
	if err != nil {
		return nil, err
	}
	return &term{kind: "ratio", text: strings.TrimSpace(s), numer: n, denom: d}, nil
}

func parseAtom(s string, onTrace bool) (*term, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("missing term")
	}
	if c := s[0]; '0' <= c && c <= '9' || c == '.' || c == '-' || c == '+' {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", s)
		}
		return &term{kind: "number", text: s, num: v}, nil
	}
	if open := strings.IndexByte(s, '('); open >= 0 {
		fn := s[:open]
		arg, ok := strings.CutSuffix(s[open+1:], ")")
		switch {
		case !ok || strings.ContainsAny(arg, "()"):
			return nil, fmt.Errorf("malformed call %q", s)
		case fn != "spans" && fn != "instants" && fn != "dur" && fn != "counter":
			return nil, fmt.Errorf("unknown function %q", fn)
		case !onTrace:
			return nil, fmt.Errorf("%s() reads a trace, and a metric snapshot has none", fn)
		case arg == "":
			return nil, fmt.Errorf("%s() needs an argument", fn)
		}
		return &term{kind: fn, text: s, name: arg}, nil
	}
	for i, r := range s {
		if r != '_' && r != ':' && !('a' <= r && r <= 'z') && !('A' <= r && r <= 'Z') && !(i > 0 && '0' <= r && r <= '9') {
			return nil, fmt.Errorf("bad term %q", s)
		}
	}
	return &term{kind: "series", text: s, name: s}, nil
}

// eval returns why c fails, or "" when it holds.
func (f facts) eval(c clause) string {
	if c.op < 0 {
		if f.present(c.lhs) {
			return ""
		}
		return c.lhs.text + " is absent"
	}
	l, lok := f.value(c.lhs)
	r, rok := f.value(c.rhs)
	switch {
	case !lok:
		return missing(c.lhs)
	case !rok:
		return missing(c.rhs)
	case ops[c.op].holds(l, r):
		return ""
	}
	why := c.lhs.text + " is " + strconv.FormatFloat(l, 'g', -1, 64)
	if c.rhs.kind != "number" {
		why += ", " + c.rhs.text + " is " + strconv.FormatFloat(r, 'g', -1, 64)
	}
	return why
}

func missing(t *term) string {
	if t.kind == "ratio" {
		return t.text + " is undefined"
	}
	return t.text + " is absent"
}

// value evaluates t; ok is false when a named series or counter is
// absent or a ratio is undefined.
func (f facts) value(t *term) (v float64, ok bool) {
	switch t.kind {
	case "number":
		return t.num, true
	case "series":
		for k, x := range f.series {
			if k == t.name || strings.HasPrefix(k, t.name+"{") {
				v, ok = v+float64(x), true
			}
		}
		return v, ok
	case "ratio":
		n, nok := f.value(t.numer)
		d, dok := f.value(t.denom)
		return n / d, nok && dok && d != 0
	case "counter":
		x, ok := f.series[t.name]
		return float64(x), ok
	}
	want := trace.PhaseComplete // spans, dur
	if t.kind == "instants" {
		want = trace.PhaseInstant
	}
	for i := range f.evs {
		if ev := &f.evs[i]; ev.Phase == want && strings.HasPrefix(ev.Name, t.name) {
			if t.kind == "dur" {
				v += float64(ev.Dur)
			} else {
				v++
			}
		}
	}
	return v, true
}

// present is a bare term's presence check.
func (f facts) present(t *term) bool {
	switch t.kind {
	case "series":
		for _, suffix := range []string{"", "_bucket", "_count", "_sum"} {
			name := t.name + suffix
			for k := range f.series {
				if k == name || strings.HasPrefix(k, name+"{") {
					return true
				}
			}
		}
		return false
	case "spans", "instants", "dur":
		count := *t // at least one matching event
		if count.kind == "dur" {
			count.kind = "spans"
		}
		n, _ := f.value(&count)
		return n > 0
	}
	_, ok := f.value(t)
	return ok
}
