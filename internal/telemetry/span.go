package telemetry

import (
	"time"

	"tameir/internal/telemetry/trace"
)

// Scope is a named position in the span hierarchy, bound to a
// registry. Spans started under a scope record into series labelled
// with the scope's name and the span's, slash-joined, e.g.
// span_wall_ns{span="check/compile"}. A nil *Scope is the disabled
// state: Start is a no-op returning nil, so instrumented code never
// branches on "spans enabled?" itself. The engine's step loop has no
// span site at all: a traced execution runs on the interpreter (see
// core.Env.Run).
//
// A scope can additionally carry a trace.Recorder (see WithTrace):
// then every span it times also lands in the flight recorder as a
// complete event on the scope's track. Without a recorder the
// histogram-only path is unchanged.
//
// All span series are Scheduling class by construction: wall time is
// never reproducible.
type Scope struct {
	reg   *Registry
	path  string
	rec   *trace.Recorder
	track int
}

// NewScope returns a root scope recording into reg. Returns nil (the
// disabled scope) when reg is nil.
func NewScope(reg *Registry, name string) *Scope {
	if reg == nil {
		return nil
	}
	return &Scope{reg: reg, path: name}
}

// WithTrace returns a copy of the scope that also emits every span
// into rec on the given track. A nil rec (or a nil scope) returns the
// scope unchanged — tracing stays opt-in per call site.
func (s *Scope) WithTrace(rec *trace.Recorder, track int) *Scope {
	if s == nil || rec == nil {
		return s
	}
	return &Scope{reg: s.reg, path: s.path, rec: rec, track: track}
}

// Span is one in-flight timed region. End it exactly once.
type Span struct {
	hist  Histogram
	start time.Time
	rec   *trace.Recorder
	name  string
	track int
}

// Start begins a span named under the scope's path. The histogram
// handle is resolved here (one registry lock), so End is lock-free.
func (s *Scope) Start(name string) *Span {
	if s == nil {
		return nil
	}
	path := s.path
	if name != "" {
		path = path + "/" + name
	}
	sp := &Span{
		hist:  s.reg.Histogram(L("span_wall_ns", "span", path), Scheduling, "span wall time in nanoseconds"),
		start: time.Now(),
	}
	if s.rec != nil {
		sp.rec, sp.name, sp.track = s.rec, path, s.track
	}
	return sp
	// The histogram's _count is the number of times the span ran and
	// _sum the total nanoseconds — the same two numbers a classic
	// start/stop timer pair would report, plus a latency distribution.
}

// End records the span's elapsed wall time and returns it, so a caller
// that keeps its own total reads no clock of its own. Safe on a nil
// span, which returns zero.
func (sp *Span) End() time.Duration {
	if sp == nil {
		return 0
	}
	d := time.Since(sp.start)
	sp.hist.Observe(uint64(d))
	if sp.rec != nil {
		sp.rec.Complete(sp.track, sp.name, sp.start, d)
	}
	return d
}
