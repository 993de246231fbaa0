package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"tameir/internal/telemetry/trace"
)

func TestScopeWithTraceEmitsEvents(t *testing.T) {
	reg := NewRegistry()
	rec := trace.NewRecorder(0)
	scope := NewScope(reg, "campaign").WithTrace(rec, 3)
	scope.Start("s3").End()

	evs := rec.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	if sp := evs[0]; sp.Name != "campaign/s3" || sp.Phase != trace.PhaseComplete || sp.Track != 3 {
		t.Fatalf("span event wrong: %+v", sp)
	}

	// The histogram side must be unchanged by tracing.
	if s, ok := reg.Snapshot().Get(L("span_wall_ns", "span", "campaign/s3")); !ok || s.Count != 1 {
		t.Fatalf("span histogram missing or wrong: %+v", s)
	}
}

func TestScopeWithoutTraceIsUnchanged(t *testing.T) {
	reg := NewRegistry()
	scope := NewScope(reg, "campaign")
	if scope.WithTrace(nil, 0) != scope {
		t.Fatal("WithTrace(nil) must return the scope unchanged")
	}
	scope.Start("z").End()
	if s, ok := reg.Snapshot().Get(L("span_wall_ns", "span", "campaign/z")); !ok || s.Count != 1 {
		t.Fatalf("untraced span histogram missing or wrong: %+v", s)
	}
	var nilScope *Scope
	if nilScope.WithTrace(trace.NewRecorder(0), 0) != nil {
		t.Fatal("nil scope must stay nil")
	}
}

func TestProgressLineClear(t *testing.T) {
	var buf bytes.Buffer
	pl := NewProgressLine(&buf)
	pl.Update("working 1/10")
	pl.Clear()
	out := buf.String()
	if !strings.HasSuffix(out, "\r"+strings.Repeat(" ", len("working 1/10"))+"\r") {
		t.Fatalf("Clear did not blank the line: %q", out)
	}
	// Next update redraws from column zero with no stale padding.
	buf.Reset()
	pl.Update("done")
	if got := buf.String(); got != "\rdone" {
		t.Fatalf("redraw after Clear wrong: %q", got)
	}
	// Clear on a cleared (or finished, or nil) line is a no-op.
	buf.Reset()
	pl.Clear()
	pl.Finish()
	pl.Clear()
	var nilPL *ProgressLine
	nilPL.Clear()
}
