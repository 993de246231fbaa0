package telemetry

import (
	"fmt"
	"io"
	"strings"
	"sync"
)

// ProgressLine renders a single live status line (terminated by \r) to
// a terminal-ish writer. It draws every Update: the caller sets the
// pace (tame-fuzz repaints once per campaign monitor tick). It is safe
// for concurrent use; the final Finish clears the line so ordinary
// output can follow.
type ProgressLine struct {
	mu       sync.Mutex
	w        io.Writer
	lastLen  int
	finished bool
}

// NewProgressLine returns a progress line writing to w. A nil
// ProgressLine discards updates.
func NewProgressLine(w io.Writer) *ProgressLine {
	if w == nil {
		return nil
	}
	return &ProgressLine{w: w}
}

// Update replaces the live line.
func (p *ProgressLine) Update(format string, args ...any) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.finished {
		return
	}
	// Pad to blank out the rest of a longer previous line.
	line := fmt.Sprintf(format, args...)
	pad := ""
	if n := p.lastLen - len(line); n > 0 {
		pad = strings.Repeat(" ", n)
	}
	fmt.Fprintf(p.w, "\r%s%s", line, pad)
	p.lastLen = len(line)
}

// Clear blanks the live line without finishing: the next Update
// redraws it. Call it before printing a normal line (e.g. a streamed
// finding) so the two don't interleave on a shared terminal.
func (p *ProgressLine) Clear() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.finished || p.lastLen == 0 {
		return
	}
	fmt.Fprintf(p.w, "\r%s\r", strings.Repeat(" ", p.lastLen))
	p.lastLen = 0
}

// Finish clears the live line and stops further updates. Call it
// before printing normal output below the progress display.
func (p *ProgressLine) Finish() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.finished {
		return
	}
	p.finished = true
	if p.lastLen > 0 {
		fmt.Fprintf(p.w, "\r%s\r", strings.Repeat(" ", p.lastLen))
	}
}
