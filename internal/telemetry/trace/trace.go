// Package trace is a flight recorder: a bounded ring buffer of
// structured trace events (spans, instants, counters) that
// the telemetry layer emits into when a Recorder is attached, and
// that exports as Chrome trace-event JSON — the format Perfetto and
// chrome://tracing load directly.
//
// The package is dependency-free (stdlib only) and deliberately does
// not import internal/telemetry: telemetry imports trace, never the
// reverse. A nil *Recorder is the disabled state — every method is a
// no-op on nil, so instrumented code pays one nil check per event and
// nothing else. When the ring fills, the oldest events are
// overwritten (and counted in Dropped); a flight recorder keeps the
// recent past, not the whole run.
//
// All trace data is scheduling-class by construction: timestamps and
// interleavings are never reproducible across runs or worker counts.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Phase is the Chrome trace-event phase of an event.
type Phase byte

const (
	// PhaseComplete is a span with a start and a duration ('X').
	PhaseComplete Phase = 'X'
	// PhaseInstant is a point event ('i').
	PhaseInstant Phase = 'i'
	// PhaseCounter is a named numeric sample ('C').
	PhaseCounter Phase = 'C'
)

// Event is one recorded trace event. TS is nanoseconds since the
// recorder's epoch; Dur is set for PhaseComplete, Value for
// PhaseCounter, and Args (flattened key/value pairs) for anything
// that carries structured payload — e.g. a finding's provenance.
type Event struct {
	Name  string
	Phase Phase
	Track int32
	TS    int64
	Dur   int64
	Value int64
	Args  []string

	seq uint64 // insertion order, for stable sorting at equal TS
}

// Arg returns the value of the named argument, or "" when absent.
func (e *Event) Arg(key string) string {
	for i := 0; i+1 < len(e.Args); i += 2 {
		if e.Args[i] == key {
			return e.Args[i+1]
		}
	}
	return ""
}

// DefaultCapacity is the total event capacity of NewRecorder(0):
// 64Ki events (~6 MB) — hours of quick-campaign activity, minutes of
// a hot one.
const DefaultCapacity = 1 << 16

// PinnedCapacity caps the pinned region (InstantPinned): events there
// survive ring wrap, so the cap is a hard stop, not an overwrite.
const PinnedCapacity = 4096

// Recorder is the flight recorder. Create with NewRecorder; a nil
// *Recorder discards everything.
type Recorder struct {
	epoch   time.Time
	seq     atomic.Uint64
	dropped atomic.Uint64

	mu   sync.Mutex
	ring []Event
	next uint64 // total writes; the ring index is next % len(ring)

	trackMu sync.Mutex
	tracks  map[int32]string

	pinMu  sync.Mutex
	pinned []Event
}

// NewRecorder returns a recorder whose ring holds the last capacity
// events, whatever their tracks (DefaultCapacity when capacity <= 0),
// plus the pinned region.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{epoch: time.Now(), ring: make([]Event, capacity), tracks: make(map[int32]string)}
}

// SetTrackName labels a track; exported as a thread_name metadata
// record so Perfetto shows "shard 3" instead of a bare tid.
func (r *Recorder) SetTrackName(track int, name string) {
	if r == nil {
		return
	}
	r.trackMu.Lock()
	r.tracks[int32(track)] = name
	r.trackMu.Unlock()
}

// TrackNames returns a copy of the track-name table.
func (r *Recorder) TrackNames() map[int32]string {
	if r == nil {
		return nil
	}
	r.trackMu.Lock()
	defer r.trackMu.Unlock()
	out := make(map[int32]string, len(r.tracks))
	for k, v := range r.tracks {
		out[k] = v
	}
	return out
}

// Dropped reports how many events were overwritten by ring wrap.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

func (r *Recorder) emit(ev Event) {
	ev.seq = r.seq.Add(1)
	r.mu.Lock()
	if r.next >= uint64(len(r.ring)) {
		r.dropped.Add(1)
	}
	r.ring[r.next%uint64(len(r.ring))] = ev
	r.next++
	r.mu.Unlock()
}

// Complete records a finished span on track: a PhaseComplete event
// from start to start+dur.
func (r *Recorder) Complete(track int, name string, start time.Time, dur time.Duration, args ...string) {
	if r == nil {
		return
	}
	r.emit(Event{
		Name:  name,
		Phase: PhaseComplete,
		Track: int32(track),
		TS:    start.Sub(r.epoch).Nanoseconds(),
		Dur:   dur.Nanoseconds(),
		Args:  args,
	})
}

// Instant records a point event on track with flattened key/value
// argument pairs.
func (r *Recorder) Instant(track int, name string, args ...string) {
	if r == nil {
		return
	}
	r.emit(Event{
		Name:  name,
		Phase: PhaseInstant,
		Track: int32(track),
		TS:    time.Since(r.epoch).Nanoseconds(),
		Args:  args,
	})
}

// InstantPinned is Instant into the pinned region: pinned events are
// never overwritten by ring wrap, so rare, must-survive records —
// finding provenance, watchdog stalls — keep their one-event-per-
// occurrence invariant even when hot instants flood the rings. The
// region is capped at PinnedCapacity; past that, new pinned events
// are dropped (and counted in Dropped) rather than evicting old ones.
func (r *Recorder) InstantPinned(track int, name string, args ...string) {
	if r == nil {
		return
	}
	ev := Event{
		Name:  name,
		Phase: PhaseInstant,
		Track: int32(track),
		TS:    time.Since(r.epoch).Nanoseconds(),
		Args:  args,
		seq:   r.seq.Add(1),
	}
	r.pinMu.Lock()
	if len(r.pinned) < PinnedCapacity {
		r.pinned = append(r.pinned, ev)
	} else {
		r.dropped.Add(1)
	}
	r.pinMu.Unlock()
}

// Counter records a numeric sample on track. Successive samples of
// the same name render as a stepped series in Perfetto; Assert and
// Summarize read the last sample as the final value.
func (r *Recorder) Counter(track int, name string, value int64) {
	if r == nil {
		return
	}
	r.emit(Event{
		Name:  name,
		Phase: PhaseCounter,
		Track: int32(track),
		TS:    time.Since(r.epoch).Nanoseconds(),
		Value: value,
	})
}

// Events returns a snapshot of the buffered events sorted by
// timestamp (insertion order breaks ties). The recorder keeps
// running; the snapshot is a copy.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]Event(nil), r.ring[:min(r.next, uint64(len(r.ring)))]...)
	r.mu.Unlock()
	r.pinMu.Lock()
	out = append(out, r.pinned...)
	r.pinMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		return out[i].seq < out[j].seq
	})
	return out
}

// --- Chrome trace-event JSON ---------------------------------------
//
// The export is the "JSON object format": {"traceEvents": [...]} with
// ts/dur in microseconds, one pid, and tracks mapped to tids. Both
// Perfetto and chrome://tracing load it as-is.

type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	PID   int            `json:"pid"`
	TID   int32          `json:"tid"`
	TS    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit,omitempty"`
}

func usec(ns int64) float64 { return float64(ns) / 1e3 }

// WriteChromeJSON writes a snapshot of the recorder in Chrome
// trace-event JSON.
func (r *Recorder) WriteChromeJSON(w io.Writer) error {
	return WriteChromeJSON(w, r.Events(), r.TrackNames())
}

// WriteChromeJSON writes the given events and track names in Chrome
// trace-event JSON. Split out from the Recorder so summaries and
// tests can round-trip event slices directly.
func WriteChromeJSON(w io.Writer, evs []Event, tracks map[int32]string) error {
	out := chromeTrace{DisplayTimeUnit: "ms"}
	ids := make([]int32, 0, len(tracks))
	for id := range tracks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name:  "thread_name",
			Phase: "M",
			PID:   1,
			TID:   id,
			Args:  map[string]any{"name": tracks[id]},
		})
	}
	for i := range evs {
		ev := &evs[i]
		ce := chromeEvent{
			Name:  ev.Name,
			Phase: string(rune(ev.Phase)),
			PID:   1,
			TID:   ev.Track,
			TS:    usec(ev.TS),
		}
		switch ev.Phase {
		case PhaseComplete:
			d := usec(ev.Dur)
			ce.Dur = &d
		case PhaseInstant:
			ce.Scope = "t" // thread-scoped tick mark
		case PhaseCounter:
			ce.Args = map[string]any{"value": ev.Value}
		}
		if len(ev.Args) > 0 {
			if ce.Args == nil {
				ce.Args = make(map[string]any, len(ev.Args)/2)
			}
			for k := 0; k+1 < len(ev.Args); k += 2 {
				ce.Args[ev.Args[k]] = ev.Args[k+1]
			}
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// ParseChromeJSON reads a trace written by WriteChromeJSON back into
// events and track names. Metadata records become track names; spans,
// instants, and counters round-trip (argument order is not
// preserved — args come back key-sorted).
func ParseChromeJSON(r io.Reader) ([]Event, map[int32]string, error) {
	var in chromeTrace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, nil, fmt.Errorf("trace: parse chrome json: %w", err)
	}
	tracks := make(map[int32]string)
	var evs []Event
	for i := range in.TraceEvents {
		ce := &in.TraceEvents[i]
		if ce.Phase == "M" {
			if ce.Name == "thread_name" {
				if name, ok := ce.Args["name"].(string); ok {
					tracks[ce.TID] = name
				}
			}
			continue
		}
		if len(ce.Phase) != 1 {
			continue
		}
		ev := Event{
			Name:  ce.Name,
			Phase: Phase(ce.Phase[0]),
			Track: ce.TID,
			TS:    int64(math.Round(ce.TS * 1e3)),
		}
		switch ev.Phase {
		case PhaseComplete:
			if ce.Dur != nil {
				ev.Dur = int64(math.Round(*ce.Dur * 1e3))
			}
		case PhaseInstant:
		case PhaseCounter:
		default:
			continue // unknown phase from a foreign tool: skip
		}
		keys := make([]string, 0, len(ce.Args))
		for k := range ce.Args {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			switch v := ce.Args[k].(type) {
			case string:
				ev.Args = append(ev.Args, k, v)
			case float64:
				if ev.Phase == PhaseCounter && k == "value" {
					ev.Value = int64(math.Round(v))
				} else {
					ev.Args = append(ev.Args, k, fmt.Sprintf("%g", v))
				}
			}
		}
		evs = append(evs, ev)
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	return evs, tracks, nil
}
