package trace

import "sort"

// SpanStat aggregates all complete events sharing a name.
type SpanStat struct {
	Name    string
	Count   int
	TotalNS int64
	MaxNS   int64
}

// TrackStat is one track's activity. BusyNS is the union of its span
// intervals (nested spans are merged, not double-counted), so
// BusyNS/WallNS is the track's utilization.
type TrackStat struct {
	Track  int32
	Name   string
	Spans  int
	BusyNS int64
}

// Summary is the aggregate view of a trace that tame-trace prints.
type Summary struct {
	Events   int
	WallNS   int64      // max(ts+dur) - min(ts) over all events
	Spans    []SpanStat // sorted by TotalNS descending
	Tracks   []TrackStat
	Instants map[string]int
	Counters map[string]int64 // final (last-sampled) value per name
}

// Summarize aggregates events (as returned by Recorder.Events or
// ParseChromeJSON) into a Summary.
func Summarize(evs []Event, tracks map[int32]string) Summary {
	s := Summary{
		Events:   len(evs),
		Instants: make(map[string]int),
		Counters: make(map[string]int64),
	}
	if len(evs) == 0 {
		return s
	}
	minTS, maxTS := evs[0].TS, evs[0].TS
	spans := make(map[string]*SpanStat)
	type iv struct{ lo, hi int64 }
	intervals := make(map[int32][]iv)
	spanCount := make(map[int32]int)
	counterTS := make(map[string]int64)
	for i := range evs {
		ev := &evs[i]
		if ev.TS < minTS {
			minTS = ev.TS
		}
		if end := ev.TS + ev.Dur; end > maxTS {
			maxTS = end
		}
		switch ev.Phase {
		case PhaseComplete:
			st := spans[ev.Name]
			if st == nil {
				st = &SpanStat{Name: ev.Name}
				spans[ev.Name] = st
			}
			st.Count++
			st.TotalNS += ev.Dur
			if ev.Dur > st.MaxNS {
				st.MaxNS = ev.Dur
			}
			intervals[ev.Track] = append(intervals[ev.Track], iv{ev.TS, ev.TS + ev.Dur})
			spanCount[ev.Track]++
		case PhaseInstant:
			s.Instants[ev.Name]++
		case PhaseCounter:
			if ev.TS >= counterTS[ev.Name] {
				counterTS[ev.Name] = ev.TS
				s.Counters[ev.Name] = ev.Value
			}
		}
	}
	s.WallNS = maxTS - minTS
	for _, st := range spans {
		s.Spans = append(s.Spans, *st)
	}
	sort.Slice(s.Spans, func(i, j int) bool {
		if s.Spans[i].TotalNS != s.Spans[j].TotalNS {
			return s.Spans[i].TotalNS > s.Spans[j].TotalNS
		}
		return s.Spans[i].Name < s.Spans[j].Name
	})
	ids := make([]int32, 0, len(intervals))
	for id := range intervals {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		ivs := intervals[id]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var busy, hi int64
		hi = -1
		var lo int64
		for _, v := range ivs {
			if hi < 0 || v.lo > hi {
				if hi >= 0 {
					busy += hi - lo
				}
				lo, hi = v.lo, v.hi
			} else if v.hi > hi {
				hi = v.hi
			}
		}
		if hi >= 0 {
			busy += hi - lo
		}
		s.Tracks = append(s.Tracks, TrackStat{
			Track:  id,
			Name:   tracks[id],
			Spans:  spanCount[id],
			BusyNS: busy,
		})
	}
	return s
}

// Outliers returns the tracks whose busy time exceeds factor × the
// median busy time of all tracks that did any span work — the "slow
// shard" report. Returns nil when fewer than three tracks worked
// (a median over one or two shards flags nothing meaningful).
func (s *Summary) Outliers(factor float64) []TrackStat {
	var busy []int64
	for _, t := range s.Tracks {
		if t.Spans > 0 {
			busy = append(busy, t.BusyNS)
		}
	}
	if len(busy) < 3 {
		return nil
	}
	sort.Slice(busy, func(i, j int) bool { return busy[i] < busy[j] })
	median := busy[len(busy)/2]
	if median == 0 {
		return nil
	}
	var out []TrackStat
	for _, t := range s.Tracks {
		if t.Spans > 0 && float64(t.BusyNS) > factor*float64(median) {
			out = append(out, t)
		}
	}
	return out
}

// SpanDelta is one span name's change between two traces.
type SpanDelta struct {
	Name           string
	CountA, CountB int
	TotalA, TotalB int64 // ns
}

// Diff compares two summaries span-by-span, returning every name
// present in either, sorted by the absolute change in total time
// (largest first).
func Diff(a, b Summary) []SpanDelta {
	m := make(map[string]*SpanDelta)
	for _, st := range a.Spans {
		m[st.Name] = &SpanDelta{Name: st.Name, CountA: st.Count, TotalA: st.TotalNS}
	}
	for _, st := range b.Spans {
		d := m[st.Name]
		if d == nil {
			d = &SpanDelta{Name: st.Name}
			m[st.Name] = d
		}
		d.CountB = st.Count
		d.TotalB = st.TotalNS
	}
	out := make([]SpanDelta, 0, len(m))
	for _, d := range m {
		out = append(out, *d)
	}
	abs := func(x int64) int64 {
		if x < 0 {
			return -x
		}
		return x
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := abs(out[i].TotalB-out[i].TotalA), abs(out[j].TotalB-out[j].TotalA)
		if di != dj {
			return di > dj
		}
		return out[i].Name < out[j].Name
	})
	return out
}
