package refine

import (
	"hash/maphash"
	"sort"
)

// Memo persistence: Snapshot serializes a memo's behaviour sets,
// LoadSnapshot installs a snapshot into a (typically fresh) memo.
// Together with cache.Dir's versioned, fingerprinted files this is
// the -cache-dir warm start for campaigns.
//
// The correctness story is the same one the in-memory memo already
// tells: first-level keys are the full semantics fingerprint plus the
// canonical function text, second-level keys are the full input-vector
// key (or the ordinal in Check's deterministic enumeration, which that
// same first-level key pins). Nothing in a key is process-specific, so
// a reloaded entry answers a lookup with exactly the set a cold run
// would have computed — provided the build's semantics didn't change
// between runs, which is what the snapshot fingerprint
// (core.SemanticsFingerprint) rejects wholesale. Entries loaded from
// disk are flagged so their hits are countable as
// cache_disk_hits_total.

// MemoSnapshot is the serializable content of a Memo, in
// deterministic (sorted) order so identical memo contents encode to
// identical bytes.
type MemoSnapshot struct {
	Entries []MemoSnapshotEntry
}

// MemoSnapshotEntry is one per-function entry: its full first-level
// key plus both second levels.
type MemoSnapshotEntry struct {
	FuncKey  string
	Ordinals []OrdinalSetSnapshot
	Args     []ArgSetSnapshot
}

// OrdinalSetSnapshot is one ordinal-indexed behaviour set.
type OrdinalSetSnapshot struct {
	Ordinal int
	Set     BehaviorSetSnapshot
}

// ArgSetSnapshot is one input-vector-keyed behaviour set.
type ArgSetSnapshot struct {
	Key string
	Set BehaviorSetSnapshot
}

// BehaviorSetSnapshot is a BehaviorSet with its Rets flattened to a
// sorted slice of keys, for deterministic encoding. Incomplete sets are
// never cached, so the field has no snapshot counterpart.
type BehaviorSetSnapshot struct {
	UB, Poison, Undef, Void bool
	RetBits                 uint
	Rets                    []string
}

func snapshotSet(b BehaviorSet) BehaviorSetSnapshot {
	s := BehaviorSetSnapshot{UB: b.UB, Poison: b.Poison, Undef: b.Undef, Void: b.Void, RetBits: b.RetBits}
	if b.Rets.Len() > 0 {
		s.Rets = b.Rets.Keys()
	}
	return s
}

func (s BehaviorSetSnapshot) restore() BehaviorSet {
	b := BehaviorSet{UB: s.UB, Poison: s.Poison, Undef: s.Undef, Void: s.Void, RetBits: s.RetBits}
	for _, k := range s.Rets {
		b.Rets.AddKey(k)
	}
	return b
}

// Snapshot captures every cached behaviour set. Safe to call
// concurrently with lookups and stores; the result is a point-in-time
// copy, sorted for deterministic encoding.
func (m *Memo) Snapshot() *MemoSnapshot {
	snap := &MemoSnapshot{}
	m.funcs.Range(func(key string, e *memoFuncEntry) {
		// Range holds the entry's stripe lock, so the reads are safe.
		ent := MemoSnapshotEntry{FuncKey: key}
		for i := range e.byIdx {
			if e.byIdx[i].ok {
				ent.Ordinals = append(ent.Ordinals, OrdinalSetSnapshot{Ordinal: i, Set: snapshotSet(e.byIdx[i].set)})
			}
		}
		for k, s := range e.sets {
			ent.Args = append(ent.Args, ArgSetSnapshot{Key: k, Set: snapshotSet(s.set)})
		}
		if len(ent.Ordinals)+len(ent.Args) > 0 {
			snap.Entries = append(snap.Entries, ent)
		}
	})
	sort.Slice(snap.Entries, func(i, j int) bool { return snap.Entries[i].FuncKey < snap.Entries[j].FuncKey })
	for i := range snap.Entries {
		args := snap.Entries[i].Args
		sort.Slice(args, func(a, b int) bool { return args[a].Key < args[b].Key })
	}
	return snap
}

// LoadSnapshot installs every set from snap that is not already
// cached, marking the installed sets as disk-loaded, and returns the
// number installed. Installation goes through the same clock admission
// as live stores, so a snapshot larger than the memo's cap simply
// warms the cap's worth of entries.
func (m *Memo) LoadSnapshot(snap *MemoSnapshot) int {
	n := 0
	for _, ent := range snap.Entries {
		key := []byte(ent.FuncKey)
		// A loaded function counts as sighted, so the first session to
		// meet it looks it up in the index.
		m.door.sighted(maphash.Bytes(m.seed, key))
		var e *memoFuncEntry
		for _, o := range ent.Ordinals {
			if o.Ordinal < 0 {
				continue // defensive: never trust file contents blindly
			}
			e = m.lockEntry(e, key, 0)
			installed := e.putIdx(o.Ordinal, o.Set.restore(), true)
			e.mu.Unlock()
			if installed {
				m.admit(evictRef{entry: e, ordinal: o.Ordinal})
				n++
			}
		}
		for _, a := range ent.Args {
			e = m.lockEntry(e, key, 0)
			installed := e.putKey(a.Key, a.Set.restore(), true)
			e.mu.Unlock()
			if installed {
				m.admit(evictRef{entry: e, key: a.Key, ordinal: -1})
				n++
			}
		}
	}
	return n
}

// memoSnapshotEqual reports whether two snapshots carry identical
// contents — the round-trip property the snapshot tests assert.
func memoSnapshotEqual(a, b *MemoSnapshot) bool {
	if len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		ea, eb := &a.Entries[i], &b.Entries[i]
		if ea.FuncKey != eb.FuncKey || len(ea.Ordinals) != len(eb.Ordinals) || len(ea.Args) != len(eb.Args) {
			return false
		}
		for j := range ea.Ordinals {
			if ea.Ordinals[j].Ordinal != eb.Ordinals[j].Ordinal || !setSnapshotEqual(ea.Ordinals[j].Set, eb.Ordinals[j].Set) {
				return false
			}
		}
		for j := range ea.Args {
			if ea.Args[j].Key != eb.Args[j].Key || !setSnapshotEqual(ea.Args[j].Set, eb.Args[j].Set) {
				return false
			}
		}
	}
	return true
}

func setSnapshotEqual(a, b BehaviorSetSnapshot) bool {
	if a.UB != b.UB || a.Poison != b.Poison || a.Undef != b.Undef || a.Void != b.Void ||
		a.RetBits != b.RetBits || len(a.Rets) != len(b.Rets) {
		return false
	}
	for i := range a.Rets {
		if a.Rets[i] != b.Rets[i] {
			return false
		}
	}
	return true
}
