package passes

import (
	"fmt"
	"sort"
	"strings"

	"tameir/internal/analysis"
)

// Convenience names for PassInfo.Preserves declarations: a pass that
// never adds, removes, or rewires blocks preserves all block-level
// analyses; a pass that can touch control flow preserves none.
const (
	PreservesAll  = analysis.All
	PreservesNone = analysis.None
)

// PassInfo is one registry entry: a pass name, its constructor, and
// the analyses the pass preserves when it reports a change. The
// preserved-set declaration is the contract the pass manager's
// analysis caching rests on — declaring an analysis preserved that the
// pass can invalidate silently serves stale results to later passes,
// so declarations err conservative (see each pass's registration for
// the per-pass argument).
type PassInfo struct {
	Name string
	// New constructs a fresh pass instance (passes are stateless
	// structs today, but the constructor keeps the registry honest if
	// one ever grows per-run state).
	New func() Pass
	// Preserves lists the analyses still valid after the pass reports
	// a change. An unchanged pass run always preserves everything.
	Preserves analysis.Set
}

var registry = map[string]PassInfo{}

// Register adds a pass to the registry. Pass files self-register from
// init, so the registry is complete before any lookup. Duplicate or
// inconsistent registrations are programming errors and panic.
func Register(pi PassInfo) {
	if pi.Name == "" || pi.New == nil {
		panic("passes: Register with empty name or nil constructor")
	}
	if _, dup := registry[pi.Name]; dup {
		panic("passes: duplicate registration of " + pi.Name)
	}
	if got := pi.New().Name(); got != pi.Name {
		panic(fmt.Sprintf("passes: %q registered under name %q", got, pi.Name))
	}
	registry[pi.Name] = pi
}

// Names returns every registered pass name, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Preserved returns the preserved-analyses set declared for the named
// pass, or analysis.None for unregistered names (the conservative
// default: assume everything was clobbered).
func Preserved(name string) analysis.Set {
	if pi, ok := registry[name]; ok {
		return pi.Preserves
	}
	return analysis.None
}

// LookupPass resolves name to a pass instance, with an error listing
// the registry contents for unknown names.
func LookupPass(name string) (Pass, error) {
	if pi, ok := registry[name]; ok {
		return pi.New(), nil
	}
	return nil, fmt.Errorf("unknown pass %q, available: %s", name, strings.Join(Names(), ", "))
}
