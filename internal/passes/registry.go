package passes

import (
	"fmt"
	"strings"
)

// PassInfo is one registry row: a pass and the one analysis-invalidation
// bit it declares.
type PassInfo struct {
	Pass Pass
	// PreservesCFG declares that when the pass reports a change, it has
	// added, removed or rewired no block or edge, so the predecessor
	// map, dominator tree and loop info still describe the function
	// (LLVM's CFGAnalyses). The poison facts never survive a change.
	// Declaring it for a pass that can touch control flow silently
	// serves stale analyses to later passes, so a row errs
	// conservative; -verify-each audits every row that says true.
	PreservesCFG bool
}

// registry lists every pass, sorted by name, each row with the reason
// for its bit.
var registry = [...]PassInfo{
	{ADCE{}, true},            // control flow is never removed (see the pass comment)
	{CodeGenPrepare{}, false}, // splits blocks for selects lowered to control flow
	{DCE{}, false},            // deletes unreachable blocks
	{FreezeElim{}, true},      // deleting a freeze and rerouting its uses leaves every block and edge intact
	{GVN{}, true},             // rewrites uses and erases duplicates; block edges are untouched
	{IndVarWiden{}, true},     // widening rewrites the IV arithmetic in place; blocks and edges are untouched
	{Inliner{}, false},        // splices callee blocks into the caller
	{InstCombine{}, true},     // peepholes insert/replace instructions within blocks only
	{InstSimplify{}, true},    // pure folding: replaces uses and erases instructions in place
	{JumpThreading{}, false},  // rewires branch edges by design
	{LICM{}, true},            // hoisting moves instructions into an existing preheader; the CFG and loop structure are unchanged
	{LoopSink{}, true},        // sinking moves instructions between existing blocks
	{LoopUnswitch{}, false},   // clones whole loops and rewires the preheader
	{Mem2Reg{}, true},         // phi insertion and load/store removal never touch block structure
	{MigrateUndef{}, true},    // rewrites undef uses to freeze(poison) in place; no block changes
	{Reassociate{}, true},     // rewrites arithmetic trees in place; no block changes
	{SCCP{}, false},           // folds branches and deletes unreachable blocks
	{SimplifyCFG{}, false},    // merges blocks and rewires edges by design
}

// Names returns every registered pass name, sorted.
func Names() []string {
	out := make([]string, len(registry))
	for i, pi := range registry {
		out[i] = pi.Pass.Name()
	}
	return out
}

// preservesCFG returns p's registered bit; a pass outside the registry
// is assumed to change the CFG (the conservative default).
func preservesCFG(p Pass) bool {
	for _, pi := range registry {
		if pi.Pass == p {
			return pi.PreservesCFG
		}
	}
	return false
}

// LookupPass resolves name to a pass, with an error listing the
// registry contents for unknown names.
func LookupPass(name string) (Pass, error) {
	for _, pi := range registry {
		if pi.Pass.Name() == name {
			return pi.Pass, nil
		}
	}
	return nil, fmt.Errorf("unknown pass %q, available: %s", name, strings.Join(Names(), ", "))
}
