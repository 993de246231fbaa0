package passes

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	names := Names()
	if len(names) != 18 {
		t.Errorf("registry holds %d passes, want 18: %v", len(names), names)
	}
	// One row per name, in order: Names lists them as the table does.
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("registry rows %q, %q are not sorted and unique", names[i-1], names[i])
		}
	}
	for _, n := range names {
		p, err := LookupPass(n)
		if err != nil {
			t.Fatalf("Names lists %q but LookupPass misses it: %v", n, err)
		}
		if got := p.Name(); got != n {
			t.Errorf("LookupPass(%q) returns pass named %q", n, got)
		}
	}
	// Every O2 pipeline entry resolves.
	for _, p := range O2().Passes {
		if _, err := LookupPass(p.Name()); err != nil {
			t.Errorf("O2 pass %q not in registry: %v", p.Name(), err)
		}
	}
}

func TestLookupPassUnknownError(t *testing.T) {
	_, err := LookupPass("licn")
	if err == nil {
		t.Fatal("no error for unknown pass")
	}
	msg := err.Error()
	if !strings.Contains(msg, `unknown pass "licn"`) {
		t.Errorf("error %q does not name the bad pass", msg)
	}
	for _, avail := range []string{"licm", "gvn", "simplifycfg"} {
		if !strings.Contains(msg, avail) {
			t.Errorf("error %q does not list available pass %q", msg, avail)
		}
	}
	if p, err := LookupPass("licm"); err != nil || p.Name() != "licm" {
		t.Errorf("LookupPass(licm) = %v, %v", p, err)
	}
}

func TestNewPassManagerUnknown(t *testing.T) {
	if _, err := NewPassManager("gvn", "nope"); err == nil ||
		!strings.Contains(err.Error(), `unknown pass "nope"`) {
		t.Errorf("NewPassManager error = %v", err)
	}
	pm, err := NewPassManager("gvn", "dce")
	if err != nil || len(pm.Passes) != 2 {
		t.Errorf("NewPassManager(gvn, dce) = %v, %v", pm, err)
	}
}

func TestPreservedDeclarations(t *testing.T) {
	// Spot-check the contract the invalidation logic rests on.
	for name, want := range map[string]bool{
		"instsimplify": true,
		"instcombine":  true,
		"gvn":          true,
		"licm":         true,
		"freeze-elim":  true,
		"simplifycfg":  false,
		"sccp":         false,
		"dce":          false,
		"inline":       false,
		"loopunswitch": false,
	} {
		p, err := LookupPass(name)
		if err != nil {
			t.Fatalf("missing %q: %v", name, err)
		}
		if got := preservesCFG(p); got != want {
			t.Errorf("%s preserves the CFG: %v, want %v", name, got, want)
		}
	}
	// A pass outside the registry is assumed to change the CFG.
	if preservesCFG(struct{ Pass }{}) {
		t.Error("an unregistered pass claims to preserve the CFG")
	}
}
