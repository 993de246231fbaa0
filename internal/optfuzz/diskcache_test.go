package optfuzz

import (
	"path/filepath"
	"reflect"
	"testing"

	"tameir/internal/cache"
	"tameir/internal/core"
	"tameir/internal/passes"
	"tameir/internal/refine"
)

// diskCampaign is a small -O2 freeze-dialect campaign bound to dir.
func diskCampaign(dir string) Campaign {
	sem := core.FreezeOptions()
	gen := DefaultConfig(1)
	gen.AllowUndef = false
	gen.AllowPoison = true
	gen.EnumAttrs = true
	gen.MaxFuncs = 150
	return Campaign{
		Gen:         gen,
		Refine:      refine.DefaultConfig(sem, sem),
		Pipeline:    passes.O2(),
		PipelineCfg: passes.DefaultFreezeConfig(),
		Workers:     2,
		CacheDir:    dir,
	}
}

// sameVerdicts compares everything observable about two campaign runs'
// verdict streams: counts, per-pass splits, and the findings.
func sameVerdicts(t *testing.T, label string, a, b Stats) {
	t.Helper()
	if a.Funcs != b.Funcs || a.Verified != b.Verified || a.Refuted != b.Refuted || a.Inconclusive != b.Inconclusive {
		t.Errorf("%s: verdict counts diverge: %d/%d/%d/%d vs %d/%d/%d/%d",
			label, a.Funcs, a.Verified, a.Refuted, a.Inconclusive,
			b.Funcs, b.Verified, b.Refuted, b.Inconclusive)
	}
	if !reflect.DeepEqual(a.Passes, b.Passes) {
		t.Errorf("%s: per-pass stats diverge:\n%+v\nvs\n%+v", label, a.Passes, b.Passes)
	}
	if !reflect.DeepEqual(a.Findings, b.Findings) {
		t.Errorf("%s: findings diverge:\n%+v\nvs\n%+v", label, a.Findings, b.Findings)
	}
}

// TestCacheDirWarmMatchesCold is the tentpole's soundness gate: a
// campaign warm-started from -cache-dir must report byte-identical
// verdicts to the cold run that wrote the snapshots, while actually
// serving lookups from disk-loaded entries.
func TestCacheDirWarmMatchesCold(t *testing.T) {
	dir := t.TempDir()
	cold := diskCampaign(dir).Run()
	if cold.DiskErr != nil {
		t.Fatalf("cold run disk error: %v", cold.DiskErr)
	}
	if cold.DiskHits != 0 {
		t.Fatalf("cold run claims %d disk hits from an empty dir", cold.DiskHits)
	}
	if cold.Funcs == 0 {
		t.Fatal("empty campaign")
	}

	warm := diskCampaign(dir).Run()
	if warm.DiskErr != nil {
		t.Fatalf("warm run disk error: %v", warm.DiskErr)
	}
	if warm.DiskLoads == 0 {
		t.Fatal("warm run loaded no snapshots")
	}
	if warm.DiskHits == 0 {
		t.Fatal("warm run served no memo lookups from disk-loaded entries")
	}
	if warm.DiskStaleRejects != 0 {
		t.Fatalf("warm run rejected %d snapshots as stale", warm.DiskStaleRejects)
	}
	sameVerdicts(t, "warm vs cold", cold, warm)
}

// A snapshot written by a build with a different semantics fingerprint
// must be rejected wholesale — the campaign runs exactly as cold, and
// nothing from the stale file can reach a verdict.
func TestCacheDirStaleSnapshotRejectedWholesale(t *testing.T) {
	baseline := diskCampaign(t.TempDir()).Run() // plain cold reference

	dir := t.TempDir()
	if st := diskCampaign(dir).Run(); st.DiskErr != nil {
		t.Fatalf("seed run disk error: %v", st.DiskErr)
	}
	// Rewrite the memo snapshot under a fingerprint this build does not
	// have, with junk contents that would visibly corrupt verdicts if a
	// partial load ever happened.
	junk := &refine.MemoSnapshot{Entries: []refine.MemoSnapshotEntry{{
		FuncKey: "junk",
		Args:    []refine.ArgSetSnapshot{{Key: "x", Set: refine.BehaviorSetSnapshot{UB: true}}},
	}}}
	if err := cache.WriteFile(filepath.Join(dir, "memo.snap"), "memo", "other-semantics", junk); err != nil {
		t.Fatal(err)
	}

	st := diskCampaign(dir).Run()
	if st.DiskErr != nil {
		t.Fatalf("disk error on stale dir: %v", st.DiskErr)
	}
	if st.DiskStaleRejects != 1 {
		t.Fatalf("stale rejects = %d, want 1 (the memo snapshot)", st.DiskStaleRejects)
	}
	if st.DiskHits != 0 {
		t.Fatalf("%d disk hits served from a fully stale dir", st.DiskHits)
	}
	sameVerdicts(t, "stale-dir vs cold", baseline, st)

	// The run replaced the stale files with fresh ones: a follow-up
	// warm run works again.
	again := diskCampaign(dir).Run()
	if again.DiskHits == 0 || again.DiskStaleRejects != 0 {
		t.Fatalf("recovery run: hits=%d staleRejects=%d", again.DiskHits, again.DiskStaleRejects)
	}
	sameVerdicts(t, "recovered-warm vs cold", baseline, again)
}
