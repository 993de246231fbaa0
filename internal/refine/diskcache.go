package refine

import (
	"tameir/internal/cache"
	"tameir/internal/core"
)

// DiskCache ties the behaviour-set memo to one -cache-dir as a full
// snapshot. Drivers open it, Load before the run, Save after;
// everything in the directory is stamped with core.SemanticsFingerprint
// so a build whose semantics moved rejects old snapshots wholesale and
// runs cold.
type DiskCache struct {
	dir  *cache.Dir
	memo *Memo
}

// memoSnapshotKind is the memo snapshot's file basename within the
// cache dir.
const memoSnapshotKind = "memo"

// OpenDiskCache returns a disk cache over path, warm-starting memo.
// Returns nil when path is empty or memo is nil, and a nil *DiskCache
// is a valid no-op — Load and Save do nothing — so drivers need no
// flag branch.
func OpenDiskCache(path string, memo *Memo) *DiskCache {
	if path == "" || memo == nil {
		return nil
	}
	return &DiskCache{dir: cache.NewDir(path, core.SemanticsFingerprint), memo: memo}
}

// Load installs the directory's memo snapshot into the memo. A
// missing, stale or corrupt snapshot loads nothing (a stale one counts
// as a rejection); only unexpected I/O errors surface. Returns the
// number of memo entries installed.
func (d *DiskCache) Load() (memoEntries int, err error) {
	if d == nil {
		return 0, nil
	}
	var snap MemoSnapshot
	ok, err := d.dir.Load(memoSnapshotKind, &snap)
	if err != nil || !ok {
		return 0, err
	}
	return d.memo.LoadSnapshot(&snap), nil
}

// Save writes the current memo contents back to the directory,
// creating it on first use.
func (d *DiskCache) Save() error {
	if d == nil {
		return nil
	}
	return d.dir.Save(memoSnapshotKind, d.memo.Snapshot())
}

// Stats returns the disk traffic counters: snapshot files loaded,
// memo hits served by disk-loaded entries, wholesale rejections.
func (d *DiskCache) Stats() cache.DiskStats {
	if d == nil {
		return cache.DiskStats{}
	}
	return cache.DiskStats{Loads: d.dir.Loads(), Hits: d.memo.DiskHits(), StaleRejects: d.dir.StaleRejects()}
}
