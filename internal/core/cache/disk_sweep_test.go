package cache

import (
	"os"
	"path/filepath"
	"testing"

	"lasagne/internal/durable"
)

// sweepEntryDamage writes each damaged image of one entry file in turn and
// requires a fresh cache to quarantine it: never served, counted once,
// moved out of its live path into quarantine/.
func sweepEntryDamage(t *testing.T, damage func(data []byte, i int) []byte) {
	dir := t.TempDir()
	c, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	k := keyN(0x3c, 9)
	c.Put(k, testEntry(9))
	p := c.path(k)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(data); i++ {
		if err := os.WriteFile(p, damage(append([]byte(nil), data...), i), 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir, 8)
		if err != nil {
			t.Fatal(err)
		}
		if e, ok := r.Get(k); ok {
			t.Fatalf("damage at %d: entry served (%q)", i, e.Body)
		}
		if h := r.Health(); h.Quarantined != 1 {
			t.Fatalf("damage at %d: Quarantined = %d, want 1", i, h.Quarantined)
		}
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("damage at %d: entry still at its live path", i)
		}
		if _, err := os.Stat(filepath.Join(dir, "quarantine", filepath.Base(p))); err != nil {
			t.Fatalf("damage at %d: entry not in quarantine: %v", i, err)
		}
	}
}

// TestEntryCrashSweepTruncation cuts an entry file at every byte offset.
func TestEntryCrashSweepTruncation(t *testing.T) {
	sweepEntryDamage(t, func(data []byte, i int) []byte { return data[:i] })
}

// TestEntryCrashSweepBitFlip flips every byte of an entry file in turn,
// including the magic, the version and the length fields.
func TestEntryCrashSweepBitFlip(t *testing.T) {
	sweepEntryDamage(t, func(data []byte, i int) []byte {
		data[i] ^= 0xff
		return data
	})
}

// TestStaleVersionEntryRemoved: an intact LCE2 file carrying another
// format version is stale, not corrupt — removed silently, never served or
// quarantined.
func TestStaleVersionEntryRemoved(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	k := keyN(0x3d, 10)
	c.Put(k, testEntry(10))
	p := c.path(k)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := durable.Unseal(data)
	payload[len(diskMagic)] = diskVersion + 1
	if err := os.WriteFile(p, durable.Seal(payload), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get(k); ok {
		t.Fatal("entry of another format version was served")
	}
	if h := r.Health(); h.Quarantined != 0 {
		t.Errorf("stale entry was quarantined (Quarantined=%d), want silent removal", h.Quarantined)
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Error("stale-version entry not removed")
	}
}

// TestFailpointNames: the exported failpoint names are the ones the disk
// layer passes.
func TestFailpointNames(t *testing.T) {
	if want := (durable.Failpoints{Write: InjectWrite, Fsync: InjectFsync, Rename: InjectRename, Dirsync: InjectDirsync}); diskPoints != want {
		t.Fatalf("disk layer failpoints %+v, exported names %+v", diskPoints, want)
	}
}
