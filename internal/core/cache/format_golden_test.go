package cache

import (
	"encoding/hex"
	"os"
	"testing"
)

// goldenEntryFile is the exact on-disk image of one LCE2 entry file:
// magic, format version, FencesPlaced, FencesMerged, body length, body,
// CRC-32C. Any change to these bytes is a format change and needs a new
// magic, not an edit here.
const goldenEntryFile = "4c434532" + "02000000" + // "LCE2", version 2
	"0700000000000000" + "0300000000000000" + "0e00000000000000" +
	"676f6c64656e20626f64792000ff" + "931dafbf"

// TestEntryFormatGolden pins the disk entry format byte for byte, and checks
// that the pinned image reads back as the entry it was written from.
func TestEntryFormatGolden(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	k := keyN(0x5a, 0xa5)
	c.Put(k, &Entry{Body: []byte("golden body \x00\xff"), FencesPlaced: 7, FencesMerged: 3})
	data, err := os.ReadFile(c.path(k))
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != goldenEntryFile {
		t.Fatalf("entry file bytes changed:\n got %s\nwant %s", got, goldenEntryFile)
	}

	want, _ := hex.DecodeString(goldenEntryFile)
	if err := os.WriteFile(c.path(k), want, 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := c2.Get(k)
	if !ok || string(e.Body) != "golden body \x00\xff" || e.FencesPlaced != 7 || e.FencesMerged != 3 {
		t.Fatalf("golden entry read back as %+v, %v", e, ok)
	}
}
