package campaign

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// goldenShardDir and goldenShardFile are the exact on-disk image of a
// verdict store holding one sound and one unsound verdict in one shard:
// the namespace directory name (sanitized checker version and mapping plus
// the CRC-32C of meta.json), then the LCS1 magic and two
// fp‖status‖len‖msg‖CRC-32C records. Any change to these bytes is a format
// change and needs a new magic, not an edit here.
const (
	goldenShardDir  = "golden-v1-x86___IR___arm-63b7e925"
	goldenShardFile = "4c435331" + // "LCS1"
		"31313131313131313131313131313131" + "01" + "00000000" + "41de1e4c" +
		"3131313131313131313131313131317e" + "02" + "0d000000" +
		"4d503a2072303d312072313d30" + "4ba6dc5a"
)

// TestShardFormatGolden pins the verdict store format byte for byte, and
// checks that the pinned image replays as the verdicts it was written from.
func TestShardFormatGolden(t *testing.T) {
	dir := t.TempDir()
	meta := Meta{CheckerVersion: "golden-v1", Mapping: "x86→IR→arm"}
	s, err := OpenStore(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	sound, unsound := fpOf(0x31), fpOf(0x31)
	unsound[15] = 0x7e
	s.ClaimFP(sound)
	s.ClaimFP(unsound)
	if err := s.Record(sound, StatusSound, "ignored for sound verdicts"); err != nil {
		t.Fatal(err)
	}
	if err := s.Record(unsound, StatusUnsound, "MP: r0=1 r1=0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := filepath.Base(s.dir); got != goldenShardDir {
		t.Fatalf("namespace directory = %q, want %q", got, goldenShardDir)
	}
	path := filepath.Join(s.dir, "shard-01.bin")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != goldenShardFile {
		t.Fatalf("shard file bytes changed:\n got %s\nwant %s", got, goldenShardFile)
	}

	want, _ := hex.DecodeString(goldenShardFile)
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if c, st := s2.ClaimFP(sound); c != ClaimHit || st != StatusSound {
		t.Fatalf("golden sound verdict replayed as %v/%v", c, st)
	}
	if c, st := s2.ClaimFP(unsound); c != ClaimHit || st != StatusUnsound {
		t.Fatalf("golden unsound verdict replayed as %v/%v", c, st)
	}
	if got := s2.Message(unsound); got != "MP: r0=1 r1=0" {
		t.Fatalf("golden counterexample = %q", got)
	}
}
