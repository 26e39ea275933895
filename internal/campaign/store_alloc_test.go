package campaign

import "testing"

// TestRecordSoundAllocatesNothing pins the append path's cost: recording a
// sound verdict on a disk-backed store seals the record straight into the
// shard's write buffer, with no allocation per call.
func TestRecordSoundAllocatesNothing(t *testing.T) {
	s, err := OpenStore(t.TempDir(), Meta{CheckerVersion: "alloc-v1", Mapping: "a→b"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fp := fpOf(3)
	s.ClaimFP(fp)
	if n := testing.AllocsPerRun(1000, func() { s.Record(fp, StatusSound, "") }); n != 0 {
		t.Fatalf("Record(sound) allocates %.1f times per call, want 0", n)
	}
}
