package campaign

import (
	"os"
	"path/filepath"
	"testing"
)

func fpOf(b byte) Fingerprint {
	var fp Fingerprint
	for i := range fp {
		fp[i] = b
	}
	return fp
}

func TestStoreClaimSemantics(t *testing.T) {
	dir := t.TempDir()
	meta := Meta{CheckerVersion: "test-v1", Mapping: "a→b"}
	s, err := OpenStore(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	fp := fpOf(1)
	if c, _ := s.ClaimFP(fp); c != ClaimNew {
		t.Fatalf("first claim: got %v, want ClaimNew", c)
	}
	if c, _ := s.ClaimFP(fp); c != ClaimDup {
		t.Fatalf("claim while pending: got %v, want ClaimDup", c)
	}
	if err := s.Record(fp, StatusUnsound, "witness"); err != nil {
		t.Fatal(err)
	}
	if c, st := s.ClaimFP(fp); c != ClaimDup || st != StatusUnsound {
		t.Fatalf("claim after record: got %v/%v, want ClaimDup/StatusUnsound", c, st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the recorded verdict is a hit exactly once, then a dup.
	s2, err := OpenStore(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if c, st := s2.ClaimFP(fp); c != ClaimHit || st != StatusUnsound {
		t.Fatalf("reopen claim: got %v/%v, want ClaimHit/StatusUnsound", c, st)
	}
	if got := s2.Message(fp); got != "witness" {
		t.Fatalf("message: got %q, want %q", got, "witness")
	}
	if c, _ := s2.ClaimFP(fp); c != ClaimDup {
		t.Fatalf("second reopen claim: got %v, want ClaimDup", c)
	}
}

func TestStoreMetaNamespacing(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenStore(dir, Meta{CheckerVersion: "v1", Mapping: "a→b"})
	if err != nil {
		t.Fatal(err)
	}
	fp := fpOf(2)
	s1.ClaimFP(fp)
	s1.Record(fp, StatusSound, "")
	s1.Close()

	// A different checker version must not see v1's verdicts.
	s2, err := OpenStore(dir, Meta{CheckerVersion: "v2", Mapping: "a→b"})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if c, _ := s2.ClaimFP(fp); c != ClaimNew {
		t.Fatalf("cross-version claim: got %v, want ClaimNew", c)
	}
}

// corruptTail appends or truncates shard files to simulate crashes.
func shardFiles(t *testing.T, s *Store) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(s.dir, "shard-*.bin"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no shard files under %s: %v", s.dir, err)
	}
	return files
}

func TestStoreTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	meta := Meta{CheckerVersion: "torn-v1", Mapping: "a→b"}
	s, err := OpenStore(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	var fps []Fingerprint
	for i := 0; i < 32; i++ {
		fp := fpOf(byte(i))
		fp[1] = byte(i * 3)
		fps = append(fps, fp)
		s.ClaimFP(fp)
		s.Record(fp, StatusSound, "")
	}
	files := shardFiles(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn append: garbage on every shard tail.
	for _, f := range files {
		fh, err := os.OpenFile(f, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		fh.Write([]byte{0xde, 0xad, 0xbe}) // shorter than a record header
		fh.Close()
	}
	s2, err := OpenStore(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range fps {
		if c, st := s2.ClaimFP(fp); c != ClaimHit || st != StatusSound {
			t.Fatalf("after torn tail, %s: got %v/%v, want hit/sound", fp, c, st)
		}
	}
	// The truncated tail must not break subsequent appends.
	nfp := fpOf(0xAA)
	s2.ClaimFP(nfp)
	s2.Record(nfp, StatusUnsound, "post-recovery")
	s2.Close()
	s3, err := OpenStore(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if c, st := s3.ClaimFP(nfp); c != ClaimHit || st != StatusUnsound {
		t.Fatalf("post-recovery record lost: got %v/%v", c, st)
	}
}

func TestStoreMidRecordTruncation(t *testing.T) {
	dir := t.TempDir()
	meta := Meta{CheckerVersion: "trunc-v1", Mapping: "a→b"}
	s, err := OpenStore(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	// Two records in one shard (same first byte → same shard).
	fp1, fp2 := fpOf(5), fpOf(5)
	fp2[15] = 99
	s.ClaimFP(fp1)
	s.Record(fp1, StatusSound, "")
	s.ClaimFP(fp2)
	s.Record(fp2, StatusSound, "")
	files := shardFiles(t, s)
	s.Close()

	// Chop the last few bytes off the populated shard: the second record
	// loses its CRC and must vanish; the first must survive.
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() > int64(len(storeMagic)) {
			if err := os.Truncate(f, st.Size()-2); err != nil {
				t.Fatal(err)
			}
		}
	}
	s2, err := OpenStore(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if c, st := s2.ClaimFP(fp1); c != ClaimHit || st != StatusSound {
		t.Fatalf("first record lost to truncation: got %v/%v", c, st)
	}
	if c, _ := s2.ClaimFP(fp2); c != ClaimNew {
		t.Fatalf("half-written record resurfaced: got %v, want ClaimNew", c)
	}
}

func TestStoreCorruptMagic(t *testing.T) {
	dir := t.TempDir()
	meta := Meta{CheckerVersion: "magic-v1", Mapping: "a→b"}
	s, err := OpenStore(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	files := shardFiles(t, s)
	s.Close()
	if err := os.WriteFile(files[0], []byte("NOPE-this-is-not-a-shard"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir, meta); err == nil {
		t.Fatal("opening a store with a foreign shard file must fail, got nil")
	}
}

func TestMemoryOnlyStore(t *testing.T) {
	s, err := OpenStore("", Meta{CheckerVersion: "m", Mapping: "a→b"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fp := fpOf(9)
	if c, _ := s.ClaimFP(fp); c != ClaimNew {
		t.Fatal("memory-only: first claim must be new")
	}
	if err := s.Record(fp, StatusSound, ""); err != nil {
		t.Fatal(err)
	}
	if c, st := s.ClaimFP(fp); c != ClaimDup || st != StatusSound {
		t.Fatalf("memory-only: got %v/%v", c, st)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}

// Message returns the stored counterexample for an unsound fingerprint.
func (s *Store) Message(fp Fingerprint) string {
	sh := s.shardOf(fp)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.msgs[fp]
}

// Len reports how many verdicts the store holds (recorded, not pending).
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, e := range sh.m {
			if !e.pending {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}
