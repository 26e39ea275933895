package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"lasagne/internal/diag/inject"
	"lasagne/internal/durable"
)

// sweepRecords are the verdicts of the corruption sweeps, all in shard 1.
var sweepRecords = []struct {
	fp  Fingerprint
	st  Status
	msg string
}{
	{fpN(0x21, 1), StatusSound, ""},
	{fpN(0x21, 2), StatusUnsound, "SB: r0=0 r1=0"},
	{fpN(0x21, 3), StatusSound, ""},
	{fpN(0x21, 4), StatusUnsound, "IRIW: a=1 b=0 c=1 d=0"},
}

func fpN(b0, b15 byte) Fingerprint {
	fp := fpOf(b0)
	fp[15] = b15
	return fp
}

// writeSweepShard records sweepRecords into a fresh store and returns the
// store directory, the shard file's path and bytes, and each record's end
// offset in the file.
func writeSweepShard(t *testing.T, meta Meta) (dir, path string, data []byte, ends []int) {
	t.Helper()
	dir = t.TempDir()
	s, err := OpenStore(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	end := len(storeMagic)
	for _, r := range sweepRecords {
		s.ClaimFP(r.fp)
		if err := s.Record(r.fp, r.st, r.msg); err != nil {
			t.Fatal(err)
		}
		end += recHead + 4 + len(r.msg) + 4
		ends = append(ends, end)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(s.dir, "shard-01.bin")
	if data, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if len(data) != end {
		t.Fatalf("shard holds %d bytes, want %d", len(data), end)
	}
	return dir, path, data, ends
}

// checkDamagedShard reopens a store whose shard was damaged at offset off:
// every record ending at or before off must come back as a hit with its
// verdict and message, no later record may surface, and a verdict recorded
// after the recovery must survive Close and reopen.
func checkDamagedShard(t *testing.T, dir string, meta Meta, ends []int, off int) {
	t.Helper()
	s, err := OpenStore(dir, meta)
	if err != nil {
		t.Fatalf("damage at %d: %v", off, err)
	}
	for i, r := range sweepRecords {
		c, st := s.ClaimFP(r.fp)
		if ends[i] <= off {
			if c != ClaimHit || st != r.st || s.Message(r.fp) != r.msg {
				t.Fatalf("damage at %d: intact record %d came back as %v/%v %q", off, i, c, st, s.Message(r.fp))
			}
		} else if c != ClaimNew {
			t.Fatalf("damage at %d: damaged record %d surfaced as %v/%v", off, i, c, st)
		}
	}
	fresh := fpN(0x21, 0xee)
	s.ClaimFP(fresh)
	if err := s.Record(fresh, StatusUnsound, "after recovery"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if c, st := s2.ClaimFP(fresh); c != ClaimHit || st != StatusUnsound || s2.Message(fresh) != "after recovery" {
		t.Fatalf("damage at %d: verdict recorded after recovery came back as %v/%v", off, c, st)
	}
	for i, r := range sweepRecords {
		if c, _ := s2.ClaimFP(r.fp); (c == ClaimHit) != (ends[i] <= off) {
			t.Fatalf("damage at %d: record %d came back as %v after the round trip", off, i, c)
		}
	}
}

// TestStoreCrashSweepTruncation cuts a multi-record shard at every byte offset:
// the records wholly before the cut survive, nothing after it surfaces, and
// the store keeps appending correctly.
func TestStoreCrashSweepTruncation(t *testing.T) {
	meta := Meta{CheckerVersion: "sweep-trunc", Mapping: "a→b"}
	dir, path, data, ends := writeSweepShard(t, meta)
	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		checkDamagedShard(t, dir, meta, ends, cut)
	}
}

// TestStoreCrashSweepBitFlip flips every byte of a multi-record shard in turn. A
// flip in the magic makes the file foreign, which must fail the open; any
// other flip must lose exactly the records from the damaged one on.
func TestStoreCrashSweepBitFlip(t *testing.T) {
	meta := Meta{CheckerVersion: "sweep-flip", Mapping: "a→b"}
	dir, path, data, ends := writeSweepShard(t, meta)
	for i := range data {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0xff
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if i < len(storeMagic) {
			if s, err := OpenStore(dir, meta); err == nil {
				s.Close()
				t.Fatalf("flip at %d: a shard with a foreign magic opened", i)
			}
			continue
		}
		// The damaged record is the first one ending after the flipped byte.
		off := len(storeMagic)
		for _, end := range ends {
			if end > i {
				break
			}
			off = end
		}
		checkDamagedShard(t, dir, meta, ends, off)
	}
}

// TestStoreMetaPublishFailpoints fails each step of the meta.json publish in
// turn: the open must fail, and the next open must succeed with meta.json
// intact and no temp file left behind.
func TestStoreMetaPublishFailpoints(t *testing.T) {
	defer inject.Reset()
	meta := Meta{CheckerVersion: "fail-meta", Mapping: "a→b"}
	for _, point := range []string{storePoints.Write, storePoints.Fsync, storePoints.Rename, storePoints.Dirsync} {
		dir := t.TempDir()
		inject.Arm(point, inject.Fail)
		if s, err := OpenStore(dir, meta); err == nil {
			s.Close()
			t.Fatalf("%s: OpenStore succeeded with the meta publish failing", point)
		}
		inject.Reset()
		s, err := OpenStore(dir, meta)
		if err != nil {
			t.Fatalf("%s: reopen after the fault: %v", point, err)
		}
		checkMeta(t, s.dir, meta)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// checkMeta asserts the namespace directory holds exactly meta's JSON and no
// orphaned temp file.
func checkMeta(t *testing.T, dir string, meta Meta) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, metaFileName))
	if err != nil {
		t.Fatal(err)
	}
	var got Meta
	if err := json.Unmarshal(data, &got); err != nil || got != meta {
		t.Fatalf("meta.json = %q (%v), want %+v", data, err, meta)
	}
	names, _ := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	if len(names) != 0 {
		t.Fatalf("orphaned temp files: %v", names)
	}
}

// TestStoreShardCreateFailpoint fails the directory fsync that makes a newly
// created shard file's name durable: the open must fail, and the next one
// must create and sync the file again.
func TestStoreShardCreateFailpoint(t *testing.T) {
	defer inject.Reset()
	dir := t.TempDir()
	meta := Meta{CheckerVersion: "fail-create", Mapping: "a→b"}
	s, err := OpenStore(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	files := shardFiles(t, s)
	s.Close()
	os.Remove(files[0])
	inject.Arm(storePoints.Dirsync, inject.Fail)
	if s, err := OpenStore(dir, meta); err == nil {
		s.Close()
		t.Fatal("OpenStore succeeded with the new shard's directory fsync failing")
	}
	inject.Reset()
	if _, err := os.Stat(files[0]); !os.IsNotExist(err) {
		t.Fatalf("shard created without a durable name was left behind: %v", err)
	}
	s, err = OpenStore(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
}

// TestStoreFlushFailpoints fails Flush's append (the write of buffered
// records) and its fsync, then simulates a crash: the verdicts of the last
// successful Flush must all come back, and nothing but complete verdicts
// may surface.
func TestStoreFlushFailpoints(t *testing.T) {
	defer inject.Reset()
	for _, point := range []string{storePoints.Write, storePoints.Fsync} {
		dir := t.TempDir()
		meta := Meta{CheckerVersion: "fail-flush", Mapping: "a→b"}
		s, err := OpenStore(dir, meta)
		if err != nil {
			t.Fatal(err)
		}
		record := func(from, to int) {
			for i := from; i < to; i++ {
				fp := fpN(byte(i), byte(i))
				s.ClaimFP(fp)
				s.Record(fp, Status(1+i%2), strings.Repeat("x", i%2*i))
			}
		}
		record(0, 32)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		record(32, 64)
		inject.Arm(point, inject.Fail)
		var ie *inject.Error
		if err := s.Flush(); !errors.As(err, &ie) {
			t.Fatalf("%s: Flush = %v, want the injected error", point, err)
		}
		s.Close() // the crash: the fault still fires, so nothing more is written
		inject.Reset()

		s, err = OpenStore(dir, meta)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			fp := fpN(byte(i), byte(i))
			c, st := s.ClaimFP(fp)
			switch {
			case c == ClaimHit && (st != Status(1+i%2) || s.Message(fp) != strings.Repeat("x", i%2*i)):
				t.Fatalf("%s: verdict %d came back wrong: %v %q", point, i, st, s.Message(fp))
			case i < 32 && c != ClaimHit:
				t.Fatalf("%s: verdict %d from a successful Flush lost: %v", point, i, c)
			case i >= 32 && point == storePoints.Write && c != ClaimNew:
				t.Fatalf("%s: verdict %d never written, yet came back: %v", point, i, c)
			}
		}
		s.Close()
	}
}

// TestRunSurfacesFlushFailpoint: a campaign whose final Flush fails must
// report the error rather than claim its verdicts are persisted.
func TestRunSurfacesFlushFailpoint(t *testing.T) {
	defer inject.Reset()
	for _, point := range []string{storePoints.Write, storePoints.Fsync} {
		dir := t.TempDir()
		// Publish meta.json and create the shards first, so the armed point
		// is first reached by the campaign's Flush.
		s, err := OpenStore(dir, Meta{CheckerVersion: CheckerVersion, Mapping: DefaultMapping})
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		inject.Arm(point, inject.Fail)
		var ie *inject.Error
		if _, err := Run(context.Background(), Options{Bound: 1, Workers: 1, StateDir: dir}); !errors.As(err, &ie) {
			t.Fatalf("%s: Run = %v, want the injected Flush error", point, err)
		}
		inject.Reset()
		if _, err := Run(context.Background(), Options{Bound: 1, Workers: 1, StateDir: dir}); err != nil {
			t.Fatalf("%s: rerun after the fault: %v", point, err)
		}
	}
}

// TestConcurrentOpenStore opens one fresh store directory from two
// goroutines at once, many times: both opens must succeed and meta.json
// must be intact. Each publisher writes its own temp file, so neither can
// rename the other's away. Run under -race in CI.
func TestConcurrentOpenStore(t *testing.T) {
	meta := Meta{CheckerVersion: "concurrent-v1", Mapping: "a→b"}
	for round := 0; round < 20; round++ {
		dir := t.TempDir()
		stores := make([]*Store, 2)
		var wg sync.WaitGroup
		for g := range stores {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				s, err := OpenStore(dir, meta)
				if err != nil {
					t.Errorf("round %d: concurrent OpenStore: %v", round, err)
					return
				}
				stores[g] = s
			}(g)
		}
		wg.Wait()
		for _, s := range stores {
			if s != nil {
				checkMeta(t, s.dir, meta)
				s.Close()
			}
		}
	}
}

// TestStoreTruncatesAtUnknownStatus: a record whose checksum holds but
// whose status is neither sound nor unsound ends the replay like a torn
// record; the verdicts before it survive and none after it surface.
func TestStoreTruncatesAtUnknownStatus(t *testing.T) {
	meta := Meta{CheckerVersion: "bad-status", Mapping: "a→b"}
	dir, path, data, ends := writeSweepShard(t, meta)
	fp := fpN(0x21, 0x99)
	rec := append(fp[:], 3) // fp ‖ status 3
	rec = durable.Seal(append(rec, 0, 0, 0, 0))
	bad := append(append(append([]byte(nil), data[:ends[1]]...), rec...), data[ends[1]:]...)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	checkDamagedShard(t, dir, meta, ends, ends[1])
}
