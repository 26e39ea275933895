package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"lasagne/internal/diag/inject"
)

func TestSealDetectsEveryByteFlipAndTruncation(t *testing.T) {
	sealed := Seal([]byte("payload"))
	if p, ok := Unseal(sealed); !ok || string(p) != "payload" {
		t.Fatalf("Unseal(Seal(x)) = %q, %v", p, ok)
	}
	for i := range sealed {
		bad := append([]byte(nil), sealed...)
		bad[i] ^= 0xff
		if _, ok := Unseal(bad); ok {
			t.Errorf("flip at %d passed the checksum", i)
		}
		if _, ok := Unseal(sealed[:i]); ok {
			t.Errorf("truncation to %d bytes passed the checksum", i)
		}
	}
}

// TestPublishFailpoints fails each publish step in turn: the target keeps
// its previous content unless the rename already happened, and no temp file
// survives.
func TestPublishFailpoints(t *testing.T) {
	defer inject.Reset()
	fp := Points("test")
	for _, point := range []string{fp.Write, fp.Fsync, fp.Rename, fp.Dirsync} {
		dir := t.TempDir()
		path := filepath.Join(dir, "sub", "f")
		if err := Publish(path, []byte("old"), fp); err != nil {
			t.Fatal(err)
		}
		inject.Arm(point, inject.Fail)
		var ie *inject.Error
		if err := Publish(path, []byte("new"), fp); !errors.As(err, &ie) {
			t.Fatalf("%s: Publish = %v, want the injected error", point, err)
		}
		inject.Reset()
		want := "old"
		if point == fp.Dirsync {
			want = "new"
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Fatalf("%s: file holds %q (%v), want %q", point, got, err, want)
		}
		if tmps, _ := filepath.Glob(filepath.Join(dir, "sub", ".tmp-*")); len(tmps) != 0 {
			t.Fatalf("%s: orphaned temp files %v", point, tmps)
		}
	}
}

// TestLogTruncatesAtRejectedRecord: a record the caller rejects ends the
// replay like a torn one, and the next append overwrites it.
func TestLogTruncatesAtRejectedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	fp := Points("test")
	all := func([]byte, []byte) bool { return true }
	l, err := OpenLog(path, "TLG1", 2, fp, all)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"a", "bb", "ccc"} {
		if err := l.Append([]byte{'h', r[0]}, []byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var seen []string
	l, err = OpenLog(path, "TLG1", 2, fp, func(head, body []byte) bool {
		if string(body) == "bb" {
			return false
		}
		seen = append(seen, string(head)+"/"+string(body))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("hd"), []byte("dddd")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != "ha/a" {
		t.Fatalf("replay visited %v, want [ha/a]", seen)
	}
	var replayed bytes.Buffer
	l, err = OpenLog(path, "TLG1", 2, fp, func(head, body []byte) bool {
		replayed.WriteString(string(head) + "/" + string(body) + " ")
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if got := replayed.String(); got != "ha/a hd/dddd " {
		t.Fatalf("after truncation and append the log replays %q", got)
	}
}

// TestQuarantineFallsBackToDelete: when the quarantine directory cannot be
// made, the bad file is deleted rather than left live.
func TestQuarantineFallsBackToDelete(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "quarantine"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(root, "bad")
	if err := os.WriteFile(bad, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	Quarantine(root, bad)
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatalf("bad file still live: %v", err)
	}
}
