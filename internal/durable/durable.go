// Package durable is the one crash-safe file format behind the
// translation cache's entry files and the campaign verdict shards. Every
// durable unit is a sealed payload, payload ‖ CRC-32C(payload): the
// checksum catches a torn or bit-flipped unit that a crash or a bad disk
// left behind with a plausible length. Whole files are published
// atomically (Publish), records go to append-only logs that replay up to
// the first bad record (Log), and a file that fails its checks is moved
// aside (Quarantine). Each disk step passes a diag/inject failpoint named
// "<prefix>:write|fsync|rename|dirsync" after its caller.
package durable

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"lasagne/internal/diag/inject"
)

var table = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C of data.
func Checksum(data []byte) uint32 { return crc32.Checksum(data, table) }

// Seal appends the payload's CRC-32C to it and returns the sealed image.
func Seal(payload []byte) []byte {
	return binary.LittleEndian.AppendUint32(payload, Checksum(payload))
}

// Unseal returns the payload of a sealed image and whether its checksum
// matches. The payload aliases sealed.
func Unseal(sealed []byte) (payload []byte, ok bool) {
	if len(sealed) < 4 {
		return nil, false
	}
	payload = sealed[:len(sealed)-4]
	return payload, Checksum(payload) == binary.LittleEndian.Uint32(sealed[len(payload):])
}

// Failpoints names the diag/inject points a store's disk steps pass: before
// writing data, each file fsync, the publishing rename, each directory fsync.
type Failpoints struct{ Write, Fsync, Rename, Dirsync string }

// Points returns the failpoints "<prefix>:write", ":fsync", ":rename", ":dirsync".
func Points(prefix string) Failpoints {
	return Failpoints{prefix + ":write", prefix + ":fsync", prefix + ":rename", prefix + ":dirsync"}
}

// Publish atomically replaces path with data: it writes a fresh temp file in
// path's directory (created if missing), fsyncs it, renames it over path,
// and fsyncs the directory so the rename survives power loss. A crash at any
// point leaves at worst an orphaned ".tmp-*" file, never a partial file.
func Publish(path string, data []byte, fp Failpoints) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	err = inject.Hit(fp.Write)
	if err == nil {
		_, err = tmp.Write(data)
	}
	if err == nil {
		err = inject.Hit(fp.Fsync)
	}
	if err == nil {
		err = tmp.Sync()
	}
	err = errors.Join(err, tmp.Close())
	if err == nil {
		err = inject.Hit(fp.Rename)
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(dir, fp)
}

// syncDir fsyncs a directory so the names just created or renamed in it last.
func syncDir(dir string, fp Failpoints) error {
	if err := inject.Hit(fp.Dirsync); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}

// Quarantine moves a file that failed its checks into root/quarantine/, to
// stay inspectable but never be served again, or deletes it if that fails.
func Quarantine(root, path string) {
	qdir := filepath.Join(root, "quarantine")
	err := os.MkdirAll(qdir, 0o755)
	if err == nil {
		err = os.Rename(path, filepath.Join(qdir, filepath.Base(path)))
	}
	if err != nil {
		os.Remove(path)
	}
}

// Retry rides out transient I/O failures (EINTR, a brief ENOSPC, a network
// filesystem hiccuping): it calls fn until it succeeds, at most retries
// times more, sleeping wait, 2·wait, … capped at maxWait in between, and
// returns fn's last error.
func Retry(retries int, wait, maxWait time.Duration, sleep func(time.Duration), fn func() error) error {
	err := fn()
	for ; err != nil && retries > 0; retries-- {
		sleep(wait)
		wait = min(2*wait, maxWait)
		err = fn()
	}
	return err
}
