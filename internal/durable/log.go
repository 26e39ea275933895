package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"lasagne/internal/diag/inject"
)

// Log is an append-only file of records after a magic header. Each record
// seals head ‖ len ‖ body: head has the fixed width the log was opened
// with, len is the body length as a little-endian uint32. A Log is not safe
// for concurrent use.
type Log struct {
	f  *os.File
	w  *bufio.Writer
	fp Failpoints
}

// OpenLog opens the log at path, creating it (and fsyncing its directory)
// if missing, and calls visit with every intact record in file order. The
// scan stops at the first torn or corrupt record or one visit rejects, and
// truncates the file there. A file shorter than the magic starts afresh;
// another magic is an error. visit's slices are only valid during the call.
func OpenLog(path, magic string, head int, fp Failpoints, visit func(head, body []byte) bool) (*Log, error) {
	_, statErr := os.Stat(path)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if errors.Is(statErr, fs.ErrNotExist) {
		if err := syncDir(filepath.Dir(path), fp); err != nil {
			f.Close()
			os.Remove(path) // so the next open creates it and syncs again
			return nil, err
		}
	}
	data, err := io.ReadAll(f)
	end := 0
	switch {
	case err != nil || len(data) < len(magic): // a read error, or a new or torn header
	case string(data[:len(magic)]) != magic:
		err = fmt.Errorf("foreign log file: magic %q", data[:len(magic)])
	default:
		end = len(magic)
		for rest := data[end:]; len(rest) >= head+4; rest = data[end:] {
			n := int(binary.LittleEndian.Uint32(rest[head:]))
			size := head + 4 + n + 4
			if len(rest) < size {
				break
			}
			rec, ok := Unseal(rest[:size])
			if !ok || !visit(rec[:head], rec[head+4:]) {
				break
			}
			end += size
		}
	}
	if err == nil {
		err = f.Truncate(int64(end)) // appends overwrite the damage
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	l := &Log{f: f, w: bufio.NewWriterSize(f, 1<<16), fp: fp}
	if end == 0 {
		l.w.WriteString(magic)
	}
	return l, nil
}

// Append buffers one record. head must have the width the log was opened
// with. A sealed record costs no allocation when it fits the buffer.
func (l *Log) Append(head, body []byte) error {
	rec := l.w.AvailableBuffer()
	rec = append(rec, head...)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(body)))
	rec = append(rec, body...)
	_, err := l.w.Write(Seal(rec))
	return err
}

// Sync writes the buffered records to the file and fsyncs it, making every
// Append so far durable.
func (l *Log) Sync() error {
	if err := inject.Hit(l.fp.Write); err != nil {
		return err
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := inject.Hit(l.fp.Fsync); err != nil {
		return err
	}
	return l.f.Sync()
}

// Close syncs the log and closes its file.
func (l *Log) Close() error {
	return errors.Join(l.Sync(), l.f.Close())
}
