package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"lasagne/internal/durable"
)

// This file implements the campaign verdict store: a sharded on-disk map
// from canonical program fingerprint to mapping verdict, in internal/durable
// logs. A verdict that was claimed but not yet durably recorded when a
// campaign died is simply rechecked by the next run; a verdict recorded
// before a successful Flush is never rechecked and never lost.

// Status is a persisted mapping verdict.
type Status uint8

const (
	// StatusSound: the mapping preserved all behaviors on this program.
	StatusSound Status = 1
	// StatusUnsound: the check found target-only behaviors; the record
	// carries the counterexample message.
	StatusUnsound Status = 2
)

// Claim classifies a fingerprint's first presentation to the store.
type Claim uint8

const (
	// ClaimNew: never seen — the caller owns checking it and must Record.
	ClaimNew Claim = iota
	// ClaimHit: verdict loaded from a previous run's shard files.
	ClaimHit
	// ClaimDup: already claimed or recorded earlier in this run.
	ClaimDup
)

// Meta namespaces a store directory: verdicts are only comparable between
// identical checker versions and mapping chains, so each distinct Meta gets
// its own shard-file subdirectory (named by a hash of the canonical JSON).
type Meta struct {
	CheckerVersion string `json:"checker_version"`
	Mapping        string `json:"mapping"` // e.g. "x86→IR→arm"
}

const (
	storeMagic   = "LCS1"
	numShards    = 16
	maxMsgLen    = 1 << 16 // counterexample messages are truncated to this
	metaFileName = "meta.json"
	// recHead is a record's fixed-width head, fp ‖ status; the durable.Log
	// adds the message length and the seal: fp ‖ status ‖ len ‖ msg ‖ CRC.
	recHead = len(Fingerprint{}) + 1
)

// storePoints are the failpoints of the meta publish and the shard logs.
var storePoints = durable.Points("campaign")

type entry struct {
	status   Status
	fromDisk bool
	pending  bool // claimed this run, verdict not yet recorded
}

type storeShard struct {
	mu sync.Mutex
	m  map[Fingerprint]entry
	// msgs keeps unsound counterexample messages; almost every verdict is
	// sound, so they live outside the hot map's value type.
	msgs map[Fingerprint]string

	log *durable.Log // nil in memory-only mode
}

// Store maps canonical fingerprints to verdicts, in memory and (unless
// opened with an empty directory) durably on disk. All methods are safe for
// concurrent use.
type Store struct {
	dir    string // "" = memory only
	shards [numShards]storeShard
}

// OpenStore opens (creating as needed) the verdict store for meta under
// dir, replaying existing shard files into memory. An empty dir yields a
// memory-only store: same semantics, nothing persisted.
func OpenStore(dir string, meta Meta) (*Store, error) {
	s := &Store{}
	for i := range s.shards {
		s.shards[i].m = make(map[Fingerprint]entry)
		s.shards[i].msgs = make(map[Fingerprint]string)
	}
	if dir == "" {
		return s, nil
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	sub := fmt.Sprintf("%x", durable.Checksum(metaJSON))
	s.dir = filepath.Join(dir, fmt.Sprintf("%s-%s-%s", sanitize(meta.CheckerVersion), sanitize(meta.Mapping), sub))
	// Publish creates the directory; identical metadata is left alone.
	metaPath := filepath.Join(s.dir, metaFileName)
	if old, err := os.ReadFile(metaPath); err != nil || string(old) != string(metaJSON) {
		if err := durable.Publish(metaPath, metaJSON, storePoints); err != nil {
			return nil, err
		}
	}
	for i := range s.shards {
		if err := s.openShard(i); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// sanitize keeps directory names portable.
func sanitize(v string) string {
	out := make([]byte, 0, len(v))
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '.' {
			out = append(out, c)
		} else {
			out = append(out, '_')
		}
	}
	return string(out)
}

// openShard replays shard i's log into memory and keeps it open to append.
func (s *Store) openShard(i int) error {
	sh := &s.shards[i]
	path := filepath.Join(s.dir, fmt.Sprintf("shard-%02x.bin", i))
	log, err := durable.OpenLog(path, storeMagic, recHead, storePoints, func(head, msg []byte) bool {
		st := Status(head[recHead-1])
		if st != StatusSound && st != StatusUnsound {
			return false
		}
		fp := Fingerprint(head)
		sh.m[fp] = entry{status: st, fromDisk: true}
		if st == StatusUnsound {
			sh.msgs[fp] = string(msg)
		}
		return true
	})
	if err != nil {
		return fmt.Errorf("campaign store shard %02x: %w", i, err)
	}
	sh.log = log
	return nil
}

func (s *Store) shardOf(fp Fingerprint) *storeShard {
	return &s.shards[fp[0]&(numShards-1)]
}

// ClaimFP presents a fingerprint. ClaimNew means the caller must check the
// program and Record the verdict; ClaimHit returns the persisted verdict;
// ClaimDup means this run already saw the fingerprint (its verdict, when
// already recorded, is returned too).
func (s *Store) ClaimFP(fp Fingerprint) (Claim, Status) {
	sh := s.shardOf(fp)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.m[fp]
	if !ok {
		sh.m[fp] = entry{pending: true}
		return ClaimNew, 0
	}
	if e.pending {
		return ClaimDup, 0
	}
	if e.fromDisk {
		// First presentation this run: report the hit, then treat repeats
		// as in-run duplicates.
		e.fromDisk = false
		sh.m[fp] = e
		return ClaimHit, e.status
	}
	return ClaimDup, e.status
}

// Record stores the verdict for a fingerprint claimed ClaimNew and appends
// it to the shard file. msg carries the counterexample for unsound
// verdicts and is ignored for sound ones.
func (s *Store) Record(fp Fingerprint, st Status, msg string) error {
	if st == StatusSound {
		msg = ""
	} else if len(msg) > maxMsgLen {
		msg = msg[:maxMsgLen]
	}
	sh := s.shardOf(fp)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.m[fp] = entry{status: st}
	if st == StatusUnsound {
		sh.msgs[fp] = msg
	}
	if sh.log == nil {
		return nil
	}
	var head [recHead]byte
	copy(head[:], fp[:])
	head[recHead-1] = byte(st)
	return sh.log.Append(head[:], []byte(msg))
}

// Flush syncs every shard log, making every Record so far durable.
func (s *Store) Flush() error {
	return s.eachLog(func(sh *storeShard) error { return sh.log.Sync() })
}

// Close syncs and closes the shard logs. The store is unusable after.
func (s *Store) Close() error {
	return s.eachLog(func(sh *storeShard) error {
		err := sh.log.Close()
		sh.log = nil
		return err
	})
}

// eachLog applies op, under the shard lock, to every shard with an open log.
func (s *Store) eachLog(op func(*storeShard) error) error {
	var errs []error
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if sh.log != nil {
			errs = append(errs, op(sh))
		}
		sh.mu.Unlock()
	}
	return errors.Join(errs...)
}
