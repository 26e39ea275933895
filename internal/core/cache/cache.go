// Package cache implements the content-addressed translation cache of the
// pipeline. It holds two kinds of entry, both opaque bodies to this package:
//
//   - module records (made by internal/core): keyed by the whole input
//     object and the output-affecting configuration, a hit replays the whole
//     translation for an unchanged module, without lifting it;
//   - function entries: the function-local suffix of the translation (fence
//     placement, fence merging, the optimization pipeline) keyed by a hash of
//     everything that can influence its output — the pipeline version
//     string, the Config fingerprint, and the canonical byte encoding of the
//     function's signature and body at suffix entry (KeyFor). They serve a
//     module miss, so a changed module reuses its unchanged functions.
//
// Function entries hold the post-pipeline body in the same canonical
// encoding plus the per-function statistics deltas, so a hit reproduces the
// function byte-for-byte without running any pass. Only clean results are
// stored: degraded/fallback results must re-run (and re-diagnose) every
// time.
//
// The in-memory layer is a bounded LRU, sharded by key prefix so the
// many-goroutine probe/fill traffic of a long-lived server never serializes
// on one lock. An optional directory adds a persistent second level shared
// across processes. It is crash-safe through internal/durable: each entry
// file is a sealed payload published atomically, its checksum is verified
// on every read, and a corrupt or truncated file is quarantined — moved
// aside, counted, and treated as a miss — never returned. Disk writes retry
// transient failures with capped exponential backoff and remain
// best-effort: a write that still fails only costs future recomputation.
package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"lasagne/internal/durable"
	"lasagne/internal/ir"
)

// Key is the content address of one function translation: a SHA-256 over
// (pipeline version ‖ config fingerprint ‖ signature bytes ‖ body bytes).
type Key [sha256.Size]byte

// KeyFor computes the cache key for translating function f under the given
// pipeline version and configuration fingerprint. The hash covers the
// function's canonical encoded signature and body, so any semantic change
// to the input IR changes the key.
func KeyFor(version, fingerprint string, f *ir.Func) Key {
	h := sha256.New()
	var lenbuf [8]byte
	put := func(b []byte) {
		binary.LittleEndian.PutUint64(lenbuf[:], uint64(len(b)))
		h.Write(lenbuf[:])
		h.Write(b)
	}
	put([]byte(version))
	put([]byte(fingerprint))
	put(EncodeSignature(f))
	put(EncodeBody(f))
	var k Key
	h.Sum(k[:0])
	return k
}

// Entry is one memoized function translation: the encoded post-pipeline body
// plus the statistics deltas the suffix stages would have reported.
type Entry struct {
	Body []byte // canonical encoding of the post-pipeline body

	// Per-function statistics deltas, replayed into core.Stats on a hit.
	FencesPlaced int
	FencesMerged int
}

// numShards splits the in-memory LRU by key prefix. SHA-256 keys are
// uniform, so the first byte spreads load evenly; 16 shards keeps lock
// hold times negligible at server concurrency without bloating the struct.
const numShards = 16

// shard is one lock-striped slice of the in-memory LRU.
type shard struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[Key]*list.Element
}

// Cache is a two-level (memory, optionally disk) translation cache. All
// methods are safe for concurrent use; the worker pool of the parallel
// pipeline — and, in the daemon, many concurrent requests — probe and fill
// it from many goroutines.
type Cache struct {
	shards [numShards]shard

	dir string // "" = memory only

	hits        atomic.Int64
	misses      atomic.Int64
	flightWaits atomic.Int64 // misses served by waiting on another caller's computation
	quarantined atomic.Int64 // corrupt disk entries moved aside
	diskErrors  atomic.Int64 // disk writes that failed even after retries

	flmu    sync.Mutex
	flights map[Key]*Flight
}

type lruItem struct {
	key   Key
	entry *Entry
}

// DefaultMaxEntries bounds the in-memory layer when callers pass 0.
const DefaultMaxEntries = 4096

// New returns a memory-only cache holding roughly maxEntries entries
// (DefaultMaxEntries if maxEntries <= 0). The bound is enforced per shard —
// ceil(maxEntries/numShards) each — so with the uniform SHA-256 key
// distribution total occupancy converges on maxEntries while eviction never
// takes a cross-shard lock.
func New(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	perShard := (maxEntries + numShards - 1) / numShards
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache{flights: map[Key]*Flight{}}
	for i := range c.shards {
		c.shards[i].max = perShard
		c.shards[i].ll = list.New()
		c.shards[i].items = make(map[Key]*list.Element)
	}
	return c
}

// Open returns a cache backed by dir as a persistent second level. The
// directory is created if missing. Disk reads and writes are best-effort:
// I/O errors fall back to recomputation, never fail a translation.
func Open(dir string, maxEntries int) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	c := New(maxEntries)
	c.dir = dir
	return c, nil
}

func (c *Cache) shard(k Key) *shard { return &c.shards[int(k[0])%numShards] }

// Get returns the entry for k and whether it was present in either level.
// A disk hit is promoted into the memory layer.
func (c *Cache) Get(k Key) (*Entry, bool) {
	if e, ok := c.get(k); ok {
		c.hits.Add(1)
		return e, true
	}
	c.misses.Add(1)
	return nil, false
}

// get is Get without the hit/miss accounting, shared with the single-flight
// retry loop (whose re-probes must not inflate the counters).
func (c *Cache) get(k Key) (*Entry, bool) {
	s := c.shard(k)
	s.mu.Lock()
	if el, ok := s.items[k]; ok {
		s.ll.MoveToFront(el)
		e := el.Value.(*lruItem).entry
		s.mu.Unlock()
		return e, true
	}
	s.mu.Unlock()

	if c.dir != "" {
		path := c.path(k)
		e, err := readEntryFile(path)
		switch {
		case err == nil:
			c.insert(k, e)
			return e, true
		case errors.Is(err, errBadEntry):
			// Never trust a corrupt or truncated entry: move it aside so it
			// stops matching, keep it for post-mortem, and recompute.
			durable.Quarantine(c.dir, path)
			c.quarantined.Add(1)
		case errors.Is(err, errStaleEntry):
			// A valid file in an older format: silently superseded.
			_ = os.Remove(path)
		}
	}
	return nil, false
}

// Put stores the entry for k in the memory layer and, when configured, on
// disk. The caller must not mutate the entry afterwards.
func (c *Cache) Put(k Key, e *Entry) {
	c.insert(k, e)
	if c.dir != "" {
		// Best effort: a failed write only costs future recomputation.
		path, image := c.path(k), encodeEntry(e)
		publish := func() error { return durable.Publish(path, image, diskPoints) }
		if err := durable.Retry(writeRetries, writeBackoffBase, writeBackoffMax, retrySleep, publish); err != nil {
			c.diskErrors.Add(1)
		}
	}
}

func (c *Cache) insert(k Key, e *Entry) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[k]; ok {
		s.ll.MoveToFront(el)
		el.Value.(*lruItem).entry = e
		return
	}
	s.items[k] = s.ll.PushFront(&lruItem{key: k, entry: e})
	for s.ll.Len() > s.max {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.items, oldest.Value.(*lruItem).key)
	}
}

// Len returns the number of entries in the memory layer.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Health is a point-in-time snapshot of the cache's counters, exposed by
// the daemon's health endpoints.
type Health struct {
	Entries     int   `json:"entries"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	FlightWaits int64 `json:"flight_waits"`
	Quarantined int64 `json:"quarantined"`
	DiskErrors  int64 `json:"disk_errors"`
}

// Health snapshots the cache counters.
func (c *Cache) Health() Health {
	return Health{
		Entries:     c.Len(),
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		FlightWaits: c.flightWaits.Load(),
		Quarantined: c.quarantined.Load(),
		DiskErrors:  c.diskErrors.Load(),
	}
}

func (c *Cache) path(k Key) string {
	name := hex.EncodeToString(k[:])
	// Shard by the first byte to keep directories small.
	return filepath.Join(c.dir, name[:2], name[2:]+".lce")
}

// Disk format v2: a sealed payload (see internal/durable) of magic, format
// version, stats fields, body length and body bytes.
const (
	diskMagic   = "LCE2"
	diskVersion = 2
	diskHeader  = len(diskMagic) + 4 + 3*8
)

// Failpoint names for the disk layer (the durable.Points of "cache"), armed
// by crash-safety tests to simulate kill-during-write and transient faults.
const (
	InjectWrite   = "cache:write"   // before writing the temp file
	InjectFsync   = "cache:fsync"   // before fsyncing the temp file
	InjectRename  = "cache:rename"  // before the publishing rename
	InjectDirsync = "cache:dirsync" // before fsyncing the parent directory
)

var diskPoints = durable.Points("cache")

var (
	errBadEntry   = errors.New("cache: bad disk entry")
	errStaleEntry = errors.New("cache: stale disk entry format")
)

// Disk write retry policy. retrySleep is swappable so tests exercise the
// retry loop without real sleeps.
var (
	writeRetries     = 3
	writeBackoffBase = time.Millisecond
	writeBackoffMax  = 10 * time.Millisecond
	retrySleep       = time.Sleep
)

func encodeEntry(e *Entry) []byte {
	buf := make([]byte, 0, diskHeader+len(e.Body)+4)
	buf = append(buf, diskMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, diskVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.FencesPlaced))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.FencesMerged))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(e.Body)))
	buf = append(buf, e.Body...)
	return durable.Seal(buf)
}

// readEntryFile checks the seal before anything else, so any damage —
// including to the version field — quarantines the file.
func readEntryFile(path string) (*Entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) >= 4 && string(data[:4]) == "LCE1" {
		return nil, errStaleEntry
	}
	p, ok := durable.Unseal(data)
	if !ok || len(p) < diskHeader || string(p[:len(diskMagic)]) != diskMagic ||
		binary.LittleEndian.Uint64(p[diskHeader-8:]) != uint64(len(p)-diskHeader) {
		return nil, errBadEntry
	}
	if binary.LittleEndian.Uint32(p[len(diskMagic):]) != diskVersion {
		return nil, errStaleEntry
	}
	return &Entry{
		Body:         p[diskHeader:],
		FencesPlaced: int(binary.LittleEndian.Uint64(p[len(diskMagic)+4:])),
		FencesMerged: int(binary.LittleEndian.Uint64(p[len(diskMagic)+12:])),
	}, nil
}
