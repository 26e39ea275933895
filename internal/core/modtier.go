package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"lasagne/internal/armlifter"
	"lasagne/internal/core/cache"
	"lasagne/internal/diag"
	"lasagne/internal/ir"
	"lasagne/internal/lifter"
	"lasagne/internal/obj"
)

// The module tier of the translation cache memoizes a whole object-to-object
// translation, keyed by the input object itself. It sits in front of
// lifting, so a hit skips disassembly, lifting, refinement, the fences
// prepass, the per-function suffix probes and the backend: it costs one
// marshal, one hash and one decode.
//
// The key has to be the whole module. Parameter promotion rewrites
// signatures and call sites module-wide, and the thread-local-globals
// prepass is a whole-module fact, so no per-function key taken before
// refinement could be sound. The per-function suffix tier still runs on a
// module miss, which is how an edited module reuses its unchanged functions.

// moduleKeyVersion names the semantics of everything in front of the
// suffix: the lifters, refinement, the fences prepass and the backends. Any
// change to what they emit for a given input must bump it, or stale module
// records would replay. (Changes to the suffix roll PipelineVersion, which
// the module key also hashes.)
const moduleKeyVersion = "core-module-v1"

// direction is one translation direction, and the only place that names a
// direction's lifter, fence placement and backend; everything else — the
// module tier, the lift stage, the pipeline — is shared.
type direction struct {
	name   string // separates the direction's module keys
	arch   string // the input object's architecture
	begin  func(bin *obj.File, bad func(obj.Symbol, error)) (frontEnd, error)
	place  bool   // place Frm/Fww fences (the strong→weak direction)
	target string // the backend's architecture
}

// frontEnd is one ISA's staged lifter, as the lift stage drives it: every
// decoded function is declared serially, then bodies are lifted on the
// worker pool.
type frontEnd interface {
	Names() []string
	Declare(i int) error
	LiftFunc(name string) error
	Module() *ir.Module
}

var (
	x86ToArm = direction{name: "x86-64>arm64", arch: "x86-64", place: true, target: "arm64",
		begin: func(bin *obj.File, bad func(obj.Symbol, error)) (frontEnd, error) {
			return lifter.BeginTolerant(bin, bad)
		}}
	armToX86 = direction{name: "arm64>x86-64", arch: "arm64", place: false, target: "x86-64",
		begin: func(bin *obj.File, bad func(obj.Symbol, error)) (frontEnd, error) {
			return armlifter.Begin(bin, bad)
		}}
)

// moduleFingerprint summarizes every Config field that can change the output
// bytes of a clean translation. Unlike Config.fingerprint it includes
// Refine, because the module key is taken before refinement. Jobs never
// changes the output; FuncBudget, AllowPartial, FuncDone and ReproDir only
// change degraded or failed results, which are never stored. Validate stays
// out too: a validated run bypasses the module tier.
func (c Config) moduleFingerprint() string {
	fp := fmt.Sprintf("refine=%t;merge=%t;opt=%t;verify=%t;weak=%t",
		c.Refine, c.MergeFences, c.Optimize, c.VerifyIR, c.WeakFences)
	if c.OptPasses != nil {
		fp += ";passes=" + strings.Join(c.OptPasses, ",")
	}
	return fp
}

// moduleKey is the content address of translating bin in direction d under
// cfg: SHA-256 over moduleKeyVersion ‖ PipelineVersion ‖ direction ‖ module
// fingerprint ‖ bin.Marshal(), each length-prefixed. obj.File.Marshal
// encodes every field of the object (architecture, entry, sections with
// their data, symbols), so any change to the input changes the key.
func moduleKey(d direction, cfg Config, bin *obj.File) cache.Key {
	h := sha256.New()
	var lenbuf [8]byte
	for _, b := range [][]byte{[]byte(moduleKeyVersion), []byte(PipelineVersion),
		[]byte(d.name), []byte(cfg.moduleFingerprint()), bin.Marshal()} {
		binary.LittleEndian.PutUint64(lenbuf[:], uint64(len(b)))
		h.Write(lenbuf[:])
		h.Write(b)
	}
	var k cache.Key
	h.Sum(k[:0])
	return k
}

// translate runs direction d behind the module tier. The tier is used when
// a cache is configured, validation is off and the context is still live
// (an expired context goes straight to the pipeline, which reports it
// exactly as an uncached run does). The probe is single-flight: concurrent
// translations of one module lift it once. Only clean translations are
// stored: no error, an empty report, nothing degraded, no hook abort.
func (d direction) translate(ctx context.Context, bin *obj.File, cfg Config) (*obj.File, *Stats, *diag.Report, error) {
	if cfg.Cache == nil || cfg.Validate || ctx.Err() != nil {
		out, stats, rep, _, err := d.run(ctx, bin, cfg, false)
		return out, stats, rep, err
	}
	key := moduleKey(d, cfg, bin)
	var (
		e  *cache.Entry
		ok bool
		fl *cache.Flight
	)
	if cfg.FuncDone == nil {
		e, ok, fl = cfg.Cache.GetOrBegin(ctx, key)
		if fl != nil {
			// Released on every exit path; a no-op once Complete ran.
			defer fl.Cancel()
		}
	} else {
		// A hooked run never leads a flight: its consumer may stall it for
		// as long as it likes (backpressure), and no other request should
		// wait behind that consumer. The suffix tier's flights, released
		// before each hook call, still deduplicate its work.
		e, ok = cfg.Cache.Get(key)
	}
	if ok {
		if rec, err := decodeModuleRecord(e.Body); err == nil {
			return rec.replay(cfg)
		}
		// An undecodable record falls through to recomputation.
	}
	out, stats, rep, events, err := d.run(ctx, bin, cfg, true)
	if err != nil || rep.Len() != 0 {
		// Every degradation, lift stub and hook abort leaves a diagnostic,
		// so an empty report means every event is keyed and clean.
		return out, stats, rep, err
	}
	// The publish is synchronous, disk write included, like the suffix
	// tier's: a caller that saw this translation succeed can rely on the
	// record being visible to the next probe.
	e = &cache.Entry{Body: encodeModuleRecord(out.Marshal(), stats, events)}
	if fl != nil {
		fl.Complete(e)
	} else {
		cfg.Cache.Put(key, e)
	}
	return out, stats, rep, nil
}

// moduleRecord is one decoded memoized translation: a fresh copy of the
// output object, the run's statistics and every function's FuncEvent in
// module order.
type moduleRecord struct {
	out    *obj.File
	stats  Stats
	events []FuncEvent
}

// replay returns the memoized translation with an empty report, replaying
// every FuncEvent through cfg.FuncDone in module order as a cache hit. A
// hook error fails the translation exactly as it does in the pipeline.
func (r *moduleRecord) replay(cfg Config) (*obj.File, *Stats, *diag.Report, error) {
	rep := diag.NewReport()
	stats := r.stats
	stats.CacheHits, stats.CacheMisses = len(r.events), 0
	if cfg.FuncDone != nil {
		for _, ev := range r.events {
			if err := cfg.FuncDone(ev); err != nil {
				return nil, &stats, rep, hookAbort(rep, err)
			}
		}
	}
	return r.out, &stats, rep, nil
}

// counters lists every Stats field, in the order the module record stores
// them.
func (s *Stats) counters() []*int {
	return []*int{&s.LiftedInstrs, &s.FinalInstrs, &s.PtrCastsBefore, &s.PtrCastsAfter,
		&s.FencesPlaced, &s.FencesMerged, &s.FencesFinal, &s.AcquireLoads, &s.ReleaseStores,
		&s.RefineRewrites, &s.PromotedParams, &s.CacheHits, &s.CacheMisses}
}

// moduleRecordMagic opens every module record, so a record is never
// confused with a function entry's body.
const moduleRecordMagic = "LMR1"

// encodeModuleRecord serializes a record: the magic, the Stats counters as
// varints, the length-prefixed object, then the event count and per event
// its name, 32-byte key, length-prefixed body and fence counts.
func encodeModuleRecord(object []byte, stats *Stats, events []FuncEvent) []byte {
	b := append([]byte(nil), moduleRecordMagic...)
	for _, c := range stats.counters() {
		b = binary.AppendVarint(b, int64(*c))
	}
	b = binary.AppendUvarint(b, uint64(len(object)))
	b = append(b, object...)
	b = binary.AppendUvarint(b, uint64(len(events)))
	for _, ev := range events {
		b = binary.AppendUvarint(b, uint64(len(ev.Func)))
		b = append(b, ev.Func...)
		b = append(b, ev.Key[:]...)
		b = binary.AppendUvarint(b, uint64(len(ev.Body)))
		b = append(b, ev.Body...)
		b = binary.AppendVarint(b, int64(ev.Placed))
		b = binary.AppendVarint(b, int64(ev.Merged))
	}
	return b
}

var errBadRecord = errors.New("core: malformed module record")

// recordReader decodes a module record; the first failure sticks in err.
type recordReader struct {
	b   []byte
	err error
}

func (r *recordReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = errBadRecord
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *recordReader) varint() int {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.err = errBadRecord
		return 0
	}
	r.b = r.b[n:]
	return int(v)
}

// bytes returns the next n bytes without copying: event bodies alias the
// cache entry, as suffix-tier hits do.
func (r *recordReader) bytes(n uint64) []byte {
	if r.err != nil || n > uint64(len(r.b)) {
		r.err = errBadRecord
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// decodeModuleRecord parses a record made by encodeModuleRecord, including
// its object; any malformation is an error.
func decodeModuleRecord(b []byte) (*moduleRecord, error) {
	if len(b) < len(moduleRecordMagic) || string(b[:len(moduleRecordMagic)]) != moduleRecordMagic {
		return nil, errBadRecord
	}
	r := &recordReader{b: b[len(moduleRecordMagic):]}
	rec := &moduleRecord{}
	for _, c := range rec.stats.counters() {
		*c = r.varint()
	}
	object := r.bytes(r.uvarint())
	n := r.uvarint()
	if n > uint64(len(r.b)) { // every event takes more than a byte
		return nil, errBadRecord
	}
	rec.events = make([]FuncEvent, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		ev := FuncEvent{Keyed: true, CacheHit: true}
		ev.Func = string(r.bytes(r.uvarint()))
		copy(ev.Key[:], r.bytes(uint64(len(ev.Key))))
		ev.Body = r.bytes(r.uvarint())
		ev.Placed = r.varint()
		ev.Merged = r.varint()
		rec.events = append(rec.events, ev)
	}
	if r.err != nil || len(r.b) != 0 {
		return nil, errBadRecord
	}
	out, err := obj.Unmarshal(object)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errBadRecord, err)
	}
	rec.out = out
	return rec, nil
}
