// Package campaign implements the incremental litmus campaign engine behind
// `litmus -campaign`: bounded exhaustive Theorem 7.1 verification over the
// generated x86 program family, made affordable by three multiplying layers.
//
// Symmetry reduction: the generated family is hugely redundant — programs
// that differ only by thread order, by a consistent renaming of locations
// and (nonzero) written values, or by semantically inert fence placement
// (leading/trailing fences, adjacent duplicate fences) have isomorphic
// behavior sets and identical mapping verdicts. Canonicalization picks one
// representative per orbit, so only it is ever checked.
//
// Streaming sharded generation: programs are never materialized as a single
// slice. The engine walks thread-skeleton pairs (see
// memmodel.X86ThreadSkeletons) and feeds budgeted checkers through a worker
// pool, so memory stays flat at any bound and progress is monotone.
//
// Incremental persistence: verdicts are keyed by canonical 128-bit program
// fingerprint under a (checker version × mapping chain) namespace and
// appended to crash-safe CRC-framed shard files (see Store). An interrupted
// or repeated campaign resumes from where it stopped; a clean re-run is
// ~100% fingerprint hits.
package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"

	"lasagne/internal/memmodel"
)

// fpVersion is bumped whenever the canonical encoding changes, so stale
// fingerprints can never alias fresh ones.
const fpVersion = "lcp1"

// Fingerprint is the 128-bit content address of a canonical program:
// SHA-256 over the versioned canonical encoding, truncated to 16 bytes.
type Fingerprint [16]byte

func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// programName is the name of the canonical program with this fingerprint:
// "c" and the first 12 hex digits.
func (f Fingerprint) programName() string {
	var b [13]byte
	b[0] = 'c'
	hex.Encode(b[1:], f[:6])
	return string(b[:])
}

// fingerprintOf hashes a versioned encoding (fpVersion ‖ encoding).
func fingerprintOf(enc []byte) Fingerprint {
	sum := sha256.Sum256(enc)
	return Fingerprint(sum[:16])
}

// Action records how a program was moved onto its canonical representative:
// which original threads survive (and in what order), and the location and
// value bijections applied, each indexed by canonical position. Tests use it
// to transport behavior sets between orbit members. Its slices share the
// canonicalizer's buffers and are only valid until the next Canonical or
// CanonicalProgram call.
type Action struct {
	// Threads[i] is the original index of the thread placed at canonical
	// position i. Threads that normalize to empty are dropped and absent.
	Threads []int
	// Locs[i] is the original location renamed to the i-th canonical
	// location (X, Y, Z, ...).
	Locs []string
	// Vals[v] is the original written/expected value renamed to canonical
	// value v. The initial value 0 is always fixed: Vals[0] == 0.
	Vals []int
}

// canonLocNames are the canonical location names, assigned in order of
// first appearance in the winning thread order.
var canonLocNames = []string{"X", "Y", "Z", "W", "V", "U", "T", "S"}

func canonLoc(i int) string {
	if i < len(canonLocNames) {
		return canonLocNames[i]
	}
	return fmt.Sprintf("L%d", i)
}

// Canonicalizer computes canonical forms and fingerprints. It holds
// reusable scratch buffers, so one canonicalizer per worker makes
// steady-state canonicalization allocation-free (pinned by
// TestCanonicalizeAllocatesNothing). Not safe for concurrent use.
type Canonicalizer struct {
	norm    [][]Op // normalized threads (buffers reused)
	normBuf [][]Op // backing storage for norm's threads
	kept    []int  // kept[i] is the original index of norm[i]
	perm    []int
	// The first-appearance renaming of the order being encoded: locs[i] is
	// the original location with canonical id i, vals[v] the original value
	// with canonical value v (vals[0] == 0). A bound-3 program has at most
	// six accesses, so a linear search beats a map.
	locs []string
	vals []int
	enc  []byte // fpVersion ‖ encoding of the order being tried
	// The least encoding so far, with its order and renaming; each
	// improvement swaps buffers with the ones above rather than copying.
	best     []byte
	bestP    []int
	bestLocs []string
	bestVals []int
	out      [][]Op // canonical threads, in the winning order
	outOps   []Op   // backing storage for out's threads
	act      Action // the action's reused buffers
}

// Op aliases the memmodel op type for brevity.
type Op = memmodel.Op

// NewCanonicalizer returns an empty canonicalizer; buffers grow on first
// use and are reused afterwards.
func NewCanonicalizer() *Canonicalizer { return &Canonicalizer{} }

// inertFence reports whether op i of thread t is dropped by fence
// normalization: fences before the first access or after the last access of
// their thread order nothing observable (initialization writes are sources
// in every model's order graph, so edges out of them never close cycles),
// and of a run of identical adjacent fences only the first matters.
func inertFence(t []Op, i int) bool {
	o := t[i]
	if o.Kind != memmodel.OpFence {
		return false
	}
	// Leading: no access before it.
	lead := true
	for j := 0; j < i; j++ {
		if t[j].Kind != memmodel.OpFence {
			lead = false
			break
		}
	}
	if lead {
		return true
	}
	// Trailing: no access after it.
	trail := true
	for j := i + 1; j < len(t); j++ {
		if t[j].Kind != memmodel.OpFence {
			trail = false
			break
		}
	}
	if trail {
		return true
	}
	// Duplicate of an immediately preceding identical fence.
	return t[i-1].Kind == memmodel.OpFence && t[i-1].Fence == o.Fence
}

// normalize applies the per-thread op-order invariants, writing the surviving
// threads into c.norm and, per surviving thread, its original index into
// c.kept.
func (c *Canonicalizer) normalize(threads [][]Op) {
	c.norm = c.norm[:0]
	c.normBuf = c.normBuf[:0]
	c.kept = c.kept[:0]
	for ti, t := range threads {
		var nt []Op
		if len(c.normBuf) < cap(c.normBuf) {
			c.normBuf = c.normBuf[:len(c.normBuf)+1]
			nt = c.normBuf[len(c.normBuf)-1][:0]
		} else {
			c.normBuf = append(c.normBuf, nil)
		}
		for i := range t {
			if !inertFence(t, i) {
				nt = append(nt, t[i])
			}
		}
		c.normBuf[len(c.normBuf)-1] = nt
		if len(nt) > 0 {
			c.norm = append(c.norm, nt)
			c.kept = append(c.kept, ti)
		}
	}
}

// locID returns l's canonical id, numbering it next on first appearance.
func (c *Canonicalizer) locID(l string) int {
	if i := slices.Index(c.locs, l); i >= 0 {
		return i
	}
	c.locs = append(c.locs, l)
	return len(c.locs) - 1
}

// valID returns v's canonical value, numbering it next on first appearance.
func (c *Canonicalizer) valID(v int) int {
	if i := slices.Index(c.vals, v); i >= 0 {
		return i
	}
	c.vals = append(c.vals, v)
	return len(c.vals) - 1
}

func opFlags(o Op) uint64 {
	var f uint64
	if o.SC {
		f |= 1
	}
	if o.Acq {
		f |= 2
	}
	if o.Rel {
		f |= 4
	}
	if o.HasExp {
		f |= 8
	}
	return f
}

// encode serializes threads under the given order with greedy
// first-appearance location and value numbering, into c.enc after the
// fpVersion prefix. The encoding is injective on (thread sequence, op
// fields): every op starts with a kind tag, threads end with a separator
// tag, and all ids are uvarints.
func (c *Canonicalizer) encode(threads [][]Op, perm []int) []byte {
	enc := append(c.enc[:0], fpVersion...)
	c.locs = c.locs[:0]
	c.vals = append(c.vals[:0], 0) // the initial value is a fixed point of the orbit action
	for _, ti := range perm {
		for _, o := range threads[ti] {
			enc = append(enc, byte(o.Kind)+1) // 0 is the thread separator
			switch o.Kind {
			case memmodel.OpFence:
				enc = binary.AppendUvarint(enc, uint64(o.Fence))
			case memmodel.OpLoad:
				enc = binary.AppendUvarint(enc, uint64(c.locID(o.Loc)))
				enc = binary.AppendUvarint(enc, opFlags(o))
			case memmodel.OpStore:
				enc = binary.AppendUvarint(enc, uint64(c.locID(o.Loc)))
				enc = binary.AppendUvarint(enc, uint64(c.valID(o.Val)))
				enc = binary.AppendUvarint(enc, opFlags(o))
			case memmodel.OpRMW:
				enc = binary.AppendUvarint(enc, uint64(c.locID(o.Loc)))
				enc = binary.AppendUvarint(enc, uint64(c.valID(o.Val)))
				enc = binary.AppendUvarint(enc, opFlags(o))
				if o.HasExp {
					enc = binary.AppendUvarint(enc, uint64(c.valID(o.Exp)))
				}
			}
		}
		enc = append(enc, 0)
	}
	c.enc = enc
	return enc
}

// permute walks every order of c.perm[:k] by Heap's algorithm, keeping the
// least encoding in c.best, with its order and renaming. Ties keep the
// first order visited.
func (c *Canonicalizer) permute(k int) {
	if k <= 1 {
		enc := c.encode(c.norm, c.perm)
		if len(c.best) == 0 || bytes.Compare(enc, c.best) < 0 {
			c.enc, c.best = c.best, enc
			c.locs, c.bestLocs = c.bestLocs, c.locs
			c.vals, c.bestVals = c.bestVals, c.vals
			c.bestP = append(c.bestP[:0], c.perm...)
		}
		return
	}
	for i := 0; i < k; i++ {
		c.permute(k - 1)
		if k%2 == 0 {
			c.perm[i], c.perm[k-1] = c.perm[k-1], c.perm[i]
		} else {
			c.perm[0], c.perm[k-1] = c.perm[k-1], c.perm[0]
		}
	}
}

// canonicalize finds the canonical representative of threads' orbit: fence
// normalization, then the lexicographically least encoding over all orders
// of the surviving threads, with locations and values renamed by first
// appearance. The greedy renaming is recomputed per order, so every orbit
// member explores the same candidate set and the minimum is a true
// canonical form. It leaves the winning encoding, order and renaming in
// the canonicalizer, for fingerprint, threads and action to read.
func (c *Canonicalizer) canonicalize(threads [][]Op) {
	c.normalize(threads)
	c.perm = c.perm[:0]
	for i := range c.norm {
		c.perm = append(c.perm, i)
	}
	c.best = c.best[:0]
	c.permute(len(c.perm))
}

// fingerprint is the last canonicalize call's fingerprint, hashed from the
// winning encoding: the canonical threads re-encode to exactly those bytes,
// so no second encoding is needed.
func (c *Canonicalizer) fingerprint() Fingerprint { return fingerprintOf(c.best) }

// threads applies the last canonicalize call's winning order and renaming
// to the normalized threads. The result shares the canonicalizer's buffers
// and is only valid until its next canonicalize call.
func (c *Canonicalizer) threads() [][]Op {
	c.out = c.out[:0]
	c.outOps = c.outOps[:0]
	for _, ti := range c.bestP {
		start := len(c.outOps)
		for _, o := range c.norm[ti] {
			if o.Kind != memmodel.OpFence {
				o.Loc = canonLoc(slices.Index(c.bestLocs, o.Loc))
				if o.Kind == memmodel.OpStore || o.Kind == memmodel.OpRMW {
					o.Val = slices.Index(c.bestVals, o.Val)
				}
				if o.HasExp {
					o.Exp = slices.Index(c.bestVals, o.Exp)
				}
			}
			c.outOps = append(c.outOps, o)
		}
		c.out = append(c.out, c.outOps[start:len(c.outOps):len(c.outOps)])
	}
	return c.out
}

// action is the last canonicalize call's action, in c.act's buffers.
func (c *Canonicalizer) action() Action {
	c.act.Threads = c.act.Threads[:0]
	for _, ti := range c.bestP {
		c.act.Threads = append(c.act.Threads, c.kept[ti])
	}
	c.act.Locs = append(c.act.Locs[:0], c.bestLocs...)
	c.act.Vals = append(c.act.Vals[:0], c.bestVals...)
	return c.act
}

// Canonical computes the canonical representative of threads' orbit and the
// action mapping the input onto it (see canonicalize). The returned thread
// slices and action share the canonicalizer's buffers and are only valid
// until the next call; callers needing a persistent program use
// CanonicalProgram.
func (c *Canonicalizer) Canonical(threads [][]Op) ([][]Op, Action) {
	c.canonicalize(threads)
	return c.threads(), c.action()
}

// Fingerprint hashes the canonical encoding of the given canonical threads.
// It must be called on Canonical's output (it re-encodes in identity order
// without re-minimizing).
func (c *Canonicalizer) Fingerprint(canon [][]Op) Fingerprint {
	c.perm = c.perm[:0]
	for i := range canon {
		c.perm = append(c.perm, i)
	}
	return fingerprintOf(c.encode(canon, c.perm))
}

// CanonicalProgram canonicalizes threads into a standalone Program named
// after its fingerprint, with deep-copied thread storage safe to retain.
// The action, as Canonical's, is only valid until the next call.
func (c *Canonicalizer) CanonicalProgram(threads [][]Op) (*memmodel.Program, Fingerprint, Action) {
	c.canonicalize(threads)
	fp := c.fingerprint()
	canon := c.threads()
	ops := append([]Op(nil), c.outOps...)
	own := make([][]Op, len(canon))
	start := 0
	for i, t := range canon {
		own[i] = ops[start : start+len(t) : start+len(t)]
		start += len(t)
	}
	return &memmodel.Program{Name: fp.programName(), Threads: own}, fp, c.action()
}
