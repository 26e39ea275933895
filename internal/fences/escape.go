package fences

import (
	"math/bits"
	"sort"

	"lasagne/internal/ir"
)

// This file extends §8's alloca-only stack test with a real flow-insensitive
// escape analysis. Fence placement may skip an access only when the accessed
// location is provably private to the executing thread; §8 proved that for
// direct alloca chains only. Here we prove it for two larger classes:
//
//   - allocas whose address never escapes the function (tracked through
//     bitcast, getelementptr, inttoptr/ptrtoint round-trips, pointer
//     arithmetic, phi and select), and
//   - module globals that are referenced only by code the spawned threads
//     can never execute and whose address never escapes into memory another
//     thread could read.
//
// Anything the analysis cannot account for — a derived pointer passed to a
// call, returned, stored into escaping or unknown memory, or consumed by an
// instruction outside the tracked set — marks the root as escaping, and
// every access whose provenance is not fully tracked classifies as shared.
// The result is therefore conservative by construction: fences are only ever
// dropped on accesses no other thread can observe.
//
// Loads are part of the tracked dataflow: the analysis keeps, per alloca,
// the provenance of every value stored into it, and a load whose address
// points into such a slot yields that union — so a pointer spilled into a
// private register slot, reloaded, and then leaked (the shape refinement
// leaves behind) escapes its root exactly as a direct leak would. Loads the
// per-function view cannot bound — through a parameter, a global (other
// functions store into globals too), or a tainted address — yield a tainted
// value that can never classify as thread-private.

// Escape holds the per-function escape analysis results. The zero value is
// unusable; build one with AnalyzeFunc.
//
// Everything is dense. Roots (allocas and the globals the function
// references) are numbered in program order, and a provenance is a root
// bitset plus a taint bit. Per-value provenance rows are indexed by
// Instr.ID (unique and within IDBound, which the verifier checks), so the
// fixpoint is word-wise ORs with no maps and no interface hashing.
type Escape struct {
	// owner[id] is the instruction analysed under that ID; a value whose
	// ID slot holds another instruction is not part of this body and has
	// no tracked provenance.
	owner []*ir.Instr
	// words is the bitset width of one root set.
	words int
	// roots lists the roots by number: alloca *ir.Instr or *ir.Global.
	roots      []ir.Value
	allocaRoot []int32 // alloca ID -> 1 + root number (0: not a root)
	globalRoot map[*ir.Global]int32
	globalMask []uint64 // the roots that are globals
	// derived[id*words:] is the provenance of the pointer value id may
	// carry: the roots it can point into, plus a taint bit (derivedTaint)
	// set when it may also carry a pointer the analysis does not track (a
	// parameter, a loaded value, an absolute address).
	derived      []uint64
	derivedTaint []uint64 // bitset over IDs
	// contents[r*words:] is, for an alloca root r, the union of the
	// provenances of the values stored into it. Loads from the slot yield
	// this union, so spill/reload chains keep (and leaks through them
	// lose) privacy. Global contents are writable by other functions, so
	// loads through globals taint instead.
	contents      []uint64
	contentsTaint []uint64 // bitset over roots
	// singles[r*words:] is the one-root set {r}: a global's provenance.
	singles []uint64
	// escaped marks roots whose address may become visible outside the
	// tracked dataflow (and so, potentially, to another thread).
	escaped []uint64
	// shared is escaped plus every global outside localGlobals: the roots
	// a thread-private pointer may not reach.
	shared []uint64
	// localGlobals names the globals the module prepass proved thread-local
	// (ThreadLocalGlobals); globals outside the set classify as shared even
	// when they do not escape this particular function.
	localGlobals map[string]bool
}

// provenance is the points-to abstraction for one value: a root bitset
// (aliasing one of the Escape's rows, or nil when empty) and a taint bit.
type provenance struct {
	roots []uint64
	taint bool
}

func (p provenance) hasRoots() bool {
	for _, w := range p.roots {
		if w != 0 {
			return true
		}
	}
	return false
}

func (p provenance) empty() bool { return !p.taint && !p.hasRoots() }

func bit(set []uint64, i int) bool { return set[i/64]&(1<<(i%64)) != 0 }
func setBit(set []uint64, i int)   { set[i/64] |= 1 << (i % 64) }

// orInto ORs src into dst and reports whether dst grew.
func orInto(dst, src []uint64) bool {
	grew := false
	for i, w := range src {
		if w&^dst[i] != 0 {
			dst[i] |= w
			grew = true
		}
	}
	return grew
}

// forEach calls fn for every root in set.
func forEach(set []uint64, fn func(r int)) {
	for i, w := range set {
		for w != 0 {
			fn(i*64 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// AnalyzeFunc runs the flow-insensitive escape analysis on one function.
// localGlobals may be nil (then only allocas can classify as local). The
// analysis is deterministic: it iterates instructions in program order and
// resolves the store-edge fixpoint with a monotone worklist, so the result
// depends only on the function body and the localGlobals set — a property
// the parallel pipeline's byte-identical-output guarantee relies on.
func AnalyzeFunc(f *ir.Func, localGlobals map[string]bool) *Escape {
	e := &Escape{globalRoot: map[*ir.Global]int32{}, localGlobals: localGlobals}
	if f.External {
		e.shared = e.escaped
		return e
	}
	bound := f.IDBound()
	e.owner = make([]*ir.Instr, bound+1)
	e.allocaRoot = make([]int32, bound+1)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.ID > 0 && in.ID <= bound && !ir.IsVoid(in.Ty) {
				e.owner[in.ID] = in
				if in.Op == ir.OpAlloca {
					e.roots = append(e.roots, in)
					e.allocaRoot[in.ID] = int32(len(e.roots))
				}
			}
			for _, a := range in.Args {
				if g, ok := a.(*ir.Global); ok {
					if _, seen := e.globalRoot[g]; !seen {
						e.globalRoot[g] = int32(len(e.roots))
						e.roots = append(e.roots, g)
					}
				}
			}
		}
	}
	w := (len(e.roots) + 63) / 64
	e.words = w
	e.derived = make([]uint64, (bound+1)*w)
	e.derivedTaint = make([]uint64, bound/64+1)
	e.contents = make([]uint64, len(e.roots)*w)
	e.contentsTaint = make([]uint64, w)
	e.singles = make([]uint64, len(e.roots)*w)
	e.globalMask = make([]uint64, w)
	e.escaped = make([]uint64, w)
	for r, root := range e.roots {
		setBit(e.singles[r*w:], r)
		if _, ok := root.(*ir.Global); ok {
			setBit(e.globalMask, r)
		}
	}

	// Propagate provenance to a fixpoint. Phi back-edges mean a single
	// program-order pass can miss flows, so repeat until stable; each pass
	// only grows root sets, so termination is bounded by #values × #roots.
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if e.transfer(in) {
					changed = true
				}
			}
		}
	}

	// Collect escape edges: direct escapes fire immediately; a store of a
	// derived pointer into tracked alloca memory escapes the stored roots
	// only if the destination escapes, recorded as a conditional edge
	// (edges[dst*w:] is the set escaping with dst). The escaped set is the
	// closure of the direct escapes under the edges, so the order roots are
	// visited in cannot change it.
	edges := make([]uint64, len(e.roots)*w)
	var worklist []int
	escape := func(r int) {
		if !bit(e.escaped, r) {
			setBit(e.escaped, r)
			worklist = append(worklist, r)
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			e.collectEscapes(in, escape, edges)
		}
	}
	for len(worklist) > 0 {
		r := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		forEach(edges[r*w:(r+1)*w], escape)
	}
	e.shared = append([]uint64(nil), e.escaped...)
	for r, root := range e.roots {
		if g, ok := root.(*ir.Global); ok && !localGlobals[g.Name] {
			setBit(e.shared, r)
		}
	}
	return e
}

// slot returns in's row index, or -1 when in is not part of the analysed
// body.
func (e *Escape) slot(in *ir.Instr) int {
	if in.ID > 0 && in.ID < len(e.owner) && e.owner[in.ID] == in {
		return in.ID
	}
	return -1
}

// provenanceOf resolves a value's provenance: globals are their own root,
// instructions carry whatever the transfer function derived, and everything
// else (parameters, constants used as addresses, declared functions) is
// untracked.
func (e *Escape) provenanceOf(v ir.Value) provenance {
	switch v := v.(type) {
	case *ir.Global:
		if r, ok := e.globalRoot[v]; ok {
			return provenance{roots: e.singles[int(r)*e.words : int(r+1)*e.words]}
		}
	case *ir.Instr:
		if id := e.slot(v); id >= 0 {
			return provenance{roots: e.derived[id*e.words : (id+1)*e.words], taint: bit(e.derivedTaint, id)}
		}
	}
	return provenance{}
}

// row returns in's own provenance row (nil when in has no slot) and its ID.
func (e *Escape) row(in *ir.Instr) ([]uint64, int) {
	id := e.slot(in)
	if id < 0 {
		return nil, -1
	}
	return e.derived[id*e.words : (id+1)*e.words], id
}

// taint sets in's taint bit and reports whether it was clear.
func (e *Escape) taint(id int) bool {
	if id < 0 || bit(e.derivedTaint, id) {
		return false
	}
	setBit(e.derivedTaint, id)
	return true
}

// transfer grows the provenance of in's result from its operands and
// reports whether anything changed.
func (e *Escape) transfer(in *ir.Instr) bool {
	var sources []ir.Value
	alternatives := false // sources are alternative pointers, not base+offset
	switch in.Op {
	case ir.OpAlloca:
		cur, id := e.row(in)
		if id < 0 {
			return false
		}
		r := int(e.allocaRoot[id] - 1)
		if bit(cur, r) {
			return false
		}
		setBit(cur, r)
		return true
	case ir.OpBitcast, ir.OpIntToPtr, ir.OpPtrToInt:
		sources = in.Args[:1]
	case ir.OpGEP:
		// Indices offset within the same root. Source-level GEPs promise
		// in-bounds addressing (refinement only emits them for recovered
		// frame/object layouts), so variable indices keep the base's root —
		// unlike raw OpAdd arithmetic below, which gets no such promise.
		sources = in.Args[:1]
	case ir.OpAdd, ir.OpSub:
		return e.transferArith(in)
	case ir.OpLoad:
		return e.transferLoad(in)
	case ir.OpStore:
		return e.transferStore(in)
	case ir.OpRMW, ir.OpCmpXchg:
		// The result is the old memory value: data read back from memory
		// the same way a load reads it, but atomics target shared memory by
		// construction — never a provably-private slot — so the result is
		// simply untrackable.
		_, id := e.row(in)
		return e.taint(id)
	case ir.OpPhi:
		sources = in.Args
		alternatives = true
	case ir.OpSelect:
		sources = in.Args[1:]
		alternatives = true
	default:
		return false
	}

	cur, id := e.row(in)
	if id < 0 {
		return false
	}
	changed := false
	for _, a := range sources {
		p := e.provenanceOf(a)
		taint := p.taint
		// A phi/select arm carrying no tracked root may be a completely
		// different pointer (constant address, parameter, loaded value):
		// the merged value can no longer be attributed to its roots alone.
		if alternatives && !p.hasRoots() {
			taint = true
		}
		if taint && e.taint(id) {
			changed = true
		}
		if p.roots != nil && orInto(cur, p.roots) {
			changed = true
		}
	}
	return changed
}

// transferArith handles OpAdd/OpSub — pointer arithmetic after refinement:
// ptrtoint %p ± offset. The result keeps the roots of every
// provenance-carrying operand (a later leak must still escape them), but
// lifted binary code computes raw addresses with no in-bounds guarantee, so
// the result is additionally tainted — and thus never thread-private —
// unless every offset operand is a compile-time integer constant (the
// in-frame addressing shape the lifter materializes for stack slots).
// Summing two derived pointers yields a garbage address and taints too.
func (e *Escape) transferArith(in *ir.Instr) bool {
	cur, id := e.row(in)
	if id < 0 {
		return false
	}
	changed := false
	taint := false
	carriers := 0
	for _, a := range in.Args {
		p := e.provenanceOf(a)
		if p.taint {
			taint = true
		}
		if !p.empty() {
			carriers++
		} else if _, isConst := a.(*ir.ConstInt); !isConst {
			// Untracked non-constant offset: may re-target any location.
			taint = true
		}
		if p.roots != nil && orInto(cur, p.roots) {
			changed = true
		}
	}
	if carriers > 1 {
		taint = true
	}
	if taint && e.taint(id) {
		changed = true
	}
	return changed
}

// transferLoad gives a load result the union of everything that may have
// been stored into the slots its address can point to. Addresses the
// per-function view cannot bound — untracked, tainted, or pointing into a
// global (whose contents any function may write) — taint the result
// instead: it may carry a pointer we cannot attribute, so it must never
// classify as thread-private, and anything it could legitimately reveal has
// already escaped (a tracked root only reaches unbounded memory through an
// escaping store).
func (e *Escape) transferLoad(in *ir.Instr) bool {
	cur, id := e.row(in)
	if id < 0 {
		return false
	}
	ap := e.provenanceOf(in.Args[0])
	changed := false
	taint := ap.taint || !ap.hasRoots()
	w := e.words
	for i, word := range ap.roots {
		if word&e.globalMask[i] != 0 {
			taint = true
		}
		for word &^= e.globalMask[i]; word != 0; word &= word - 1 {
			d := i*64 + bits.TrailingZeros64(word)
			if bit(e.contentsTaint, d) {
				taint = true
			}
			if orInto(cur, e.contents[d*w:(d+1)*w]) {
				changed = true
			}
		}
	}
	if taint && e.taint(id) {
		changed = true
	}
	return changed
}

// transferStore records what a store parks inside tracked alloca slots:
// contents[d] grows by the stored value's provenance for every alloca the
// address may point into. Global destinations are not recorded — their
// contents are world-readable, so collectEscapes escapes the stored roots
// outright — and the escape side of unknown destinations is likewise
// collectEscapes' job.
func (e *Escape) transferStore(in *ir.Instr) bool {
	vp := e.provenanceOf(in.Args[0])
	if vp.empty() {
		return false
	}
	pp := e.provenanceOf(in.Args[1])
	changed := false
	w := e.words
	for i, word := range pp.roots {
		for word &^= e.globalMask[i]; word != 0; word &= word - 1 {
			d := i*64 + bits.TrailingZeros64(word)
			if vp.taint && !bit(e.contentsTaint, d) {
				setBit(e.contentsTaint, d)
				changed = true
			}
			if vp.roots != nil && orInto(e.contents[d*w:(d+1)*w], vp.roots) {
				changed = true
			}
		}
	}
	return changed
}

// collectEscapes inspects one instruction's uses of derived values and
// either escapes the used roots immediately or records conditional
// store-edges.
func (e *Escape) collectEscapes(in *ir.Instr, escape func(int), edges []uint64) {
	escapeAll := func(v ir.Value) { forEach(e.provenanceOf(v).roots, escape) }
	w := e.words
	switch in.Op {
	case ir.OpCall:
		// Any derived pointer handed to a callee (including an indirect
		// callee value) is out of this analysis's sight.
		for _, a := range in.Args {
			escapeAll(a)
		}
	case ir.OpRet:
		for _, a := range in.Args {
			escapeAll(a)
		}
	case ir.OpStore:
		// store val, ptr: the address operand is a plain access (handled by
		// classification, not escape), but a derived *value* being stored
		// becomes reachable through the destination memory.
		val, ptr := in.Args[0], in.Args[1]
		vp := e.provenanceOf(val)
		if !vp.hasRoots() {
			return
		}
		pp := e.provenanceOf(ptr)
		if pp.taint || !pp.hasRoots() {
			// Destination unknown: the stored pointer is loose.
			escapeAll(val)
			return
		}
		// Destination is tracked memory. A pointer stored into a global
		// escapes outright: any function — on any thread — can load the
		// global and recover it, whether or not the global's own address
		// leaks. A pointer stored into an alloca escapes exactly when the
		// alloca does (a pointer sitting in a non-escaping spill slot is
		// still private), recorded as a conditional edge.
		forEach(pp.roots, func(dst int) {
			if bit(e.globalMask, dst) || bit(e.escaped, dst) {
				forEach(vp.roots, escape)
			} else {
				orInto(edges[dst*w:(dst+1)*w], vp.roots)
			}
		})
	case ir.OpLoad:
		// Address use only; the loaded result's provenance is derived by
		// transferLoad and escapes through its own consumers.
	case ir.OpRMW, ir.OpCmpXchg:
		// Address operand is an access; a derived pointer used as the
		// stored/compared *operand* escapes like a stored value with an
		// unknown destination (atomics target shared memory by definition).
		for _, a := range in.Args[1:] {
			escapeAll(a)
		}
		// And the atomic's result reveals the slot's old contents to an
		// untrackable consumer (transferLoad's reasoning, result tainted):
		// anything parked in a targeted alloca is loose.
		forEach(e.provenanceOf(in.Args[0]).roots, func(d int) {
			if !bit(e.globalMask, d) {
				forEach(e.contents[d*w:(d+1)*w], escape)
			}
		})
	case ir.OpBitcast, ir.OpIntToPtr, ir.OpPtrToInt, ir.OpGEP,
		ir.OpAdd, ir.OpSub, ir.OpPhi, ir.OpSelect:
		// Tracked propagation, handled by transfer. GEP indices beyond the
		// base are integer offsets; a derived value used as one leaves the
		// tracked algebra.
		if in.Op == ir.OpGEP {
			for _, a := range in.Args[1:] {
				escapeAll(a)
			}
		}
	case ir.OpICmp:
		// Comparing addresses reveals at most equality, never the pointee.
	case ir.OpBr, ir.OpCondBr:
		// Branch conditions are i1 comparison results; no address flows out.
	default:
		// Any other consumer of a derived value (trunc, mul, xor, ...) can
		// smuggle the address somewhere we cannot follow.
		for _, a := range in.Args {
			escapeAll(a)
		}
	}
}

// Local reports whether ptr provably addresses thread-private memory: its
// provenance is fully tracked (non-empty, untainted) and every root is
// either a non-escaping alloca or a non-escaping thread-local global.
func (e *Escape) Local(ptr ir.Value) bool {
	if g, ok := ptr.(*ir.Global); ok {
		if _, seen := e.globalRoot[g]; !seen {
			// Not referenced by the body: nothing here can leak it.
			return e.localGlobals[g.Name]
		}
	}
	p := e.provenanceOf(ptr)
	if p.taint || !p.hasRoots() {
		return false
	}
	for i, w := range p.roots {
		if w&e.shared[i] != 0 {
			return false
		}
	}
	return true
}

// Escaped reports whether the given root (an alloca instruction or a
// global) may be reachable outside the tracked dataflow of the analyzed
// function. Exported for the module prepass and for tests.
func (e *Escape) Escaped(root ir.Value) bool {
	switch r := root.(type) {
	case *ir.Global:
		if i, ok := e.globalRoot[r]; ok {
			return bit(e.escaped, int(i))
		}
	case *ir.Instr:
		if id := e.slot(r); id >= 0 && e.allocaRoot[id] > 0 {
			return bit(e.escaped, int(e.allocaRoot[id]-1))
		}
	}
	return false
}

// ThreadLocalGlobals computes the set of module globals that are provably
// accessed by a single thread, returned as sorted names. A global qualifies
// when (a) no function the spawned threads can execute references it, and
// (b) its address never escapes the tracked dataflow of any function that
// does reference it — otherwise a worker could reach it through memory.
// Spawn targets appear in lifted IR as function addresses used as call
// operands, so "code a spawned thread can execute" is the call-graph closure
// of every address-taken function.
func ThreadLocalGlobals(m *ir.Module) []string {
	spawned := spawnReachable(m)

	shared := make(map[string]bool)  // referenced from spawn-reachable code
	escaped := make(map[string]bool) // address escapes somewhere
	referenced := make(map[string]bool)
	for _, f := range m.Funcs {
		if f.External {
			continue
		}
		var esc *Escape
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				for _, a := range in.Args {
					g, ok := a.(*ir.Global)
					if !ok {
						continue
					}
					referenced[g.Name] = true
					if spawned[f] {
						shared[g.Name] = true
						continue
					}
					if esc == nil {
						esc = AnalyzeFunc(f, nil)
					}
					if esc.Escaped(g) {
						escaped[g.Name] = true
					}
				}
			}
		}
	}

	var local []string
	for name := range referenced {
		if !shared[name] && !escaped[name] {
			local = append(local, name)
		}
	}
	sort.Strings(local)
	return local
}

// spawnReachable returns the set of functions a spawned thread can execute:
// every function whose address is taken (used as a non-callee operand — the
// shape `spawn(worker, arg)` lifts to), closed over direct calls.
func spawnReachable(m *ir.Module) map[*ir.Func]bool {
	reach := make(map[*ir.Func]bool)
	var queue []*ir.Func
	add := func(f *ir.Func) {
		if f != nil && !reach[f] {
			reach[f] = true
			queue = append(queue, f)
		}
	}
	for _, f := range m.Funcs {
		if f.External {
			continue
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				for k, a := range in.Args {
					if in.Op == ir.OpCall && k == 0 {
						continue // direct callee, not an address-taken use
					}
					if fn, ok := a.(*ir.Func); ok {
						add(fn)
					}
				}
			}
		}
	}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpCall || len(in.Args) == 0 {
					continue
				}
				if callee, ok := in.Args[0].(*ir.Func); ok {
					add(callee)
				}
			}
		}
	}
	return reach
}

// LocalGlobalSet converts ThreadLocalGlobals' sorted name list into the map
// form Options carries. Exported so core and validate build identical
// classifiers from the serialized list.
func LocalGlobalSet(names []string) map[string]bool {
	if len(names) == 0 {
		return nil
	}
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return set
}
