package fences

import (
	"sort"

	"lasagne/internal/ir"
)

// This file keeps the map-based escape analysis — provenance as
// map[ir.Value]bool root sets, roots visited in sorted order — as the
// reference the dense analysis in escape.go is checked against
// (TestEscapeMatchesReference).

// refEscape holds the per-function escape analysis results. The zero value is
// unusable; build one with referenceAnalyzeFunc.
type refEscape struct {
	// derived maps each SSA value to the refProvenance of the pointer it may
	// carry: the set of roots (allocas and globals) it can point into, plus
	// a taint bit set when it may also carry a pointer the analysis does not
	// track (a parameter, a loaded value, an absolute address).
	derived map[ir.Value]refProvenance
	// contents maps each alloca root to the union of provenances of the
	// values stored into it. Loads from the slot yield this union, so
	// spill/reload chains keep (and leaks through them lose) privacy. Only
	// allocas are keyed: global contents are writable by other functions,
	// so loads through globals taint instead.
	contents map[ir.Value]refProvenance
	// escaped marks roots whose address may become visible outside the
	// tracked dataflow (and so, potentially, to another thread).
	escaped map[ir.Value]bool
	// localGlobals names the globals the module prepass proved thread-local
	// (referenceThreadLocalGlobals); globals outside the set classify as shared even
	// when they do not escape this particular function.
	localGlobals map[string]bool
}

// refProvenance is the points-to abstraction for one SSA value.
type refProvenance struct {
	roots map[ir.Value]bool // alloca *ir.Instr or *ir.Global
	taint bool              // may also hold an untracked pointer
}

func (p refProvenance) empty() bool { return len(p.roots) == 0 && !p.taint }

// referenceAnalyzeFunc runs the flow-insensitive escape analysis on one function.
// localGlobals may be nil (then only allocas can classify as local). The
// analysis is deterministic: it iterates instructions in program order and
// resolves the store-edge fixpoint with a monotone worklist, so the result
// depends only on the function body and the localGlobals set — a property
// the parallel pipeline's byte-identical-output guarantee relies on.
func referenceAnalyzeFunc(f *ir.Func, localGlobals map[string]bool) *refEscape {
	e := &refEscape{
		derived:      make(map[ir.Value]refProvenance),
		contents:     make(map[ir.Value]refProvenance),
		escaped:      make(map[ir.Value]bool),
		localGlobals: localGlobals,
	}
	if f.External {
		return e
	}

	// Propagate refProvenance to a fixpoint. Phi back-edges mean a single
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
	// derived pointer into tracked memory escapes the stored root only if
	// the destination root escapes, recorded as a conditional edge.
	edges := make(map[ir.Value][]ir.Value) // dst root -> roots escaping with it
	var worklist []ir.Value
	escape := func(r ir.Value) {
		if !e.escaped[r] {
			e.escaped[r] = true
			worklist = append(worklist, r)
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			e.collectEscapes(in, escape, edges)
		}
	}
	for len(worklist) > 0 {
		r := worklist[0]
		worklist = worklist[1:]
		for _, dep := range edges[r] {
			escape(dep)
		}
	}
	return e
}

// provenanceOf resolves a value's refProvenance: globals are their own root,
// instructions carry whatever the transfer function derived, and everything
// else (parameters, constants used as addresses, declared functions) is
// untracked.
func (e *refEscape) provenanceOf(v ir.Value) refProvenance {
	switch v := v.(type) {
	case *ir.Global:
		return refProvenance{roots: map[ir.Value]bool{v: true}}
	case *ir.Instr:
		return e.derived[v]
	}
	return refProvenance{}
}

// transfer grows the refProvenance of in's result from its operands and
// reports whether anything changed.
func (e *refEscape) transfer(in *ir.Instr) bool {
	var sources []ir.Value
	alternatives := false // sources are alternative pointers, not base+offset
	switch in.Op {
	case ir.OpAlloca:
		p := e.derived[in]
		if p.roots[in] {
			return false
		}
		if p.roots == nil {
			p.roots = make(map[ir.Value]bool)
		}
		p.roots[in] = true
		e.derived[in] = p
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
		return e.addTaint(in)
	case ir.OpPhi:
		sources = in.Args
		alternatives = true
	case ir.OpSelect:
		sources = in.Args[1:]
		alternatives = true
	default:
		return false
	}

	cur := e.derived[in]
	changed := false
	for _, a := range sources {
		p := e.provenanceOf(a)
		taint := p.taint
		// A phi/select arm carrying no tracked root may be a completely
		// different pointer (constant address, parameter, loaded value):
		// the merged value can no longer be attributed to its roots alone.
		if alternatives && len(p.roots) == 0 {
			taint = true
		}
		if taint && !cur.taint {
			cur.taint = true
			changed = true
		}
		for r := range p.roots {
			if cur.roots == nil {
				cur.roots = make(map[ir.Value]bool)
			}
			if !cur.roots[r] {
				cur.roots[r] = true
				changed = true
			}
		}
	}
	if changed {
		e.derived[in] = cur
	}
	return changed
}

// transferArith handles OpAdd/OpSub — pointer arithmetic after refinement:
// ptrtoint %p ± offset. The result keeps the roots of every
// refProvenance-carrying operand (a later leak must still escape them), but
// lifted binary code computes raw addresses with no in-bounds guarantee, so
// the result is additionally tainted — and thus never thread-private —
// unless every offset operand is a compile-time integer constant (the
// in-frame addressing shape the lifter materializes for stack slots).
// Summing two derived pointers yields a garbage address and taints too.
func (e *refEscape) transferArith(in *ir.Instr) bool {
	cur := e.derived[in]
	changed := false
	taint := cur.taint
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
		for r := range p.roots {
			if cur.roots == nil {
				cur.roots = make(map[ir.Value]bool)
			}
			if !cur.roots[r] {
				cur.roots[r] = true
				changed = true
			}
		}
	}
	if carriers > 1 {
		taint = true
	}
	if taint && !cur.taint {
		cur.taint = true
		changed = true
	}
	if changed {
		e.derived[in] = cur
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
func (e *refEscape) transferLoad(in *ir.Instr) bool {
	ap := e.provenanceOf(in.Args[0])
	cur := e.derived[in]
	changed := false
	taint := cur.taint || ap.taint || len(ap.roots) == 0
	for d := range ap.roots {
		if _, isGlobal := d.(*ir.Global); isGlobal {
			taint = true
			continue
		}
		c := e.contents[d]
		if c.taint {
			taint = true
		}
		for r := range c.roots {
			if cur.roots == nil {
				cur.roots = make(map[ir.Value]bool)
			}
			if !cur.roots[r] {
				cur.roots[r] = true
				changed = true
			}
		}
	}
	if taint && !cur.taint {
		cur.taint = true
		changed = true
	}
	if changed {
		e.derived[in] = cur
	}
	return changed
}

// transferStore records what a store parks inside tracked alloca slots:
// contents[d] grows by the stored value's refProvenance for every alloca the
// address may point into. Global destinations are not recorded — their
// contents are world-readable, so collectEscapes escapes the stored roots
// outright — and the escape side of unknown destinations is likewise
// collectEscapes' job.
func (e *refEscape) transferStore(in *ir.Instr) bool {
	vp := e.provenanceOf(in.Args[0])
	if vp.empty() {
		return false
	}
	pp := e.provenanceOf(in.Args[1])
	changed := false
	for d := range pp.roots {
		if _, isGlobal := d.(*ir.Global); isGlobal {
			continue
		}
		c := e.contents[d]
		if vp.taint && !c.taint {
			c.taint = true
			changed = true
		}
		for r := range vp.roots {
			if c.roots == nil {
				c.roots = make(map[ir.Value]bool)
			}
			if !c.roots[r] {
				c.roots[r] = true
				changed = true
			}
		}
		if changed {
			e.contents[d] = c
		}
	}
	return changed
}

// addTaint taints in's result unconditionally.
func (e *refEscape) addTaint(in *ir.Instr) bool {
	cur := e.derived[in]
	if cur.taint {
		return false
	}
	cur.taint = true
	e.derived[in] = cur
	return true
}

// collectEscapes inspects one instruction's uses of derived values and
// either escapes the used roots immediately or records conditional
// store-edges.
func (e *refEscape) collectEscapes(in *ir.Instr, escape func(ir.Value), edges map[ir.Value][]ir.Value) {
	escapeAll := func(v ir.Value) {
		for _, r := range refSortedRoots(e.provenanceOf(v).roots) {
			escape(r)
		}
	}
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
		if len(vp.roots) == 0 {
			return
		}
		pp := e.provenanceOf(ptr)
		if pp.taint || len(pp.roots) == 0 {
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
		for _, dst := range refSortedRoots(pp.roots) {
			_, dstGlobal := dst.(*ir.Global)
			for _, src := range refSortedRoots(vp.roots) {
				if dstGlobal || e.escaped[dst] {
					escape(src)
				} else {
					edges[dst] = append(edges[dst], src)
				}
			}
		}
	case ir.OpLoad:
		// Address use only; the loaded result's refProvenance is derived by
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
		for _, d := range refSortedRoots(e.provenanceOf(in.Args[0]).roots) {
			for _, r := range refSortedRoots(e.contents[d].roots) {
				escape(r)
			}
		}
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
// refProvenance is fully tracked (non-empty, untainted) and every root is
// either a non-escaping alloca or a non-escaping thread-local global.
func (e *refEscape) Local(ptr ir.Value) bool {
	p := e.provenanceOf(ptr)
	if p.taint || len(p.roots) == 0 {
		return false
	}
	for r := range p.roots {
		if e.escaped[r] {
			return false
		}
		if g, ok := r.(*ir.Global); ok && !e.localGlobals[g.Name] {
			return false
		}
	}
	return true
}

// Escaped reports whether the given root (an alloca instruction or a
// global) may be reachable outside the tracked dataflow of the analyzed
// function. Exported for the module prepass and for tests.
func (e *refEscape) Escaped(root ir.Value) bool { return e.escaped[root] }

func refSortedRoots(set map[ir.Value]bool) []ir.Value {
	if len(set) == 0 {
		return nil
	}
	roots := make([]ir.Value, 0, len(set))
	for r := range set {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return refRootKey(roots[i]) < refRootKey(roots[j]) })
	return roots
}

// refRootKey orders roots deterministically: globals by name, allocas by SSA id.
func refRootKey(r ir.Value) string {
	switch r := r.(type) {
	case *ir.Global:
		return "g:" + r.Name
	case *ir.Instr:
		return "a:" + r.Ref()
	}
	return "?"
}

// referenceThreadLocalGlobals computes the set of module globals that are provably
// accessed by a single thread, returned as sorted names. A global qualifies
// when (a) no function the spawned threads can execute references it, and
// (b) its address never escapes the tracked dataflow of any function that
// does reference it — otherwise a worker could reach it through memory.
// Spawn targets appear in lifted IR as function addresses used as call
// operands, so "code a spawned thread can execute" is the call-graph closure
// of every address-taken function.
func referenceThreadLocalGlobals(m *ir.Module) []string {
	spawned := spawnReachable(m)

	shared := make(map[string]bool)  // referenced from spawn-reachable code
	escaped := make(map[string]bool) // address escapes somewhere
	referenced := make(map[string]bool)
	for _, f := range m.Funcs {
		if f.External {
			continue
		}
		var esc *refEscape
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
						esc = referenceAnalyzeFunc(f, nil)
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
