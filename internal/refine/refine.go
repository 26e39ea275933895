// Package refine implements the IR refinement of §5: peephole rewrites that
// raise integer-based address arithmetic into typed pointer form (Fig. 5)
// and pointer parameter promotion (§5.2). Refinement re-exposes the stack
// provenance of lifted addresses, which both enables standard optimizations
// and lets the fence placement algorithm skip provable stack accesses —
// the mechanism behind the paper's 45.5% average fence reduction (Fig. 14).
package refine

import (
	"lasagne/internal/ir"
)

// Run applies peephole refinement and pointer parameter promotion to a
// fixpoint and cleans up dead casts. It returns the total number of
// rewrites.
func Run(m *ir.Module) int {
	total := 0
	for {
		n := Peephole(m)
		// Remove the now-dead integer chains before promotion: a dead
		// `add` still counts as a use and would block §5.2.
		cleanupDeadCasts(m)
		n += PromoteParams(m)
		if n == 0 {
			break
		}
		total += n
	}
	cleanupDeadCasts(m)
	return total
}

// PeepholeFunc applies the Fig. 5 rules to one function. The fault-tolerant
// pipeline runs refinement at this granularity so one function's failure can
// be contained without discarding the rest of the module's rewrites.
func PeepholeFunc(f *ir.Func) int { return peepholeFunc(f) }

// CleanupFunc removes dead pure instructions from one function.
func CleanupFunc(f *ir.Func) int { return cleanupFunc(f) }

// CountPtrCasts counts inttoptr and ptrtoint instructions — the Fig. 13
// metric.
func CountPtrCasts(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpIntToPtr || in.Op == ir.OpPtrToInt {
					n++
				}
			}
		}
	}
	return n
}

// Peephole applies the Fig. 5 rules to every inttoptr in the module:
//
//	Rule 1: inttoptr(ptrtoint p)        -> bitcast p
//	Rule 2: inttoptr(ptrtoint p + off)  -> bitcast(gep i8 p, off)
//	Rule 3: inttoptr(arg + off)         -> bitcast(gep i8 (inttoptr arg), off)
//
// It returns the number of inttoptr instructions rewritten.
func Peephole(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		n += peepholeFunc(f)
	}
	return n
}

// peepholeFunc rewrites one function in a single pass. Replacements are
// batched: each visited instruction's operands are resolved first, and one
// sweep at the end covers the rest. A block with a rewrite is rebuilt in
// order — the new address chain lands where InsertBefore would have put it
// — rather than rescanned per insertion and removal.
func peepholeFunc(f *ir.Func) int {
	changed := 0
	r := ir.NewReplacer(f)
	for _, b := range f.Blocks {
		old, rebuilt := b.Instrs, false
		for k, in := range old {
			r.ResolveOperands(in)
			var base ir.Value
			var offsets []ir.Value
			ok := false
			if in.Op == ir.OpIntToPtr {
				base, offsets, ok = rewritable(in)
			}
			if ok && !rebuilt {
				b.Instrs = append(make([]*ir.Instr, 0, len(old)+4), old[:k]...)
				rebuilt = true
			}
			switch {
			case ok:
				rewrite(r, b, in, base, offsets)
				changed++
			case rebuilt:
				b.Instrs = append(b.Instrs, in)
			}
		}
	}
	r.Apply()
	return changed
}

// rewritable decomposes an inttoptr's address for the Fig. 5 rules. The
// base may be an inttoptr replaced earlier (under a ptrtoint the visit did
// not reach): it has its replacement's type, and the final sweep and
// Replace itself resolve it.
func rewritable(in *ir.Instr) (base ir.Value, offsets []ir.Value, ok bool) {
	base, offsets, ok = pointerize(in.Args[0], 0)
	if !ok {
		return nil, nil, false
	}
	// A bare inttoptr of a parameter is already in canonical form (Rule 3
	// only fires under address arithmetic); rewriting it would not
	// terminate.
	if _, isParam := base.(*ir.Param); isParam && len(offsets) == 0 {
		return nil, nil, false
	}
	return base, offsets, true
}

// rewrite appends the pointer form of in to b and records the replacement.
func rewrite(r *ir.Replacer, b *ir.Block, in *ir.Instr, base ir.Value, offsets []ir.Value) {
	p := materializePointer(b, base, offsets)
	dst := in.Ty.(*ir.PtrType)
	var repl ir.Value = p
	if !p.Type().Equal(dst) {
		repl = b.Append(&ir.Instr{Op: ir.OpBitcast, Ty: dst, Args: []ir.Value{p}})
	}
	r.Replace(in, repl)
	in.Parent = nil
}

// pointerize decomposes an integer address expression into a pointer base
// plus integer offsets. Bases are ptrtoint of any pointer (Rules 1 and 2)
// or an integer function parameter (Rule 3).
func pointerize(v ir.Value, depth int) (base ir.Value, offsets []ir.Value, ok bool) {
	if depth > 8 {
		return nil, nil, false
	}
	if in, isInstr := v.(*ir.Instr); isInstr {
		switch in.Op {
		case ir.OpPtrToInt:
			return in.Args[0], nil, true
		case ir.OpAdd:
			if b, offs, ok := pointerize(in.Args[0], depth+1); ok {
				return b, append(offs, in.Args[1]), true
			}
			if b, offs, ok := pointerize(in.Args[1], depth+1); ok {
				return b, append(offs, in.Args[0]), true
			}
		}
		return nil, nil, false
	}
	if p, isParam := v.(*ir.Param); isParam && ir.IsInt(p.Ty) {
		// Rule 3: the parameter itself becomes the pointer base via a
		// single inttoptr, which parameter promotion can then absorb.
		return p, nil, true
	}
	return nil, nil, false
}

// materializePointer appends the i8* GEP chain for base+offsets to b.
func materializePointer(b *ir.Block, base ir.Value, offsets []ir.Value) ir.Value {
	i8p := ir.PointerTo(ir.I8)
	var p ir.Value
	if ir.IsPtr(base.Type()) {
		if base.Type().Equal(i8p) {
			p = base
		} else {
			p = b.Append(&ir.Instr{Op: ir.OpBitcast, Ty: i8p, Args: []ir.Value{base}})
		}
	} else {
		// Integer parameter base (Rule 3).
		p = b.Append(&ir.Instr{Op: ir.OpIntToPtr, Ty: i8p, Args: []ir.Value{base}})
	}
	for _, off := range offsets {
		p = b.Append(&ir.Instr{Op: ir.OpGEP, Ty: i8p, Elem: ir.I8, Args: []ir.Value{p, off}})
	}
	return p
}

// PromoteParams applies §5.2: an integer parameter whose only uses are
// inttoptr instructions is retyped as a pointer; call sites are adjusted.
// Returns the number of promoted parameters.
func PromoteParams(m *ir.Module) int { return PromoteParamsFiltered(m, nil) }

// PromoteParamsFiltered is PromoteParams restricted to functions for which
// keep returns true (nil keeps everything). The fault-tolerant pipeline
// excludes functions that already degraded to their lifted snapshot:
// retyping a degraded function's signature would desynchronize it from the
// call-site rewrites applied elsewhere. Call sites *inside* excluded
// functions are still adjusted — signature changes are module-wide facts.
func PromoteParamsFiltered(m *ir.Module, keep func(*ir.Func) bool) int {
	promoted := 0
	for _, f := range m.Funcs {
		if f.External || len(f.Blocks) == 0 {
			continue
		}
		if keep != nil && !keep(f) {
			continue
		}
		uses := paramUses(f)
		r := ir.NewReplacer(f)
		for idx, p := range f.Params {
			if !ir.IsInt(p.Ty) {
				continue
			}
			us := uses[idx]
			if len(us) == 0 {
				continue
			}
			allIntToPtr := true
			var dest *ir.PtrType
			uniform := true
			for _, u := range us {
				if u.Op != ir.OpIntToPtr {
					allIntToPtr = false
					break
				}
				dt := u.Ty.(*ir.PtrType)
				if dest == nil {
					dest = dt
				} else if !dest.Equal(dt) {
					uniform = false
				}
			}
			if !allIntToPtr || dest == nil {
				continue
			}
			newTy := ir.Type(dest)
			if !uniform {
				newTy = ir.PointerTo(ir.I8)
			}
			// Retype the parameter.
			p.Ty = newTy
			f.Sig.Params[idx] = newTy
			// Rewrite the inttoptr users.
			for _, u := range us {
				if u.Ty.Equal(newTy) {
					r.Replace(u, p)
					u.Parent = nil
				} else {
					u.Op = ir.OpBitcast
				}
			}
			// Adjust every call site in the module.
			rewriteCallSites(m, f, idx, newTy)
			promoted++
		}
		if r.Apply() {
			ir.DropDetached(f)
		}
	}
	return promoted
}

// paramUses lists, per parameter index, the instructions using that
// parameter, in block and instruction order: the only uses promotion reads.
func paramUses(f *ir.Func) [][]*ir.Instr {
	us := make([][]*ir.Instr, len(f.Params))
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if p, ok := a.(*ir.Param); ok && p.Idx < len(us) && f.Params[p.Idx] == p {
					us[p.Idx] = append(us[p.Idx], in)
				}
			}
		}
	}
	return us
}

func rewriteCallSites(m *ir.Module, callee *ir.Func, argIdx int, newTy ir.Type) {
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpCall || in.Args[0] != ir.Value(callee) {
					continue
				}
				arg := in.Args[1+argIdx]
				if arg.Type().Equal(newTy) {
					continue
				}
				cast := &ir.Instr{Op: ir.OpIntToPtr, Ty: newTy, Args: []ir.Value{arg}}
				b.InsertBefore(cast, in)
				in.Args[1+argIdx] = cast
			}
		}
	}
}

// cleanupDeadCasts removes pure instructions left without uses by the
// rewrites (dead ptrtoint/add/inttoptr chains).
func cleanupDeadCasts(m *ir.Module) int {
	removed := 0
	for _, f := range m.Funcs {
		removed += cleanupFunc(f)
	}
	return removed
}

// cleanupFunc is a worklist over use counts taken once: removing a dead
// instruction decrements its operands' counts and revisits them. An
// instruction only becomes dead as others disappear, so the removed set is
// the same as rescanning to a fixpoint.
//
// Counts are indexed by instruction ID, which the verifier keeps unique and
// within IDBound.
func cleanupFunc(f *ir.Func) int {
	uses := make([]int32, f.IDBound()+1)
	var work []*ir.Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if ai, ok := a.(*ir.Instr); ok && ai.ID < len(uses) {
					uses[ai.ID]++
				}
			}
			work = append(work, in)
		}
	}
	removed := 0
	for len(work) > 0 {
		in := work[len(work)-1]
		work = work[:len(work)-1]
		if in.Parent == nil || in.HasSideEffects() || ir.IsVoid(in.Ty) || in.Op == ir.OpPhi ||
			in.ID >= len(uses) || uses[in.ID] != 0 {
			continue
		}
		in.Parent = nil
		removed++
		for _, a := range in.Args {
			if ai, ok := a.(*ir.Instr); ok && ai.ID < len(uses) {
				uses[ai.ID]--
				work = append(work, ai)
			}
		}
	}
	if removed > 0 {
		ir.DropDetached(f)
	}
	return removed
}
