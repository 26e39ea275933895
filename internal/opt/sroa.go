package opt

import (
	"slices"
	"sort"

	"lasagne/internal/ir"
)

// Reassociate re-ranks commutative expression chains so constants sink to
// the outermost position where instcombine can fold them:
// (x + c) + y -> (x + y) + c.
func Reassociate(f *ir.Func) bool {
	// A rewrite moves y from the outer operation to the inner one and a
	// constant the other way, so no instruction's use count changes: one
	// use map, built at the first candidate, serves the whole walk.
	var uses *ir.Uses
	changed := false
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if !ir.CommutativeOp(in.Op) || len(in.Args) != 2 {
				continue
			}
			ai, ok := in.Args[0].(*ir.Instr)
			if !ok || ai.Op != in.Op || len(ai.Args) != 2 {
				continue
			}
			_, innerConst := ai.Args[1].(*ir.ConstInt)
			_, outerConst := in.Args[1].(*ir.ConstInt)
			if innerConst && !outerConst {
				// (x op c) op y  ->  (x op y) op c, reusing ai only if this
				// is its single use (otherwise we would duplicate work).
				if uses == nil {
					uses = ir.ComputeUses(f)
				}
				if len(uses.Of(ai)) != 1 {
					continue
				}
				c := ai.Args[1]
				y := in.Args[1]
				ai.Args[1] = y
				in.Args[1] = c
				changed = true
			}
		}
	}
	if changed {
		InstCombine(f)
	}
	return changed
}

// cell is one scalar slot discovered inside a byte-array alloca.
type cell struct {
	off int64
	ty  ir.Type
}

// SROA (scalar replacement of aggregates) splits byte-array allocas that
// are only accessed through constant offsets at consistent scalar types
// into one scalar alloca per cell, unlocking mem2reg for lifted stack
// frames. Any escaping use (ptrtoint, calls, dynamic offsets, overlapping
// cells) disqualifies the alloca — which is exactly why the §5 refinement
// matters: before it, frame addresses flow through ptrtoint chains.
//
// One use index serves every alloca: a split rewrites only the accesses and
// address chain of its own alloca, and no chain is shared between allocas
// (collectAccesses rejects any use that is not a bitcast, a GEP on the
// chain, or an access), so the other allocas' entries stay exact. Removed
// chains are compacted in one sweep.
func SROA(f *ir.Func) bool {
	removeUnreachable(f)
	var uses *ir.Uses
	changed := false
	for _, b := range f.Blocks {
		for _, in := range append([]*ir.Instr(nil), b.Instrs...) {
			if in.Op != ir.OpAlloca || in.Parent == nil {
				continue
			}
			at, ok := in.Elem.(*ir.ArrayType)
			if !ok || !at.Elem.Equal(ir.I8) || len(in.Args) != 0 {
				continue
			}
			if uses == nil {
				uses = ir.ComputeUses(f)
			}
			if splitAlloca(f, in, uses) {
				changed = true
			}
		}
	}
	if changed {
		ir.DropDetached(f)
		DCE(f)
	}
	return changed
}

// access records one load/store reaching the alloca at a constant offset.
type access struct {
	instr *ir.Instr
	off   int64
	ty    ir.Type
}

// collectAccesses walks the use tree of v (bitcasts and constant GEPs) and
// gathers all terminal accesses. It returns false if any use escapes.
func collectAccesses(uses *ir.Uses, v ir.Value, off int64, out *[]access, chain *[]*ir.Instr) bool {
	for _, u := range uses.Of(v) {
		switch u.Op {
		case ir.OpBitcast:
			*chain = append(*chain, u)
			if !collectAccesses(uses, u, off, out, chain) {
				return false
			}
		case ir.OpGEP:
			if u.Args[0] != v {
				return false // used as an index?!
			}
			delta := int64(0)
			elem := u.Elem
			for k, idx := range u.Args[1:] {
				c, ok := ir.ConstIntValue(idx)
				if !ok {
					return false
				}
				es := int64(elem.Size())
				if k > 0 {
					at, ok := elem.(*ir.ArrayType)
					if !ok {
						return false
					}
					elem = at.Elem
					es = int64(elem.Size())
				}
				delta += c * es
			}
			*chain = append(*chain, u)
			if !collectAccesses(uses, u, off+delta, out, chain) {
				return false
			}
		case ir.OpLoad:
			if u.Order != ir.NotAtomic {
				return false
			}
			*out = append(*out, access{instr: u, off: off, ty: u.Ty})
		case ir.OpStore:
			if u.Args[1] != v || u.Order != ir.NotAtomic {
				return false // stored as a value, or atomic
			}
			*out = append(*out, access{instr: u, off: off, ty: u.Args[0].Type()})
		default:
			return false
		}
	}
	return true
}

func splitAlloca(f *ir.Func, a *ir.Instr, uses *ir.Uses) bool {
	var accs []access
	var chain []*ir.Instr
	if !collectAccesses(uses, a, 0, &accs, &chain) {
		return false
	}
	if len(accs) == 0 {
		return false
	}
	// Build non-overlapping cells; any overlap or type conflict aborts.
	cells := map[int64]ir.Type{}
	for _, ac := range accs {
		if ir.IsVector(ac.ty) {
			return false
		}
		if prev, ok := cells[ac.off]; ok {
			if !prev.Equal(ac.ty) {
				return false
			}
			continue
		}
		cells[ac.off] = ac.ty
	}
	// Work in ascending offset order so the replacement allocas appear in a
	// deterministic sequence in the entry block.
	offs := make([]int64, 0, len(cells))
	for off := range cells {
		offs = append(offs, off)
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	// Overlap check.
	type span struct{ lo, hi int64 }
	var spans []span
	for _, off := range offs {
		spans = append(spans, span{off, off + int64(cells[off].Size())})
	}
	for i := range spans {
		for j := range spans {
			if i != j && spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
				return false
			}
		}
	}

	// Create one alloca per cell.
	entry := f.Entry()
	cellAlloca := map[int64]*ir.Instr{}
	for _, off := range offs {
		ty := cells[off]
		na := &ir.Instr{Op: ir.OpAlloca, Ty: ir.PointerTo(ty), Elem: ty}
		entry.InsertBefore(na, entry.Instrs[0])
		cellAlloca[off] = na
	}
	// Rewrite accesses.
	for _, ac := range accs {
		na := cellAlloca[ac.off]
		switch ac.instr.Op {
		case ir.OpLoad:
			ac.instr.Args[0] = na
		case ir.OpStore:
			ac.instr.Args[1] = na
		}
	}
	// Detach the dead address chain and the original alloca; the caller
	// compacts. Every user of a chain value is on the chain or an access,
	// so a value is dead once no live user still names it.
	for i := len(chain) - 1; i >= 0; i-- {
		in := chain[i]
		if in.Parent != nil && !usedByLive(uses, in) {
			in.Parent = nil
		}
	}
	if !usedByLive(uses, a) {
		a.Parent = nil
	}
	return true
}

// usedByLive reports whether a still-attached user of v, among those the
// index recorded, names v as an operand.
func usedByLive(uses *ir.Uses, v *ir.Instr) bool {
	for _, u := range uses.Of(v) {
		if u.Parent != nil && slices.Contains(u.Args, ir.Value(v)) {
			return true
		}
	}
	return false
}

// Scalarize rewrites vector-typed operations into scalar sequences so the
// scalar backends can compile modules whose lifted code used packed SSE
// semantics. Vector loads/stores become per-lane accesses, vector
// arithmetic becomes per-lane arithmetic, and vector<->scalar bitcasts
// become shift/or packing. Replaced vector values are batched: a rewrite
// reads only its operands' types, which a replacement keeps, so one sweep
// at the end resolves every operand.
func Scalarize(f *ir.Func) bool {
	changed := false
	r := ir.NewReplacer(f)
	for _, b := range f.Blocks {
		for _, in := range append([]*ir.Instr(nil), b.Instrs...) {
			if in.Parent == nil {
				continue
			}
			if scalarizeInstr(r, b, in) {
				changed = true
			}
		}
	}
	if changed {
		ir.DropDetached(f)
		r.Apply()
		DCE(f)
	}
	return changed
}

func scalarizeInstr(r *ir.Replacer, b *ir.Block, in *ir.Instr) bool {
	vt, isVec := in.Ty.(*ir.VectorType)
	if !isVec {
		// Vector stores are void-typed.
		if in.Op == ir.OpStore {
			if svt, ok := in.Args[0].Type().(*ir.VectorType); ok {
				lanes := explodeVector(b, in, in.Args[0], svt)
				base := castLanePtr(b, in, in.Args[1], svt.Elem)
				for k, lane := range lanes {
					gep := &ir.Instr{Op: ir.OpGEP, Ty: ir.PointerTo(svt.Elem), Elem: svt.Elem,
						Args: []ir.Value{base, ir.I64Const(int64(k))}}
					b.InsertBefore(gep, in)
					st := &ir.Instr{Op: ir.OpStore, Ty: ir.Void, Args: []ir.Value{lane, gep}}
					b.InsertBefore(st, in)
				}
				in.Parent = nil
				return true
			}
		}
		return false
	}
	switch {
	case in.Op == ir.OpLoad:
		base := castLanePtr(b, in, in.Args[0], vt.Elem)
		lanes := make([]ir.Value, vt.Len)
		for k := range lanes {
			gep := &ir.Instr{Op: ir.OpGEP, Ty: ir.PointerTo(vt.Elem), Elem: vt.Elem,
				Args: []ir.Value{base, ir.I64Const(int64(k))}}
			b.InsertBefore(gep, in)
			ld := &ir.Instr{Op: ir.OpLoad, Ty: vt.Elem, Args: []ir.Value{gep}}
			b.InsertBefore(ld, in)
			lanes[k] = ld
		}
		replaceVector(r, b, in, lanes, vt)
		return true
	case ir.IsBinaryOp(in.Op):
		la := explodeVector(b, in, in.Args[0], vt)
		lb := explodeVector(b, in, in.Args[1], vt)
		lanes := make([]ir.Value, vt.Len)
		for k := range lanes {
			op := &ir.Instr{Op: in.Op, Ty: vt.Elem, Args: []ir.Value{la[k], lb[k]}}
			b.InsertBefore(op, in)
			lanes[k] = op
		}
		replaceVector(r, b, in, lanes, vt)
		return true
	}
	return false
}

// castLanePtr converts a vector pointer to an element pointer.
func castLanePtr(b *ir.Block, pos *ir.Instr, p ir.Value, elem ir.Type) ir.Value {
	want := ir.PointerTo(elem)
	if p.Type().Equal(want) {
		return p
	}
	bc := &ir.Instr{Op: ir.OpBitcast, Ty: want, Args: []ir.Value{p}}
	b.InsertBefore(bc, pos)
	return bc
}

// explodeVector extracts all lanes of a vector value before pos.
func explodeVector(b *ir.Block, pos *ir.Instr, v ir.Value, vt *ir.VectorType) []ir.Value {
	lanes := make([]ir.Value, vt.Len)
	for k := range lanes {
		ee := &ir.Instr{Op: ir.OpExtractElement, Ty: vt.Elem,
			Args: []ir.Value{v, ir.I64Const(int64(k))}}
		b.InsertBefore(ee, pos)
		lanes[k] = ee
	}
	return lanes
}

// replaceVector rebuilds a vector value from lanes (via insertelement) and
// substitutes it for in.
func replaceVector(r *ir.Replacer, b *ir.Block, in *ir.Instr, lanes []ir.Value, vt *ir.VectorType) {
	var cur ir.Value = ir.NewUndef(vt)
	for k, lane := range lanes {
		ie := &ir.Instr{Op: ir.OpInsertElement, Ty: vt,
			Args: []ir.Value{cur, lane, ir.I64Const(int64(k))}}
		b.InsertBefore(ie, in)
		cur = ie
	}
	r.Replace(in, cur)
	in.Parent = nil
}
