package opt

import (
	"lasagne/internal/ir"
)

// Mem2Reg promotes allocas whose only uses are same-typed loads and stores
// into SSA registers, inserting phi nodes at dominance frontiers (the
// classic algorithm). Escaping allocas — address taken by ptrtoint, passed
// to calls, cast to other pointer types, or accessed atomically — are left
// in memory.
//
// Phis are placed alloca by alloca, in the order the allocas appear, so
// value numbers come out as if each alloca were promoted on its own; one
// rename walk over the dominator tree then promotes every candidate at
// once, carrying one current value per alloca. Replaced loads go through a
// Replacer, and removed loads, stores and allocas are compacted in one
// sweep.
func Mem2Reg(f *ir.Func) bool {
	if len(f.Blocks) == 0 {
		return false
	}
	removeUnreachable(f)
	uses := ir.ComputeUses(f)
	var candidates []*ir.Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpAlloca && len(in.Args) == 0 && promotable(in, uses) {
				candidates = append(candidates, in)
			}
		}
	}
	if len(candidates) == 0 {
		return false
	}

	dt := ir.ComputeDomTree(f)
	df := ir.DominanceFrontier(f, dt)

	// slot maps an alloca's ID to 1 + its candidate index (0: not one).
	slot := make([]int32, f.IDBound()+1)
	for k, a := range candidates {
		slot[a.ID] = int32(k + 1)
	}
	candidate := func(v ir.Value) int {
		a, ok := v.(*ir.Instr)
		if !ok || a.ID <= 0 || a.ID >= len(slot) || slot[a.ID] == 0 || candidates[slot[a.ID]-1] != a {
			return -1
		}
		return int(slot[a.ID] - 1)
	}
	blockPhis := map[*ir.Block][]placedPhi{}
	for k, a := range candidates {
		placePhis(f, k, a, df, uses, blockPhis)
	}

	r := ir.NewReplacer(f)
	cur := make([]ir.Value, len(candidates))
	type saved struct {
		k int
		v ir.Value
	}
	var undo []saved
	set := func(k int, v ir.Value) {
		undo = append(undo, saved{k, cur[k]})
		cur[k] = v
	}
	var rename func(b *ir.Block)
	rename = func(b *ir.Block) {
		mark := len(undo)
		for _, p := range blockPhis[b] {
			set(p.k, p.phi)
		}
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpLoad:
				k := candidate(in.Args[0])
				if k < 0 {
					continue
				}
				if cur[k] == nil {
					set(k, ir.NewUndef(candidates[k].Elem))
				}
				r.Replace(in, cur[k])
				in.Parent = nil
			case ir.OpStore:
				k := candidate(in.Args[1])
				if k < 0 {
					continue
				}
				set(k, r.Resolve(in.Args[0]))
				in.Parent = nil
			}
		}
		succs := b.Succs()
		for i, s := range succs {
			if i == 1 && succs[0] == s {
				continue
			}
			for _, p := range blockPhis[s] {
				v := cur[p.k]
				if v == nil {
					v = ir.NewUndef(candidates[p.k].Elem)
				}
				ir.AddIncoming(p.phi, v, b)
			}
		}
		for _, child := range dt.Children[b] {
			rename(child)
		}
		for len(undo) > mark {
			u := undo[len(undo)-1]
			undo = undo[:len(undo)-1]
			cur[u.k] = u.v
		}
	}
	rename(f.Entry())

	// Phis in unreachable blocks got no incoming edges; leave them — ADCE /
	// simplifycfg removes unreachable blocks. Finally drop the allocas.
	for _, a := range candidates {
		a.Parent = nil
	}
	ir.DropDetached(f)
	r.Apply()

	// Prune phis whose incoming edges are fewer than predecessors (can
	// happen when a predecessor is unreachable): fill with undef.
	for b, phis := range blockPhis {
		preds := b.Preds()
		for _, p := range phis {
			phi := p.phi
			if len(phi.Args) == len(preds) {
				continue
			}
			have := map[*ir.Block]bool{}
			for _, ib := range phi.Blocks {
				have[ib] = true
			}
			for _, pb := range preds {
				if !have[pb] {
					ir.AddIncoming(phi, ir.NewUndef(phi.Ty), pb)
				}
			}
		}
	}
	return true
}

// placedPhi is a phi Mem2Reg placed for candidate k.
type placedPhi struct {
	k   int
	phi *ir.Instr
}

// promotable reports whether every use of the alloca is a non-atomic load
// of the element type or a store of the element type *to* it.
func promotable(a *ir.Instr, uses *ir.Uses) bool {
	if ir.IsVector(a.Elem) {
		return false
	}
	for _, u := range uses.Of(a) {
		switch u.Op {
		case ir.OpLoad:
			if u.Order != ir.NotAtomic || !u.Ty.Equal(a.Elem) {
				return false
			}
		case ir.OpStore:
			// The alloca must be the address, not the stored value.
			if u.Args[1] != ir.Value(a) || u.Order != ir.NotAtomic || !u.Args[0].Type().Equal(a.Elem) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// placePhis inserts candidate k's phis at the iterated dominance frontier
// of the blocks storing to it and records them in blockPhis. The worklist
// is seeded in block layout order so phi discovery follows the same
// sequence on every run.
func placePhis(f *ir.Func, k int, a *ir.Instr, df map[*ir.Block][]*ir.Block, uses *ir.Uses, blockPhis map[*ir.Block][]placedPhi) {
	defBlocks := map[*ir.Block]bool{}
	for _, u := range uses.Of(a) {
		if u.Op == ir.OpStore {
			defBlocks[u.Parent] = true
		}
	}
	placed := map[*ir.Block]bool{}
	work := make([]*ir.Block, 0, len(defBlocks))
	for _, b := range f.Blocks {
		if defBlocks[b] {
			work = append(work, b)
		}
	}
	inWork := map[*ir.Block]bool{}
	for _, b := range work {
		inWork[b] = true
	}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, fb := range df[b] {
			if placed[fb] {
				continue
			}
			phi := &ir.Instr{Op: ir.OpPhi, Ty: a.Elem}
			if len(fb.Instrs) > 0 {
				fb.InsertBefore(phi, fb.Instrs[0])
			} else {
				fb.Append(phi)
			}
			placed[fb] = true
			blockPhis[fb] = append(blockPhis[fb], placedPhi{k, phi})
			if !inWork[fb] {
				inWork[fb] = true
				work = append(work, fb)
			}
		}
	}
}
