package opt

import "lasagne/internal/ir"

// DCE removes instructions whose results are unused and which have no side
// effects. Stores into write-only private allocas (never loaded, never
// escaping — e.g. the lifter's dead flag slots) are also dead: the memory is
// thread-private and never read.
//
// It is a worklist over use counts taken once: removing an instruction
// decrements its operands' counts, and an alloca whose last use other than
// a plain store to it goes away releases those stores. Both rules only grow
// as instructions disappear, so the removed set is the same as iterating
// the rules to a fixpoint.
//
// Use counts and alloca slots are indexed by instruction ID, which the
// verifier keeps unique and within IDBound.
func DCE(f *ir.Func) bool {
	type slot struct {
		others int         // uses that are not plain non-atomic stores to it
		stores []*ir.Instr // plain non-atomic stores to it
	}
	bound := f.IDBound()
	var slots []slot
	slotOf := make([]int32, bound+1) // alloca ID -> 1 + index into slots
	var work []*ir.Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpAlloca && in.ID > 0 && in.ID <= bound {
				slots = append(slots, slot{})
				slotOf[in.ID] = int32(len(slots))
			}
			work = append(work, in)
		}
	}
	slotFor := func(a *ir.Instr) *slot {
		if a.ID <= 0 || a.ID > bound || slotOf[a.ID] == 0 {
			return nil
		}
		return &slots[slotOf[a.ID]-1]
	}
	uses := make([]int32, bound+1)
	// operands visits each instruction operand of in, with the alloca slot
	// it occupies and whether the use is a plain store to that slot.
	operands := func(in *ir.Instr, visit func(a *ir.Instr, s *slot, plainStore bool)) {
		for k, v := range in.Args {
			a, ok := v.(*ir.Instr)
			if !ok || a.ID > bound {
				continue
			}
			plain := in.Op == ir.OpStore && k == 1 && in.Order == ir.NotAtomic && in.Args[0] != v
			visit(a, slotFor(a), plain)
		}
	}
	for _, in := range work {
		operands(in, func(a *ir.Instr, s *slot, plain bool) {
			uses[a.ID]++
			switch {
			case s == nil:
			case plain:
				s.stores = append(s.stores, in)
			default:
				s.others++
			}
		})
	}
	dead := func(in *ir.Instr) bool {
		if in.Parent == nil {
			return false // already removed
		}
		if in.Op == ir.OpStore && in.Order == ir.NotAtomic {
			a, ok := in.Args[1].(*ir.Instr)
			if !ok {
				return false
			}
			s := slotFor(a)
			return s != nil && s.others == 0
		}
		return !in.HasSideEffects() && !in.IsTerminator() && !ir.IsVoid(in.Ty) &&
			in.ID <= bound && uses[in.ID] == 0
	}
	removed := 0
	for len(work) > 0 {
		in := work[len(work)-1]
		work = work[:len(work)-1]
		if !dead(in) {
			continue
		}
		in.Parent = nil
		removed++
		operands(in, func(a *ir.Instr, s *slot, plain bool) {
			uses[a.ID]--
			if s != nil && !plain {
				if s.others--; s.others == 0 {
					work = append(work, s.stores...)
				}
			}
			work = append(work, a)
		})
	}
	if removed == 0 {
		return false
	}
	ir.DropDetached(f)
	return true
}

// writeOnlyAllocas returns the allocas whose only uses are non-atomic
// stores *to* them (no loads, no escapes): their stores are unobservable.
func writeOnlyAllocas(f *ir.Func, uses *ir.Uses) map[*ir.Instr]bool {
	out := map[*ir.Instr]bool{}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpAlloca {
				continue
			}
			ok := true
			for _, u := range uses.Of(in) {
				if u.Op != ir.OpStore || u.Args[1] != ir.Value(in) ||
					u.Args[0] == ir.Value(in) || u.Order != ir.NotAtomic {
					ok = false
					break
				}
			}
			if ok {
				out[in] = true
			}
		}
	}
	return out
}

// ADCE is aggressive dead-code elimination: it assumes everything dead and
// marks live only what is reachable from side-effecting roots, then deletes
// the rest (including cyclic dead phi webs that plain DCE cannot remove).
func ADCE(f *ir.Func) bool {
	removeUnreachable(f)
	live := map[*ir.Instr]bool{}
	var work []*ir.Instr
	markLive := func(in *ir.Instr) {
		if !live[in] {
			live[in] = true
			work = append(work, in)
		}
	}
	deadSlots := writeOnlyAllocas(f, ir.ComputeUses(f))
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpStore && in.Order == ir.NotAtomic {
				if a, ok := in.Args[1].(*ir.Instr); ok && deadSlots[a] {
					continue // unobservable store: not a root
				}
			}
			if in.HasSideEffects() || in.IsTerminator() {
				markLive(in)
			}
		}
	}
	for len(work) > 0 {
		in := work[len(work)-1]
		work = work[:len(work)-1]
		for _, a := range in.Args {
			if ai, ok := a.(*ir.Instr); ok {
				markLive(ai)
			}
		}
	}
	changed := false
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if !live[in] {
				in.Parent = nil
				changed = true
			}
		}
	}
	if changed {
		ir.DropDetached(f)
	}
	return changed
}

// removeUnreachable deletes blocks not reachable from the entry and prunes
// phi edges from removed predecessors.
func removeUnreachable(f *ir.Func) bool {
	reach := ir.ReachableBlocks(f)
	if len(reach) == len(f.Blocks) {
		return false
	}
	var kept []*ir.Block
	for _, b := range f.Blocks {
		if reach[b] {
			kept = append(kept, b)
		} else {
			for _, in := range b.Instrs {
				in.Parent = nil
			}
		}
	}
	f.Blocks = kept
	// Prune phi incoming edges from unreachable predecessors.
	for _, b := range f.Blocks {
		for _, phi := range b.Phis() {
			for k := 0; k < len(phi.Blocks); {
				if !reach[phi.Blocks[k]] {
					phi.Args = append(phi.Args[:k], phi.Args[k+1:]...)
					phi.Blocks = append(phi.Blocks[:k], phi.Blocks[k+1:]...)
				} else {
					k++
				}
			}
		}
	}
	return true
}
