package opt

import "lasagne/internal/ir"

// LICM hoists loop-invariant pure computations out of natural loops into
// the unique loop pre-header. Memory accesses and fences are never moved,
// which keeps the pass trivially LIMM-correct; division is only hoisted
// when the divisor is a non-zero constant (speculation safety).
func LICM(f *ir.Func) bool {
	removeUnreachable(f)
	dt := ir.ComputeDomTree(f)
	// Hoisting moves instructions without changing their operands, and
	// promotion only removes loads and redirects load results, which no
	// alloca's use chain walks through: no rewrite here can change an
	// escape answer, so one escapeInfo serves every loop.
	esc := &escapeInfo{f: f}
	// Merged duplicate loads are batched: every instruction a loop visits
	// has its operands resolved first, so invariance is judged on the values
	// an immediate rewrite would have left, and one sweep ends the pass.
	r := ir.NewReplacer(f)
	changed := false
	for _, loop := range findLoops(f, dt) {
		pre := uniqueOutsidePred(loop)
		if pre == nil || pre.Terminator() == nil {
			continue
		}
		inLoop := func(v ir.Value) bool {
			in, ok := v.(*ir.Instr)
			return ok && in.Parent != nil && loop.body[in.Parent]
		}
		body := loop.orderedBody(f)
		// Iterate: hoisting one instruction can make others invariant.
		// Blocks are visited in layout order so hoisted instructions land in
		// the pre-header in a deterministic sequence.
		for again := true; again; {
			again = false
			for _, blk := range body {
				for _, in := range append([]*ir.Instr(nil), blk.Instrs...) {
					r.ResolveOperands(in)
					if !hoistable(in) {
						continue
					}
					invariant := true
					for _, a := range in.Args {
						if inLoop(a) {
							invariant = false
							break
						}
					}
					if !invariant {
						continue
					}
					blk.Remove(in)
					pre.InsertBefore(in, pre.Terminator())
					again = true
					changed = true
				}
			}
		}
		if promoteLoopLoads(f, loop, pre, inLoop, esc, r) {
			changed = true
		}
	}
	if r.Apply() {
		ir.DropDetached(f)
	}
	return changed
}

// promoteLoopLoads hoists loads of thread-private (non-escaping alloca)
// addresses that are never stored within the loop: the loaded value is
// loop-invariant, and because the memory is private no other thread or
// callee can modify it. Multiple loads of the same address collapse into
// the single hoisted load — the scalar-promotion half of LLVM's LICM.
func promoteLoopLoads(f *ir.Func, l *loopInfo, pre *ir.Block, inLoop func(ir.Value) bool, esc *escapeInfo, r *ir.Replacer) bool {
	// Addresses stored to inside the loop (by identified base object).
	storedTo := map[ir.Value]bool{}
	hasAtomicOrCall := false
	body := l.orderedBody(f)
	for _, blk := range body {
		for _, in := range blk.Instrs {
			r.ResolveOperands(in)
			switch in.Op {
			case ir.OpStore:
				storedTo[in.Args[1]] = true
			case ir.OpRMW, ir.OpCmpXchg:
				hasAtomicOrCall = true
			case ir.OpCall:
				// Calls cannot touch non-escaping allocas; nothing to do.
			}
		}
	}
	changed := false
	hoisted := map[ir.Value]*ir.Instr{}
	for _, blk := range body {
		for _, in := range append([]*ir.Instr(nil), blk.Instrs...) {
			if in.Op != ir.OpLoad || in.Order != ir.NotAtomic || in.Parent == nil {
				continue
			}
			addr := in.Args[0]
			if inLoop(addr) || !esc.isPrivate(addr) || hasAtomicOrCall {
				continue
			}
			// Any store in the loop to a may-aliasing address of the same
			// private object blocks promotion.
			blocked := false
			for sa := range storedTo {
				if mayAlias(sa, addr) && sameBase(sa, addr) {
					blocked = true
					break
				}
			}
			if blocked {
				continue
			}
			if prev, ok := hoisted[addr]; ok && prev.Ty.Equal(in.Ty) {
				r.Replace(in, prev)
				in.Parent = nil
				changed = true
				continue
			}
			blk.Remove(in)
			pre.InsertBefore(in, pre.Terminator())
			hoisted[addr] = in
			changed = true
		}
	}
	return changed
}

// sameBase reports whether two pointers share the same identified object.
func sameBase(a, b ir.Value) bool {
	oa, ob := baseObject(a), baseObject(b)
	return oa != nil && oa == ob
}

// hoistable reports whether an instruction is pure and safe to execute
// speculatively.
func hoistable(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpSDiv, ir.OpUDiv, ir.OpSRem, ir.OpURem:
		c, ok := ir.ConstIntValue(in.Args[1])
		return ok && c != 0
	case ir.OpPhi, ir.OpAlloca:
		return false
	}
	if ir.IsBinaryOp(in.Op) || ir.IsCast(in.Op) {
		return true
	}
	switch in.Op {
	case ir.OpICmp, ir.OpFCmp, ir.OpGEP, ir.OpSelect:
		return true
	}
	return false
}

// loopInfo is one natural loop.
type loopInfo struct {
	header *ir.Block
	body   map[*ir.Block]bool
}

// orderedBody returns the loop's blocks in function layout order, so passes
// that move instructions between blocks behave identically on every run.
func (l *loopInfo) orderedBody(f *ir.Func) []*ir.Block {
	out := make([]*ir.Block, 0, len(l.body))
	for _, b := range f.Blocks {
		if l.body[b] {
			out = append(out, b)
		}
	}
	return out
}

// findLoops identifies natural loops from back edges (tail -> header where
// header dominates tail).
func findLoops(f *ir.Func, dt *ir.DomTree) []*loopInfo {
	byHeader := map[*ir.Block]*loopInfo{}
	var order []*ir.Block
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			if !dt.Dominates(s, b) {
				continue
			}
			// Back edge b -> s.
			li := byHeader[s]
			if li == nil {
				li = &loopInfo{header: s, body: map[*ir.Block]bool{s: true}}
				byHeader[s] = li
				order = append(order, s)
			}
			// Collect body: nodes that reach the tail without passing the
			// header.
			var stack []*ir.Block
			if !li.body[b] {
				li.body[b] = true
				stack = append(stack, b)
			}
			for len(stack) > 0 {
				n := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range n.Preds() {
					if !li.body[p] {
						li.body[p] = true
						stack = append(stack, p)
					}
				}
			}
		}
	}
	var out []*loopInfo
	for _, h := range order {
		out = append(out, byHeader[h])
	}
	return out
}

// uniqueOutsidePred returns the single predecessor of the loop header that
// lies outside the loop, or nil.
func uniqueOutsidePred(l *loopInfo) *ir.Block {
	var pre *ir.Block
	for _, p := range l.header.Preds() {
		if l.body[p] {
			continue
		}
		if pre != nil {
			return nil
		}
		pre = p
	}
	return pre
}
