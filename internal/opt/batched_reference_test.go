package opt

import (
	"fmt"
	"sort"
	"strings"

	"lasagne/internal/ir"
)

// This file keeps the passes that now batch their replacements through
// ir.Replacer in their previous form — each rewrite a whole-function
// replaceAllUses scan followed by Block.Remove, and GVN keyed by fmt-built
// strings — as the references the oracle tests compare them against.

// BatchedReferences maps each pass that batches its replacements to its
// previous form.
var BatchedReferences = map[string]func(*ir.Func) bool{
	"gvn":         referenceGVN,
	"mem2reg":     referenceMem2Reg,
	"sccp":        referenceSCCP,
	"instcombine": referenceInstCombine,
	"sroa":        referenceSROA,
	"licm":        referenceLICM,
	"simplifycfg": referenceSimplifyCFG,
	"scalarize":   referenceScalarize,
}

// replaceAllUses rewrites every use of old within f to new.
func replaceAllUses(f *ir.Func, old, new ir.Value) int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			n += in.ReplaceUses(old, new)
		}
	}
	return n
}

// hasUses reports whether v is used by any instruction in f.
func hasUses(f *ir.Func, v ir.Value) bool {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if a == v {
					return true
				}
			}
		}
	}
	return false
}

// referenceGVN performs global value numbering of pure expressions over the
// dominator tree, plus block-local redundant memory access elimination
// following the Fig. 11b adjacent rules (RAR/RAW): repeated loads of the
// same address take the first load's value, loads after a store to the
// same address take the stored value. Atomics and calls invalidate
// everything; intervening non-atomic accesses invalidate only what they
// may alias (justified by the Fig. 11a non-atomic reordering rules).
// Forwarding across a fence is performed only for provably thread-private
// (non-escaping alloca) memory — a strictly stronger condition than the
// paper's fenced F-RAR/F-RAW rules, which hold for final-value behavior.
func referenceGVN(f *ir.Func) bool {
	removeUnreachable(f)
	changed := refPureCSE(f)
	// Forwarding removes loads and hands their users a loaded or stored
	// value. A stored value is an alloca's address only if that store,
	// which stays, already makes the alloca escape; so no answer changes
	// and one escapeInfo built after CSE serves every block.
	esc := &escapeInfo{f: f}
	for _, b := range f.Blocks {
		if refLoadForwarding(f, b, esc) {
			changed = true
		}
	}
	if changed {
		DCE(f)
	}
	return changed
}

// refValueKey builds a structural key for a pure instruction.
func refValueKey(in *ir.Instr) (string, bool) {
	switch {
	case ir.IsBinaryOp(in.Op), ir.IsCast(in.Op):
	default:
		switch in.Op {
		case ir.OpICmp, ir.OpFCmp, ir.OpGEP, ir.OpSelect:
		default:
			return "", false
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d:%s:%d:", in.Op, in.Ty, in.Pred)
	if in.Elem != nil {
		sb.WriteString(in.Elem.String())
	}
	toks := make([]string, len(in.Args))
	for i, a := range in.Args {
		toks[i] = refArgToken(a)
	}
	// Canonicalize commutative operand order by the serialized token, so
	// that e.g. `add x, 5` and `add 5, x` always produce the same key:
	// constants serialize structurally, which keeps the ordering stable
	// across runs (raw pointer addresses are not).
	if ir.CommutativeOp(in.Op) && len(toks) == 2 && toks[1] < toks[0] {
		toks[0], toks[1] = toks[1], toks[0]
	}
	for _, t := range toks {
		sb.WriteString(t)
	}
	return sb.String(), true
}

// refArgToken serializes one operand for valueKey: constants structurally,
// SSA values by identity.
func refArgToken(a ir.Value) string {
	switch c := a.(type) {
	case *ir.ConstInt:
		return fmt.Sprintf("ci%s:%d;", c.Ty, c.V)
	case *ir.ConstFloat:
		return fmt.Sprintf("cf%s:%v;", c.Ty, c.V)
	case *ir.ConstNull:
		return fmt.Sprintf("null%s;", c.Ty)
	default:
		return fmt.Sprintf("%p;", a)
	}
}

// refPureCSE eliminates structurally identical pure instructions dominated by
// an earlier occurrence.
func refPureCSE(f *ir.Func) bool {
	dt := ir.ComputeDomTree(f)
	changed := false
	type scope struct{ added []string }
	table := map[string]*ir.Instr{}
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		sc := scope{}
		for _, in := range append([]*ir.Instr(nil), b.Instrs...) {
			key, ok := refValueKey(in)
			if !ok {
				continue
			}
			if prev, exists := table[key]; exists {
				replaceAllUses(f, in, prev)
				b.Remove(in)
				changed = true
				continue
			}
			table[key] = in
			sc.added = append(sc.added, key)
		}
		for _, c := range dt.Children[b] {
			walk(c)
		}
		for _, k := range sc.added {
			delete(table, k)
		}
	}
	if f.Entry() != nil {
		walk(f.Entry())
	}
	return changed
}

func refLoadForwarding(f *ir.Func, b *ir.Block, esc *escapeInfo) bool {
	changed := false
	var avail []availEntry
	clear := func() { avail = avail[:0] }
	for _, in := range append([]*ir.Instr(nil), b.Instrs...) {
		switch in.Op {
		case ir.OpFence:
			for i := range avail {
				avail[i].crossFence = true
			}
		case ir.OpCall, ir.OpRMW, ir.OpCmpXchg:
			clear()
		case ir.OpLoad:
			if in.Order != ir.NotAtomic {
				clear()
				continue
			}
			replaced := false
			for _, e := range avail {
				if e.addr != in.Args[0] || !e.val.Type().Equal(in.Ty) {
					continue
				}
				// Adjacent forwarding is always legal (Fig. 11b RAR/RAW);
				// crossing a fence requires thread-private memory.
				if e.crossFence && !esc.isPrivate(in.Args[0]) {
					continue
				}
				replaceAllUses(f, in, e.val)
				b.Remove(in)
				changed = true
				replaced = true
				break
			}
			if !replaced {
				avail = append(avail, availEntry{addr: in.Args[0], val: in})
			}
		case ir.OpStore:
			if in.Order != ir.NotAtomic {
				clear()
				continue
			}
			// Invalidate aliasing entries.
			kept := avail[:0]
			for _, e := range avail {
				if !mayAlias(e.addr, in.Args[1]) {
					kept = append(kept, e)
				}
			}
			avail = kept
			avail = append(avail, availEntry{addr: in.Args[1], val: in.Args[0], isStore: true})
		}
	}
	return changed
}

// referenceMem2Reg promotes allocas whose only uses are same-typed loads and stores
// into SSA registers, inserting phi nodes at dominance frontiers (the
// classic algorithm). Escaping allocas — address taken by ptrtoint, passed
// to calls, cast to other pointer types, or accessed atomically — are left
// in memory.
func referenceMem2Reg(f *ir.Func) bool {
	if len(f.Blocks) == 0 {
		return false
	}
	removeUnreachable(f)
	uses := referenceUses(f)
	var candidates []*ir.Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpAlloca && len(in.Args) == 0 && refPromotable(in, uses) {
				candidates = append(candidates, in)
			}
		}
	}
	if len(candidates) == 0 {
		return false
	}

	dt := ir.ComputeDomTree(f)
	df := ir.DominanceFrontier(f, dt)

	for _, a := range candidates {
		refPromoteAlloca(f, a, dt, df, uses)
	}
	return true
}

// refPromotable reports whether every use of the alloca is a non-atomic load
// of the element type or a store of the element type *to* it.
func refPromotable(a *ir.Instr, uses map[ir.Value][]*ir.Instr) bool {
	if ir.IsVector(a.Elem) {
		return false
	}
	for _, u := range uses[a] {
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

func refPromoteAlloca(f *ir.Func, a *ir.Instr, dt *ir.DomTree, df map[*ir.Block][]*ir.Block, uses map[ir.Value][]*ir.Instr) {
	// Blocks containing stores (definitions).
	defBlocks := map[*ir.Block]bool{}
	for _, u := range uses[a] {
		if u.Op == ir.OpStore {
			defBlocks[u.Parent] = true
		}
	}

	// Phi placement via iterated dominance frontier. The worklist is seeded
	// in block layout order so phi discovery follows the same sequence on
	// every run.
	phiBlocks := map[*ir.Block]*ir.Instr{}
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
			if _, done := phiBlocks[fb]; done {
				continue
			}
			phi := &ir.Instr{Op: ir.OpPhi, Ty: a.Elem}
			if len(fb.Instrs) > 0 {
				fb.InsertBefore(phi, fb.Instrs[0])
			} else {
				fb.Append(phi)
			}
			phiBlocks[fb] = phi
			if !inWork[fb] {
				inWork[fb] = true
				work = append(work, fb)
			}
		}
	}

	// Rename pass: walk the dominator tree carrying the current value.
	var rename func(b *ir.Block, cur ir.Value)
	rename = func(b *ir.Block, cur ir.Value) {
		if phi, ok := phiBlocks[b]; ok {
			cur = phi
		}
		for _, in := range append([]*ir.Instr(nil), b.Instrs...) {
			switch {
			case in.Op == ir.OpLoad && in.Args[0] == ir.Value(a):
				if cur == nil {
					cur = ir.NewUndef(a.Elem)
				}
				replaceAllUses(f, in, cur)
				b.Remove(in)
			case in.Op == ir.OpStore && in.Args[1] == ir.Value(a):
				cur = in.Args[0]
				b.Remove(in)
			}
		}
		seen := map[*ir.Block]bool{}
		for _, s := range b.Succs() {
			if seen[s] {
				continue
			}
			seen[s] = true
			if phi, ok := phiBlocks[s]; ok {
				v := cur
				if v == nil {
					v = ir.NewUndef(a.Elem)
				}
				ir.AddIncoming(phi, v, b)
			}
		}
		for _, child := range dt.Children[b] {
			rename(child, cur)
		}
	}
	rename(f.Entry(), nil)

	// Phis in unreachable blocks got no incoming edges; leave them — ADCE /
	// simplifycfg removes unreachable blocks. Finally drop the alloca.
	a.Parent.Remove(a)

	// Prune phis whose incoming edges are fewer than predecessors (can
	// happen when a predecessor is unreachable): fill with undef.
	for b, phi := range phiBlocks {
		preds := b.Preds()
		if len(phi.Args) == len(preds) {
			continue
		}
		have := map[*ir.Block]bool{}
		for _, ib := range phi.Blocks {
			have[ib] = true
		}
		for _, p := range preds {
			if !have[p] {
				ir.AddIncoming(phi, ir.NewUndef(a.Elem), p)
			}
		}
	}
}

// referenceSCCP is sparse conditional constant propagation: an optimistic lattice
// (unknown -> constant -> overdefined) propagated only along executable
// edges, so constants flowing around provably-dead branches are still
// discovered. Afterwards constant values are substituted and constant
// branches folded.
func referenceSCCP(f *ir.Func) bool {
	if len(f.Blocks) == 0 {
		return false
	}
	removeUnreachable(f)

	vals := map[ir.Value]lattice{}
	get := func(v ir.Value) lattice {
		switch v.(type) {
		case *ir.ConstInt, *ir.ConstFloat, *ir.ConstNull:
			return lattice{state: latConst, val: v}
		case *ir.Global, *ir.Func, *ir.Param, *ir.Undef:
			return lattice{state: latOver}
		}
		return vals[v]
	}

	execEdge := map[[2]*ir.Block]bool{}
	execBlock := map[*ir.Block]bool{}
	var blockWork []*ir.Block
	var instWork []*ir.Instr
	uses := referenceUses(f)

	setVal := func(in *ir.Instr, l lattice) {
		old := vals[in]
		if old.state == latOver || (old.state == l.state && sameConst(old.val, l.val)) {
			return
		}
		vals[in] = l
		for _, u := range uses[in] {
			instWork = append(instWork, u)
		}
	}

	markEdge := func(from, to *ir.Block) {
		key := [2]*ir.Block{from, to}
		if execEdge[key] {
			return
		}
		execEdge[key] = true
		for _, phi := range to.Phis() {
			instWork = append(instWork, phi)
		}
		if !execBlock[to] {
			execBlock[to] = true
			blockWork = append(blockWork, to)
		}
	}

	visitInst := func(in *ir.Instr) {
		if !execBlock[in.Parent] {
			return
		}
		switch in.Op {
		case ir.OpPhi:
			res := lattice{}
			for k, a := range in.Args {
				if !execEdge[[2]*ir.Block{in.Blocks[k], in.Parent}] {
					continue
				}
				l := get(a)
				switch {
				case l.state == latUnknown:
				case l.state == latOver:
					res = lattice{state: latOver}
				case res.state == latUnknown:
					res = l
				case res.state == latConst && !sameConst(res.val, l.val):
					res = lattice{state: latOver}
				}
			}
			setVal(in, res)
		case ir.OpBr:
			markEdge(in.Parent, in.Blocks[0])
		case ir.OpCondBr:
			l := get(in.Args[0])
			switch l.state {
			case latConst:
				c, _ := ir.ConstIntValue(l.val)
				if c&1 != 0 {
					markEdge(in.Parent, in.Blocks[0])
				} else {
					markEdge(in.Parent, in.Blocks[1])
				}
			case latOver:
				markEdge(in.Parent, in.Blocks[0])
				markEdge(in.Parent, in.Blocks[1])
			}
		default:
			if ir.IsVoid(in.Ty) {
				return
			}
			if in.HasSideEffects() || in.IsMemAccess() || in.Op == ir.OpAlloca {
				setVal(in, lattice{state: latOver})
				return
			}
			if folded := sccpFold(in, get); folded != nil {
				setVal(in, lattice{state: latConst, val: folded})
				return
			}
			for _, a := range in.Args {
				if get(a).state == latOver {
					setVal(in, lattice{state: latOver})
					return
				}
			}
		}
	}

	entry := f.Entry()
	execBlock[entry] = true
	blockWork = append(blockWork, entry)
	for len(blockWork) > 0 || len(instWork) > 0 {
		if len(instWork) > 0 {
			in := instWork[len(instWork)-1]
			instWork = instWork[:len(instWork)-1]
			visitInst(in)
			continue
		}
		b := blockWork[len(blockWork)-1]
		blockWork = blockWork[:len(blockWork)-1]
		for _, in := range b.Instrs {
			visitInst(in)
		}
	}

	changed := false
	for _, b := range f.Blocks {
		for _, in := range append([]*ir.Instr(nil), b.Instrs...) {
			l := vals[in]
			if l.state == latConst {
				replaceAllUses(f, in, l.val)
				if !in.HasSideEffects() {
					b.Remove(in)
				}
				changed = true
			}
		}
	}
	if foldConstBranches(f) {
		changed = true
	}
	if removeUnreachable(f) {
		changed = true
	}
	if changed {
		DCE(f)
	}
	return changed
}

// referenceInstCombine performs peephole simplification: constant folding, algebraic
// identities and cast-chain collapsing. It iterates to a fixpoint.
func referenceInstCombine(f *ir.Func) bool {
	changed := false
	for iter := 0; iter < 8; iter++ {
		n := 0
		for _, b := range f.Blocks {
			for _, in := range append([]*ir.Instr(nil), b.Instrs...) {
				if in.Parent == nil {
					continue
				}
				if v := simplify(in); v != nil {
					replaceAllUses(f, in, v)
					b.Remove(in)
					n++
				}
			}
		}
		if n == 0 {
			break
		}
		changed = true
	}
	if DCE(f) {
		changed = true
	}
	return changed
}

// referenceSROA (scalar replacement of aggregates) splits byte-array allocas that
// are only accessed through constant offsets at consistent scalar types
// into one scalar alloca per cell, unlocking mem2reg for lifted stack
// frames. Any escaping use (ptrtoint, calls, dynamic offsets, overlapping
// cells) disqualifies the alloca — which is exactly why the §5 refinement
// matters: before it, frame addresses flow through ptrtoint chains.
func referenceSROA(f *ir.Func) bool {
	removeUnreachable(f)
	uses := referenceUses(f)
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
			if refSplitAlloca(f, in, uses) {
				changed = true
				uses = referenceUses(f)
			}
		}
	}
	if changed {
		DCE(f)
	}
	return changed
}

// refCollectAccesses walks the use tree of v (bitcasts and constant GEPs) and
// gathers all terminal accesses. It returns false if any use escapes.
func refCollectAccesses(uses map[ir.Value][]*ir.Instr, v ir.Value, off int64, out *[]access, chain *[]*ir.Instr) bool {
	for _, u := range uses[v] {
		switch u.Op {
		case ir.OpBitcast:
			*chain = append(*chain, u)
			if !refCollectAccesses(uses, u, off, out, chain) {
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
			if !refCollectAccesses(uses, u, off+delta, out, chain) {
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

func refSplitAlloca(f *ir.Func, a *ir.Instr, uses map[ir.Value][]*ir.Instr) bool {
	var accs []access
	var chain []*ir.Instr
	if !refCollectAccesses(uses, a, 0, &accs, &chain) {
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
	// Remove the dead address chain and the original alloca.
	for i := len(chain) - 1; i >= 0; i-- {
		in := chain[i]
		if in.Parent != nil && !hasUses(f, in) {
			in.Parent.Remove(in)
		}
	}
	if !hasUses(f, a) {
		a.Parent.Remove(a)
	}
	return true
}

// referenceLICM hoists loop-invariant pure computations out of natural loops into
// the unique loop pre-header. Memory accesses and fences are never moved,
// which keeps the pass trivially LIMM-correct; division is only hoisted
// when the divisor is a non-zero constant (speculation safety).
func referenceLICM(f *ir.Func) bool {
	removeUnreachable(f)
	dt := ir.ComputeDomTree(f)
	// Hoisting moves instructions without changing their operands, and
	// promotion only removes loads and redirects load results, which no
	// alloca's use chain walks through: no rewrite here can change an
	// escape answer, so one escapeInfo serves every loop.
	esc := &escapeInfo{f: f}
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
		if refPromoteLoopLoads(f, loop, pre, inLoop, esc) {
			changed = true
		}
	}
	return changed
}

// refPromoteLoopLoads hoists loads of thread-private (non-escaping alloca)
// addresses that are never stored within the loop: the loaded value is
// loop-invariant, and because the memory is private no other thread or
// callee can modify it. Multiple loads of the same address collapse into
// the single hoisted load — the scalar-promotion half of LLVM's LICM.
func refPromoteLoopLoads(f *ir.Func, l *loopInfo, pre *ir.Block, inLoop func(ir.Value) bool, esc *escapeInfo) bool {
	// Addresses stored to inside the loop (by identified base object).
	storedTo := map[ir.Value]bool{}
	hasAtomicOrCall := false
	body := l.orderedBody(f)
	for _, blk := range body {
		for _, in := range blk.Instrs {
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
				replaceAllUses(f, in, prev)
				blk.Remove(in)
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

// referenceSimplifyCFG folds constant branches, removes unreachable blocks, merges
// straight-line block pairs, threads trivial forwarding blocks, and
// flattens if-then triangles by speculating their pure instructions —
// including loads, the "speculative load introduction" of §7.2 whose
// LIMM-soundness the memmodel package verifies (CheckLoadIntroduction).
func referenceSimplifyCFG(f *ir.Func) bool {
	changed := false
	for iter := 0; iter < 16; iter++ {
		n := false
		if foldConstBranches(f) {
			n = true
		}
		if removeUnreachable(f) {
			n = true
		}
		if refMergeLinearBlocks(f) {
			n = true
		}
		if threadEmptyBlocks(f) {
			n = true
		}
		if speculateTriangles(f) {
			n = true
		}
		if !n {
			break
		}
		changed = true
	}
	return changed
}

// refMergeLinearBlocks merges s into b when b ends in an unconditional branch
// to s and s has b as its only predecessor.
func refMergeLinearBlocks(f *ir.Func) bool {
	changed := false
	for {
		merged := false
		for _, b := range f.Blocks {
			t := b.Terminator()
			if t == nil || t.Op != ir.OpBr {
				continue
			}
			s := t.Blocks[0]
			if s == b || s == f.Entry() {
				continue
			}
			preds := s.Preds()
			if len(preds) != 1 || preds[0] != b {
				continue
			}
			// Phis in s have exactly one incoming value: replace them.
			for _, phi := range append([]*ir.Instr(nil), s.Phis()...) {
				var v ir.Value = ir.NewUndef(phi.Ty)
				if len(phi.Args) == 1 {
					v = phi.Args[0]
				}
				replaceAllUses(f, phi, v)
				s.Remove(phi)
			}
			// Move instructions.
			b.Remove(t)
			for _, in := range s.Instrs {
				in.Parent = b
				b.Instrs = append(b.Instrs, in)
			}
			// Rewrite phi incoming blocks in s's successors.
			for _, ss := range b.Succs() {
				for _, phi := range ss.Phis() {
					for k := range phi.Blocks {
						if phi.Blocks[k] == s {
							phi.Blocks[k] = b
						}
					}
				}
			}
			s.Instrs = nil
			f.RemoveBlock(s)
			merged = true
			changed = true
			break
		}
		if !merged {
			return changed
		}
	}
}

// referenceScalarize rewrites vector-typed operations into scalar sequences
// so the scalar backends can compile modules whose lifted code used packed
// SSE semantics. Vector loads/stores become per-lane accesses, vector
// arithmetic becomes per-lane arithmetic, and vector<->scalar bitcasts
// become shift/or packing.
func referenceScalarize(f *ir.Func) bool {
	changed := false
	for _, b := range f.Blocks {
		for _, in := range append([]*ir.Instr(nil), b.Instrs...) {
			if in.Parent == nil {
				continue
			}
			if refScalarizeInstr(f, b, in) {
				changed = true
			}
		}
	}
	if changed {
		DCE(f)
	}
	return changed
}

func refScalarizeInstr(f *ir.Func, b *ir.Block, in *ir.Instr) bool {
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
				b.Remove(in)
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
		refReplaceVector(f, b, in, lanes, vt)
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
		refReplaceVector(f, b, in, lanes, vt)
		return true
	}
	return false
}

// refReplaceVector rebuilds a vector value from lanes (via insertelement)
// and substitutes it for in.
func refReplaceVector(f *ir.Func, b *ir.Block, in *ir.Instr, lanes []ir.Value, vt *ir.VectorType) {
	var cur ir.Value = ir.NewUndef(vt)
	for k, lane := range lanes {
		ie := &ir.Instr{Op: ir.OpInsertElement, Ty: vt,
			Args: []ir.Value{cur, lane, ir.I64Const(int64(k))}}
		b.InsertBefore(ie, in)
		cur = ie
	}
	replaceAllUses(f, in, cur)
	b.Remove(in)
}
