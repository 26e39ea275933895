package ir

// DropDetached removes from f's blocks every instruction whose Parent has
// been cleared. A pass that decides many removals at once marks each dead
// instruction with Parent = nil and compacts every block in one sweep,
// instead of a Block.Remove scan per instruction.
func DropDetached(f *Func) {
	for _, b := range f.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if in.Parent != nil {
				kept = append(kept, in)
			}
		}
		clear(b.Instrs[len(kept):])
		b.Instrs = kept
	}
}

// ReachableBlocks returns the set of blocks reachable from the entry.
func ReachableBlocks(f *Func) map[*Block]bool {
	seen := make(map[*Block]bool)
	if len(f.Blocks) == 0 {
		return seen
	}
	var stack []*Block
	stack = append(stack, f.Blocks[0])
	seen[f.Blocks[0]] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs() {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// DomTree holds immediate-dominator information for a function.
type DomTree struct {
	IDom     map[*Block]*Block   // immediate dominator (entry maps to nil)
	Children map[*Block][]*Block // dominator-tree children
	order    map[*Block]int      // reverse postorder index, reachable blocks only
	preds    map[*Block][]*Block // predecessors of f's blocks, in block order
}

// ComputeDomTree builds the dominator tree using the Cooper-Harvey-Kennedy
// iterative algorithm.
func ComputeDomTree(f *Func) *DomTree {
	entry := f.Entry()
	dt := &DomTree{
		IDom:     make(map[*Block]*Block),
		Children: make(map[*Block][]*Block),
		order:    make(map[*Block]int),
		preds:    predecessors(f),
	}
	if entry == nil {
		return dt
	}

	// Reverse postorder.
	var rpo []*Block
	seen := make(map[*Block]bool)
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b] = true
		for _, s := range b.Succs() {
			if !seen[s] {
				dfs(s)
			}
		}
		rpo = append(rpo, b)
	}
	dfs(entry)
	for i, j := 0, len(rpo)-1; i < j; i, j = i+1, j-1 {
		rpo[i], rpo[j] = rpo[j], rpo[i]
	}
	for i, b := range rpo {
		dt.order[b] = i
	}

	idom := make(map[*Block]*Block)
	idom[entry] = entry
	intersect := func(a, b *Block) *Block {
		for a != b {
			for dt.order[a] > dt.order[b] {
				a = idom[a]
			}
			for dt.order[b] > dt.order[a] {
				b = idom[b]
			}
		}
		return a
	}
	changed := true
	for changed {
		changed = false
		for _, b := range rpo {
			if b == entry {
				continue
			}
			var newIDom *Block
			for _, p := range dt.preds[b] {
				if idom[p] == nil {
					continue // unreachable or not yet processed
				}
				if newIDom == nil {
					newIDom = p
				} else {
					newIDom = intersect(p, newIDom)
				}
			}
			if newIDom != nil && idom[b] != newIDom {
				idom[b] = newIDom
				changed = true
			}
		}
	}
	// Children are listed in block layout order, so walks over the tree
	// (the rename walk of mem2reg, GVN's scoped table) visit siblings the
	// same way on every run.
	for _, b := range f.Blocks {
		d, ok := idom[b]
		if !ok {
			continue
		}
		if b == entry {
			dt.IDom[b] = nil
			continue
		}
		dt.IDom[b] = d
		dt.Children[d] = append(dt.Children[d], b)
	}
	return dt
}

// predecessors lists the predecessors of each of f's blocks as Block.Preds
// does, in one pass over the terminators.
func predecessors(f *Func) map[*Block][]*Block {
	preds := make(map[*Block][]*Block, len(f.Blocks))
	for _, bb := range f.Blocks {
		for _, s := range bb.Succs() {
			// A terminator naming s twice makes bb one predecessor.
			if ps := preds[s]; len(ps) == 0 || ps[len(ps)-1] != bb {
				preds[s] = append(ps, bb)
			}
		}
	}
	return preds
}

// reachable reports whether b is reachable from the entry block.
func (dt *DomTree) reachable(b *Block) bool {
	_, ok := dt.order[b]
	return ok
}

// Dominates reports whether a dominates b (reflexively).
func (dt *DomTree) Dominates(a, b *Block) bool {
	for b != nil {
		if a == b {
			return true
		}
		b = dt.IDom[b]
	}
	return false
}

// DominanceFrontier computes the dominance frontier of every block, used by
// the mem2reg phi-placement algorithm.
func DominanceFrontier(f *Func, dt *DomTree) map[*Block][]*Block {
	df := make(map[*Block][]*Block)
	add := func(b, w *Block) {
		for _, x := range df[b] {
			if x == w {
				return
			}
		}
		df[b] = append(df[b], w)
	}
	for _, b := range f.Blocks {
		preds := dt.preds[b]
		if len(preds) < 2 {
			continue
		}
		for _, p := range preds {
			runner := p
			for runner != nil && runner != dt.IDom[b] {
				add(runner, b)
				runner = dt.IDom[runner]
			}
		}
	}
	return df
}

// InstrDominates reports whether instruction a dominates instruction b: a
// and b in the same block with a earlier, or a's block strictly dominating
// b's block. Phi uses are checked against the incoming edge instead by the
// verifier.
func InstrDominates(dt *DomTree, a, b *Instr) bool {
	if a.Parent == b.Parent {
		return a.Parent.Index(a) < b.Parent.Index(b)
	}
	return dt.Dominates(a.Parent, b.Parent)
}
