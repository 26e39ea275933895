package ir

// ReplaceAllUses is the per-rewrite whole-function scan the batched
// Replacer retired from the passes, kept as the reference it is checked
// against: it rewrites every use of old within f to new.
func ReplaceAllUses(f *Func, old, new Value) int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			n += in.ReplaceUses(old, new)
		}
	}
	return n
}

// referenceUses is the map-backed use map the dense Uses index replaced.
func referenceUses(f *Func) map[Value][]*Instr {
	u := make(map[Value][]*Instr)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				switch a.(type) {
				case *Instr, *Param:
					u[a] = append(u[a], in)
				}
			}
		}
	}
	return u
}

// ReferenceCloneBody is the map-keyed CloneBody the ID-indexed slab copy
// replaced.
func ReferenceCloneBody(f *Func) []*Block {
	vmap := make(map[Value]Value)
	bmap := make(map[*Block]*Block, len(f.Blocks))
	out := make([]*Block, 0, len(f.Blocks))
	for _, b := range f.Blocks {
		nb := &Block{Name: b.Name, Parent: f}
		out = append(out, nb)
		bmap[b] = nb
	}
	// Pass 1: shells, so forward references (phis) resolve in pass 2.
	for _, b := range f.Blocks {
		nb := bmap[b]
		for _, i := range b.Instrs {
			ni := &Instr{
				Op:     i.Op,
				Ty:     i.Ty,
				Elem:   i.Elem,
				Order:  i.Order,
				Fence:  i.Fence,
				RMWOp:  i.RMWOp,
				Pred:   i.Pred,
				ID:     i.ID,
				Nam:    i.Nam,
				Parent: nb,
			}
			nb.Instrs = append(nb.Instrs, ni)
			vmap[i] = ni
		}
	}
	// Pass 2: operands and successor blocks.
	for _, b := range f.Blocks {
		nb := bmap[b]
		for k, i := range b.Instrs {
			ni := nb.Instrs[k]
			if len(i.Args) > 0 {
				ni.Args = make([]Value, len(i.Args))
				for ai, a := range i.Args {
					if na, ok := vmap[a]; ok {
						ni.Args[ai] = na
					} else {
						ni.Args[ai] = a // shared param/global/func/constant
					}
				}
			}
			if len(i.Blocks) > 0 {
				ni.Blocks = make([]*Block, len(i.Blocks))
				for bi, sb := range i.Blocks {
					ni.Blocks[bi] = bmap[sb]
				}
			}
		}
	}
	return out
}

// ReferenceVerifyFunc and ReferenceVerifyAllFunc are VerifyFunc and
// VerifyAllFunc with the operand and dominance phases the ID tables
// replaced: a map of defined values, a second reachability walk, a
// Block.Preds scan per phi and a Block.Index scan per same-block operand.
func ReferenceVerifyFunc(f *Func) []*Violation    { return referenceVerify(f, false) }
func ReferenceVerifyAllFunc(f *Func) []*Violation { return referenceVerify(f, true) }

func referenceVerify(f *Func, all bool) []*Violation {
	v := &verifier{f: f, all: all}
	if f.External {
		if len(f.Blocks) != 0 {
			v.add(nil, nil, "external function has a body")
		}
		return v.errs
	}
	if len(f.Blocks) == 0 {
		v.add(nil, nil, "defined function has no blocks")
		return v.errs
	}
	v.structural()
	if v.stop() || v.cfgBroken {
		return v.errs
	}
	v.valueIDs()
	if v.stop() {
		return v.errs
	}
	v.referenceOperandsDefined()
	if v.stop() {
		return v.errs
	}
	v.referenceDominance()
	return v.errs
}

func (v *verifier) referenceOperandsDefined() {
	defined := make(map[Value]bool)
	for _, p := range v.f.Params {
		defined[p] = true
	}
	for _, b := range v.f.Blocks {
		for _, in := range b.Instrs {
			if !IsVoid(in.Ty) {
				defined[in] = true
			}
		}
	}
	for _, b := range v.f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				switch a.(type) {
				case *ConstInt, *ConstFloat, *ConstNull, *Undef, *Global, *Func:
					continue
				}
				if !defined[a] {
					v.add(b, nil, "%q uses undefined value %s", in, a.Ref())
					if v.stop() {
						return
					}
				}
			}
		}
	}
}

func (v *verifier) referenceDominance() {
	dt := ReferenceComputeDomTree(v.f)
	reach := ReachableBlocks(v.f)
	for _, b := range v.f.Blocks {
		if !reach[b] {
			continue
		}
		for _, in := range b.Instrs {
			if in.Op == OpPhi {
				if len(in.Args) != len(in.Blocks) {
					v.add(b, nil, "phi %q: args/blocks mismatch", in)
					if v.stop() {
						return
					}
					continue
				}
				preds := b.Preds()
				if len(in.Args) != len(preds) {
					v.add(b, nil, "phi %q: %d incoming edges, %d predecessors",
						in, len(in.Args), len(preds))
					if v.stop() {
						return
					}
				}
				for k, a := range in.Args {
					def, ok := a.(*Instr)
					if !ok {
						continue
					}
					if def.Parent == nil || !reach[def.Parent] {
						continue
					}
					inc := in.Blocks[k]
					if !dt.Dominates(def.Parent, inc) {
						v.add(b, nil, "phi %q: incoming %s does not dominate edge from %%%s",
							in, a.Ref(), inc.Name)
						if v.stop() {
							return
						}
					}
				}
				continue
			}
			for _, a := range in.Args {
				def, ok := a.(*Instr)
				if !ok {
					continue
				}
				if def.Parent == nil {
					v.add(b, nil, "%q uses removed instruction %s", in, a.Ref())
					if v.stop() {
						return
					}
					continue
				}
				if !reach[def.Parent] {
					continue
				}
				if !InstrDominates(dt, def, in) {
					v.add(b, nil, "%q: operand %s does not dominate use", in, a.Ref())
					if v.stop() {
						return
					}
				}
			}
		}
	}
}

// ReferenceComputeDomTree is ComputeDomTree with a Block.Preds scan per
// block per fixpoint iteration instead of predecessor lists built once.
func ReferenceComputeDomTree(f *Func) *DomTree {
	entry := f.Entry()
	dt := &DomTree{
		IDom:     make(map[*Block]*Block),
		Children: make(map[*Block][]*Block),
		order:    make(map[*Block]int),
	}
	if entry == nil {
		return dt
	}
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
			for _, p := range b.Preds() {
				if idom[p] == nil {
					continue
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

// ReferenceDominanceFrontier is DominanceFrontier with a Block.Preds scan
// per block.
func ReferenceDominanceFrontier(f *Func, dt *DomTree) map[*Block][]*Block {
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
		preds := b.Preds()
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
