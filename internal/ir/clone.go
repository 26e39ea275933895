package ir

// Clone returns a deep copy of the module: every function, block and
// instruction is duplicated so that passes mutating the copy leave the
// original untouched. Immutable values (integer/float/null constants, undef)
// are shared between the two modules; types are immutable and always shared.
//
// The evaluation pipeline uses this to lift a kernel once and run each
// optimization-pass recipe on its own copy instead of re-lifting.
//
// CloneBody/RestoreBody are the function-granular variants: the
// fault-tolerant pipeline snapshots each function's sound baseline before
// the optimized (and recoverable) stages run, and restores it when a stage
// fails so the function can be re-fenced conservatively.
func (m *Module) Clone() *Module {
	nm := &Module{
		Name:         m.Name,
		funcByName:   make(map[string]*Func, len(m.Funcs)),
		globalByName: make(map[string]*Global, len(m.Globals)),
	}

	// ext maps globals, functions and parameters to their copies.
	ext := make(map[Value]Value, len(m.Globals)+len(m.Funcs))

	for _, g := range m.Globals {
		ng := &Global{
			Name:  g.Name,
			Elem:  g.Elem,
			Init:  append([]byte(nil), g.Init...),
			Align: g.Align,
		}
		nm.Globals = append(nm.Globals, ng)
		nm.globalByName[ng.Name] = ng
		ext[g] = ng
	}

	// Create all function shells first: call instructions may reference any
	// function in the module, including ones defined later.
	for _, f := range m.Funcs {
		nf := &Func{
			Name:     f.Name,
			Sig:      f.Sig,
			Module:   nm,
			External: f.External,
			nextID:   f.nextID,
		}
		for _, p := range f.Params {
			np := &Param{Nam: p.Nam, Ty: p.Ty, Idx: p.Idx}
			nf.Params = append(nf.Params, np)
			ext[p] = np
		}
		nm.Funcs = append(nm.Funcs, nf)
		nm.funcByName[nf.Name] = nf
		ext[f] = nf
	}

	for k, f := range m.Funcs {
		if len(f.Blocks) > 0 {
			nm.Funcs[k].Blocks = f.cloneBlocks(nm.Funcs[k], ext)
		}
	}
	return nm
}

// CloneBody returns a deep copy of f's basic blocks. Parameters, globals,
// functions and immutable constants are shared with f (the copy belongs to
// the same module), so the result can be swapped back in with RestoreBody.
func (f *Func) CloneBody() []*Block { return f.cloneBlocks(f, nil) }

// cloneBlocks copies f's blocks for owner: an operand that is one of f's
// instructions becomes its copy, any other becomes ext[operand] or is
// shared, and a block reference outside f becomes nil. Blocks, instructions
// and their lists each come from one allocation, and every list is capped
// at its length so that appending to one cannot overwrite its neighbour.
func (f *Func) cloneBlocks(owner *Func, ext map[Value]Value) []*Block {
	nInstrs, nArgs, nRefs := 0, 0, 0
	for _, b := range f.Blocks {
		nInstrs += len(b.Instrs)
		for _, i := range b.Instrs {
			nArgs += len(i.Args)
			nRefs += len(i.Blocks)
		}
	}
	blocks := make([]Block, len(f.Blocks))
	out := make([]*Block, len(f.Blocks))
	instrs := make([]Instr, nInstrs)
	lists := make([]*Instr, nInstrs)
	args := make([]Value, nArgs)
	refs := make([]*Block, nRefs)

	// byID[id] holds an instruction numbered id and the index of its copy.
	// An instruction operand it does not hold (void, badly numbered, or
	// another function's) is looked up in extra, built on first need.
	bound := f.IDBound()
	byID := make([]struct {
		old *Instr
		at  int32
	}, bound+1)
	tabled := func(x *Instr) bool { return x.ID > 0 && x.ID <= bound && byID[x.ID].old == x }
	var extra map[*Instr]*Instr
	untabled := func() map[*Instr]*Instr {
		m, k := map[*Instr]*Instr{}, 0
		for _, b := range f.Blocks {
			for _, i := range b.Instrs {
				if !tabled(i) {
					m[i] = &instrs[k]
				}
				k++
			}
		}
		return m
	}
	bmap := make(map[*Block]*Block, len(f.Blocks))

	// Pass 1: shells, so forward references (phis) resolve in pass 2.
	n := 0
	for k, b := range f.Blocks {
		nb := &blocks[k]
		nb.Name, nb.Parent = b.Name, owner
		out[k], bmap[b] = nb, nb
		if len(b.Instrs) > 0 {
			nb.Instrs = lists[n : n+len(b.Instrs) : n+len(b.Instrs)]
		}
		for j, i := range b.Instrs {
			ni := &instrs[n]
			ni.Op, ni.Ty, ni.Elem, ni.Order, ni.Fence = i.Op, i.Ty, i.Elem, i.Order, i.Fence
			ni.RMWOp, ni.Pred, ni.ID, ni.Nam, ni.Parent = i.RMWOp, i.Pred, i.ID, i.Nam, nb
			nb.Instrs[j] = ni
			if id := i.ID; id > 0 && id <= bound && (byID[id].old == nil || byID[id].old == i) {
				byID[id].old, byID[id].at = i, int32(n)
			}
			n++
		}
	}

	// Pass 2: operands and successor blocks.
	na, nr := 0, 0
	for k, b := range f.Blocks {
		for j, i := range b.Instrs {
			ni := out[k].Instrs[j]
			if len(i.Args) > 0 {
				ni.Args = args[na : na+len(i.Args) : na+len(i.Args)]
				na += len(i.Args)
				for ai, a := range i.Args {
					if x, ok := a.(*Instr); ok && tabled(x) {
						a = &instrs[byID[x.ID].at]
					} else if ok {
						if extra == nil {
							extra = untabled()
						}
						if nx, ok := extra[x]; ok {
							a = nx
						}
					} else if nv, ok := ext[a]; ok {
						a = nv
					}
					ni.Args[ai] = a // anything else is shared
				}
			}
			if len(i.Blocks) > 0 {
				ni.Blocks = refs[nr : nr+len(i.Blocks) : nr+len(i.Blocks)]
				nr += len(i.Blocks)
				for bi, sb := range i.Blocks {
					ni.Blocks[bi] = bmap[sb]
				}
			}
		}
	}
	return out
}

// RestoreBody replaces f's blocks with a snapshot previously taken by
// CloneBody on the same function.
func (f *Func) RestoreBody(blocks []*Block) {
	f.Blocks = blocks
	for _, b := range blocks {
		b.Parent = f
	}
}
