package opt

import "lasagne/internal/ir"

// Lattice states for SCCP.
type latticeState int

const (
	latUnknown latticeState = iota
	latConst
	latOver
)

type lattice struct {
	state latticeState
	val   ir.Value // ConstInt/ConstFloat/ConstNull when state == latConst
}

// SCCP is sparse conditional constant propagation: an optimistic lattice
// (unknown -> constant -> overdefined) propagated only along executable
// edges, so constants flowing around provably-dead branches are still
// discovered. Afterwards constant values are substituted and constant
// branches folded.
func SCCP(f *ir.Func) bool {
	if len(f.Blocks) == 0 {
		return false
	}
	removeUnreachable(f)

	// Lattice values are indexed by instruction ID.
	vals := make([]lattice, f.IDBound()+1)
	get := func(v ir.Value) lattice {
		switch v := v.(type) {
		case *ir.ConstInt, *ir.ConstFloat, *ir.ConstNull:
			return lattice{state: latConst, val: v}
		case *ir.Instr:
			if v.ID > 0 && v.ID < len(vals) {
				return vals[v.ID]
			}
			return lattice{}
		}
		return lattice{state: latOver}
	}

	execEdge := map[[2]*ir.Block]bool{}
	execBlock := map[*ir.Block]bool{}
	var blockWork []*ir.Block
	var instWork []*ir.Instr
	uses := ir.ComputeUses(f)

	setVal := func(in *ir.Instr, l lattice) {
		old := vals[in.ID]
		if old.state == latOver || (old.state == l.state && sameConst(old.val, l.val)) {
			return
		}
		vals[in.ID] = l
		instWork = append(instWork, uses.Of(in)...)
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
	r := ir.NewReplacer(f)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if l := vals[in.ID]; l.state == latConst && in.ID != 0 {
				r.Replace(in, l.val)
				if !in.HasSideEffects() {
					in.Parent = nil
				}
				changed = true
			}
		}
	}
	if changed {
		ir.DropDetached(f)
		r.Apply()
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

func sameConst(a, b ir.Value) bool {
	if a == nil || b == nil {
		return a == b
	}
	switch ca := a.(type) {
	case *ir.ConstInt:
		cb, ok := b.(*ir.ConstInt)
		return ok && ca.V == cb.V && ca.Ty.Equal(cb.Ty)
	case *ir.ConstFloat:
		cb, ok := b.(*ir.ConstFloat)
		return ok && ca.V == cb.V && ca.Ty.Equal(cb.Ty)
	case *ir.ConstNull:
		_, ok := b.(*ir.ConstNull)
		return ok
	}
	return false
}

// sccpFold folds an instruction whose lattice operands are all constants by
// building a shadow instruction over the lattice values and reusing the
// instcombine folding logic.
func sccpFold(in *ir.Instr, get func(ir.Value) lattice) ir.Value {
	args := make([]ir.Value, len(in.Args))
	for i, a := range in.Args {
		l := get(a)
		if l.state != latConst {
			return nil
		}
		args[i] = l.val
	}
	shadow := &ir.Instr{Op: in.Op, Ty: in.Ty, Args: args, Pred: in.Pred, Elem: in.Elem}
	v := simplify(shadow)
	if v == nil || !ir.IsConst(v) {
		return nil
	}
	return v
}
