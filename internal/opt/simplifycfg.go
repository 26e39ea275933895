package opt

import "lasagne/internal/ir"

// SimplifyCFG folds constant branches, removes unreachable blocks, merges
// straight-line block pairs, threads trivial forwarding blocks, and
// flattens if-then triangles by speculating their pure instructions —
// including loads, the "speculative load introduction" of §7.2 whose
// LIMM-soundness the memmodel package verifies (CheckLoadIntroduction).
func SimplifyCFG(f *ir.Func) bool {
	changed := false
	for iter := 0; iter < 16; iter++ {
		n := false
		if foldConstBranches(f) {
			n = true
		}
		if removeUnreachable(f) {
			n = true
		}
		if mergeLinearBlocks(f) {
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

// speculateTriangles flattens the pattern
//
//	A: ... condbr c, B, C        A: ...;  <B's instructions>
//	B: <pure, speculatable>  =>     condbr c, C', C'  (folded to br)
//	   br C                      C: phi -> select(c, v, w)
//	C: phi [v, B], [w, A]
//
// when B contains only speculatable instructions (pure ops and loads from
// identified alloca/global objects, which are always dereferenceable in
// our address space).
func speculateTriangles(f *ir.Func) bool {
	changed := false
	for _, a := range f.Blocks {
		t := a.Terminator()
		if t == nil || t.Op != ir.OpCondBr || t.Blocks[0] == t.Blocks[1] {
			continue
		}
		// Identify the triangle orientation: one successor B jumps to the
		// other successor C and has A as its only predecessor.
		for k := 0; k < 2; k++ {
			bblk, cblk := t.Blocks[k], t.Blocks[1-k]
			bt := bblk.Terminator()
			if bt == nil || bt.Op != ir.OpBr || bt.Blocks[0] != cblk {
				continue
			}
			if preds := bblk.Preds(); len(preds) != 1 || preds[0] != a {
				continue
			}
			if len(bblk.Phis()) > 0 || len(bblk.Instrs) > 8 {
				continue
			}
			ok := true
			for _, in := range bblk.Instrs[:len(bblk.Instrs)-1] {
				if !speculatable(in) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			// Hoist B's body before A's terminator.
			for _, in := range append([]*ir.Instr(nil), bblk.Instrs[:len(bblk.Instrs)-1]...) {
				bblk.Remove(in)
				a.InsertBefore(in, t)
			}
			// Rewrite C's phis: the (B, v)/(A, w) pair becomes a select.
			cond := t.Args[0]
			for _, phi := range cblk.Phis() {
				var vB, vA ir.Value
				for i, pb := range phi.Blocks {
					if pb == bblk {
						vB = phi.Args[i]
					}
					if pb == a {
						vA = phi.Args[i]
					}
				}
				if vB == nil || vA == nil {
					continue
				}
				thenV, elseV := vB, vA
				if k == 1 {
					thenV, elseV = vA, vB
				}
				sel := &ir.Instr{Op: ir.OpSelect, Ty: phi.Ty, Args: []ir.Value{cond, thenV, elseV}}
				a.InsertBefore(sel, t)
				// Replace both incoming edges by a single edge from A.
				var nArgs []ir.Value
				var nBlocks []*ir.Block
				for i, pb := range phi.Blocks {
					if pb == bblk || pb == a {
						continue
					}
					nArgs = append(nArgs, phi.Args[i])
					nBlocks = append(nBlocks, phi.Blocks[i])
				}
				phi.Args = append(nArgs, sel)
				phi.Blocks = append(nBlocks, a)
			}
			// A now branches straight to C on both edges.
			t.Op = ir.OpBr
			t.Args = nil
			t.Blocks = []*ir.Block{cblk}
			changed = true
			break
		}
		if changed {
			removeUnreachable(f)
			return true // restart: the block list changed under us
		}
	}
	return changed
}

// speculatable reports whether executing the instruction unconditionally is
// safe: pure, non-trapping, and loads only from identified objects.
func speculatable(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpLoad:
		return in.Order == ir.NotAtomic && baseObject(in.Args[0]) != nil
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

// foldConstBranches rewrites condbr with a constant or duplicate-target
// condition into an unconditional branch, pruning the dead edge's phis.
func foldConstBranches(f *ir.Func) bool {
	changed := false
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil || t.Op != ir.OpCondBr {
			continue
		}
		var target, dead *ir.Block
		if t.Blocks[0] == t.Blocks[1] {
			target = t.Blocks[0]
		} else if c, ok := ir.ConstIntValue(t.Args[0]); ok {
			if c&1 != 0 {
				target, dead = t.Blocks[0], t.Blocks[1]
			} else {
				target, dead = t.Blocks[1], t.Blocks[0]
			}
		} else {
			continue
		}
		if dead != nil {
			removePhiEdge(dead, b)
		}
		t.Op = ir.OpBr
		t.Args = nil
		t.Blocks = []*ir.Block{target}
		changed = true
	}
	return changed
}

// removePhiEdge deletes the incoming edge from pred in every phi of b.
func removePhiEdge(b, pred *ir.Block) {
	for _, phi := range b.Phis() {
		for k := 0; k < len(phi.Blocks); k++ {
			if phi.Blocks[k] == pred {
				phi.Args = append(phi.Args[:k], phi.Args[k+1:]...)
				phi.Blocks = append(phi.Blocks[:k], phi.Blocks[k+1:]...)
				break
			}
		}
	}
}

// mergeLinearBlocks merges s into b when b ends in an unconditional branch
// to s and s has b as its only predecessor. The phis of merged blocks are
// replaced through one Replacer, swept once when no merge is left.
func mergeLinearBlocks(f *ir.Func) bool {
	changed := false
	r := ir.NewReplacer(f)
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
			phis := s.Phis()
			for _, phi := range phis {
				var v ir.Value = ir.NewUndef(phi.Ty)
				if len(phi.Args) == 1 {
					v = phi.Args[0]
				}
				r.Replace(phi, v)
				phi.Parent = nil
			}
			// Move instructions.
			b.Remove(t)
			for _, in := range s.Instrs[len(phis):] {
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
			r.Apply()
			return changed
		}
	}
}

// threadEmptyBlocks redirects branches through blocks that contain only an
// unconditional branch (and no phis), when the final target has no phis.
func threadEmptyBlocks(f *ir.Func) bool {
	changed := false
	for _, b := range f.Blocks {
		if b == f.Entry() || len(b.Instrs) != 1 {
			continue
		}
		t := b.Terminator()
		if t == nil || t.Op != ir.OpBr {
			continue
		}
		target := t.Blocks[0]
		if target == b || len(target.Phis()) > 0 {
			continue
		}
		for _, p := range f.Blocks {
			pt := p.Terminator()
			if pt == nil {
				continue
			}
			for k, s := range pt.Blocks {
				if s == b {
					pt.Blocks[k] = target
					changed = true
				}
			}
		}
	}
	if changed {
		removeUnreachable(f)
	}
	return changed
}
