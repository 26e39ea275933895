package refine

import "lasagne/internal/ir"

// This file keeps the peephole and parameter promotion in their previous
// form — each rewrite a whole-function replaceAllUses scan, each insertion
// an InsertBefore scan and each removal a Block.Remove — as the references
// the batched forms are checked against.

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

// referencePeepholeFunc is peepholeFunc in its previous form.
func referencePeepholeFunc(f *ir.Func) int {
	changed := 0
	for _, b := range f.Blocks {
		// Iterate over a snapshot; rewrites insert before the current
		// instruction.
		insts := append([]*ir.Instr(nil), b.Instrs...)
		for _, in := range insts {
			if in.Op != ir.OpIntToPtr {
				continue
			}
			base, offsets, ok := pointerize(in.Args[0], 0)
			if !ok {
				continue
			}
			// A bare inttoptr of a parameter is already in canonical form
			// (Rule 3 only fires under address arithmetic); rewriting it
			// would not terminate.
			if _, isParam := base.(*ir.Param); isParam && len(offsets) == 0 {
				continue
			}
			bld := ir.NewBuilder(b)
			p := refMaterializePointer(bld, b, in, base, offsets)
			dst := in.Ty.(*ir.PtrType)
			var repl ir.Value = p
			if !p.Type().Equal(dst) {
				bc := &ir.Instr{Op: ir.OpBitcast, Ty: dst, Args: []ir.Value{p}}
				b.InsertBefore(bc, in)
				repl = bc
			}
			replaceAllUses(f, in, repl)
			b.Remove(in)
			changed++
		}
	}
	return changed
}

// refMaterializePointer builds the i8* GEP chain for base+offsets immediately
// before pos.
func refMaterializePointer(bld *ir.Builder, b *ir.Block, pos *ir.Instr, base ir.Value, offsets []ir.Value) ir.Value {
	i8p := ir.PointerTo(ir.I8)
	var p ir.Value
	if ir.IsPtr(base.Type()) {
		if base.Type().Equal(i8p) {
			p = base
		} else {
			bc := &ir.Instr{Op: ir.OpBitcast, Ty: i8p, Args: []ir.Value{base}}
			b.InsertBefore(bc, pos)
			p = bc
		}
	} else {
		// Integer parameter base (Rule 3).
		cast := &ir.Instr{Op: ir.OpIntToPtr, Ty: i8p, Args: []ir.Value{base}}
		b.InsertBefore(cast, pos)
		p = cast
	}
	for _, off := range offsets {
		gep := &ir.Instr{Op: ir.OpGEP, Ty: i8p, Elem: ir.I8, Args: []ir.Value{p, off}}
		b.InsertBefore(gep, pos)
		p = gep
	}
	return p
}

// referencePromoteParams is PromoteParamsFiltered in its previous form.
func referencePromoteParams(m *ir.Module, keep func(*ir.Func) bool) int {
	promoted := 0
	for _, f := range m.Funcs {
		if f.External || len(f.Blocks) == 0 {
			continue
		}
		if keep != nil && !keep(f) {
			continue
		}
		uses := paramUses(f)
		for idx, p := range f.Params {
			if !ir.IsInt(p.Ty) {
				continue
			}
			us := uses[idx]
			if len(us) == 0 {
				continue
			}
			allIntToPtr := true
			var dest *ir.PtrType
			uniform := true
			for _, u := range us {
				if u.Op != ir.OpIntToPtr {
					allIntToPtr = false
					break
				}
				dt := u.Ty.(*ir.PtrType)
				if dest == nil {
					dest = dt
				} else if !dest.Equal(dt) {
					uniform = false
				}
			}
			if !allIntToPtr || dest == nil {
				continue
			}
			newTy := ir.Type(dest)
			if !uniform {
				newTy = ir.PointerTo(ir.I8)
			}
			// Retype the parameter.
			p.Ty = newTy
			f.Sig.Params[idx] = newTy
			// Rewrite the inttoptr users.
			for _, u := range us {
				if u.Ty.Equal(newTy) {
					replaceAllUses(f, u, p)
					u.Parent.Remove(u)
				} else {
					u.Op = ir.OpBitcast
				}
			}
			// Adjust every call site in the module.
			rewriteCallSites(m, f, idx, newTy)
			promoted++
		}
	}
	return promoted
}
