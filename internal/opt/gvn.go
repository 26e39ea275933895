package opt

import (
	"fmt"
	"strings"

	"lasagne/internal/ir"
)

// GVN performs global value numbering of pure expressions over the
// dominator tree, plus block-local redundant memory access elimination
// following the Fig. 11b adjacent rules (RAR/RAW): repeated loads of the
// same address take the first load's value, loads after a store to the
// same address take the stored value. Atomics and calls invalidate
// everything; intervening non-atomic accesses invalidate only what they
// may alias (justified by the Fig. 11a non-atomic reordering rules).
// Forwarding across a fence is performed only for provably thread-private
// (non-escaping alloca) memory — a strictly stronger condition than the
// paper's fenced F-RAR/F-RAW rules, which hold for final-value behavior.
func GVN(f *ir.Func) bool {
	removeUnreachable(f)
	changed := pureCSE(f)
	// Forwarding removes loads and hands their users a loaded or stored
	// value. A stored value is an alloca's address only if that store,
	// which stays, already makes the alloca escape; so no answer changes
	// and one escapeInfo built after CSE serves every block.
	esc := &escapeInfo{f: f}
	for _, b := range f.Blocks {
		if loadForwarding(f, b, esc) {
			changed = true
		}
	}
	if changed {
		DCE(f)
	}
	return changed
}

// valueKey builds a structural key for a pure instruction.
func valueKey(in *ir.Instr) (string, bool) {
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
		toks[i] = argToken(a)
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

// argToken serializes one operand for valueKey: constants structurally,
// SSA values by identity.
func argToken(a ir.Value) string {
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

// pureCSE eliminates structurally identical pure instructions dominated by
// an earlier occurrence.
func pureCSE(f *ir.Func) bool {
	dt := ir.ComputeDomTree(f)
	changed := false
	type scope struct{ added []string }
	table := map[string]*ir.Instr{}
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		sc := scope{}
		for _, in := range append([]*ir.Instr(nil), b.Instrs...) {
			key, ok := valueKey(in)
			if !ok {
				continue
			}
			if prev, exists := table[key]; exists {
				ir.ReplaceAllUses(f, in, prev)
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

// availEntry tracks one available memory value within a block.
type availEntry struct {
	addr       ir.Value
	val        ir.Value
	isStore    bool // value came from a store (RAW) rather than a load (RAR)
	crossFence bool // a fence was crossed since the entry became available
}

func loadForwarding(f *ir.Func, b *ir.Block, esc *escapeInfo) bool {
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
				ir.ReplaceAllUses(f, in, e.val)
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
