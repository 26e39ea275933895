package opt

import (
	"math"

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
//
// Both halves batch their replacements through one ir.Replacer: CSE's are
// swept before forwarding starts, forwarding's at the end.
func GVN(f *ir.Func) bool {
	removeUnreachable(f)
	r := ir.NewReplacer(f)
	cse := pureCSE(f, r)
	if cse {
		ir.DropDetached(f)
		r.Apply()
	}
	// Forwarding removes loads and hands their users a loaded or stored
	// value. A stored value is an alloca's address only if that store,
	// which stays, already makes the alloca escape; so no answer changes
	// and one escapeInfo built after CSE serves every block.
	esc := &escapeInfo{f: f}
	forwarded := false
	for _, b := range f.Blocks {
		if loadForwarding(b, esc, r) {
			forwarded = true
		}
	}
	if forwarded {
		ir.DropDetached(f)
		r.Apply()
	}
	if cse || forwarded {
		DCE(f)
	}
	return cse || forwarded
}

// gvnKey identifies a pure instruction up to structural equality: opcode,
// predicate, result and element types, and operands, each as a number from
// the function's gvnTable. Operands beyond the third are folded into rest,
// an interned tail.
type gvnKey struct {
	op       ir.Op
	pred     ir.Pred
	ty, elem int32
	args     [3]int32
	rest     int32
}

// gvnTable numbers the types and operands of one function for gvnKey.
// Instructions are numbered by their ID; every other operand gets a
// negative number: constants structurally (integers by type and value,
// floats by type and bits with every NaN alike — the equality their %v
// spelling gives — and nulls by type), everything else by identity.
type gvnTable struct {
	consts map[gvnConst]int32
	idents map[ir.Value]int32
	types  map[gvnType]int32
	named  map[string]int32
	tails  map[[2]int32]int32
	next   int32 // last negative operand number handed out
}

type gvnConst struct {
	kind uint8
	ty   int32
	bits uint64
}

type gvnType struct {
	kind uint8
	n    int
	elem int32
}

func newGVNTable() *gvnTable {
	return &gvnTable{consts: map[gvnConst]int32{}, idents: map[ir.Value]int32{},
		types: map[gvnType]int32{}}
}

// typeNum numbers a type so that equal numbers mean equal spellings:
// integers and floats arithmetically, pointers, vectors and arrays by
// shape, anything else by its string.
func (t *gvnTable) typeNum(ty ir.Type) int32 {
	const (
		tagVoid = iota + 1
		tagInt
		tagFloat
		tagShape
		tagNamed
	)
	var k gvnType
	switch ty := ty.(type) {
	case nil:
		return 0
	case ir.VoidType:
		return tagVoid
	case *ir.IntType:
		return int32(ty.Bits)<<3 | tagInt
	case *ir.FloatType:
		if ty.Bits == 32 {
			return tagFloat
		}
		return 1<<3 | tagFloat
	case *ir.PtrType:
		k = gvnType{1, 0, t.typeNum(ty.Elem)}
	case *ir.VectorType:
		k = gvnType{2, ty.Len, t.typeNum(ty.Elem)}
	case *ir.ArrayType:
		k = gvnType{3, ty.Len, t.typeNum(ty.Elem)}
	default:
		if t.named == nil {
			t.named = map[string]int32{}
		}
		s := ty.String()
		n, ok := t.named[s]
		if !ok {
			n = int32(len(t.named))
			t.named[s] = n
		}
		return n<<3 | tagNamed
	}
	n, ok := t.types[k]
	if !ok {
		n = int32(len(t.types))
		t.types[k] = n
	}
	return n<<3 | tagShape
}

// operand numbers one operand.
func (t *gvnTable) operand(a ir.Value) int32 {
	var c gvnConst
	switch a := a.(type) {
	case *ir.Instr:
		if a.ID > 0 {
			return int32(a.ID)
		}
	case *ir.ConstInt:
		c = gvnConst{1, t.typeNum(a.Ty), uint64(a.V)}
	case *ir.ConstFloat:
		bits := math.Float64bits(a.V)
		if math.IsNaN(a.V) {
			bits = math.Float64bits(math.NaN())
		}
		c = gvnConst{2, t.typeNum(a.Ty), bits}
	case *ir.ConstNull:
		c = gvnConst{3, t.typeNum(a.Ty), 0}
	}
	if c.kind == 0 {
		n, ok := t.idents[a]
		if !ok {
			t.next--
			n = t.next
			t.idents[a] = n
		}
		return n
	}
	n, ok := t.consts[c]
	if !ok {
		t.next--
		n = t.next
		t.consts[c] = n
	}
	return n
}

// key builds the structural key of a pure instruction.
func (t *gvnTable) key(in *ir.Instr) (gvnKey, bool) {
	switch {
	case ir.IsBinaryOp(in.Op), ir.IsCast(in.Op):
	default:
		switch in.Op {
		case ir.OpICmp, ir.OpFCmp, ir.OpGEP, ir.OpSelect:
		default:
			return gvnKey{}, false
		}
	}
	k := gvnKey{op: in.Op, pred: in.Pred, ty: t.typeNum(in.Ty), elem: t.typeNum(in.Elem)}
	for i := len(in.Args) - 1; i >= 0; i-- {
		n := t.operand(in.Args[i])
		if i < len(k.args) {
			k.args[i] = n
			continue
		}
		tail := [2]int32{n, k.rest}
		if t.tails == nil {
			t.tails = map[[2]int32]int32{}
		}
		r, ok := t.tails[tail]
		if !ok {
			r = int32(len(t.tails) + 1)
			t.tails[tail] = r
		}
		k.rest = r
	}
	// Commutative operands are ordered, so `add x, 5` and `add 5, x` share
	// a key.
	if ir.CommutativeOp(in.Op) && len(in.Args) == 2 && k.args[1] < k.args[0] {
		k.args[0], k.args[1] = k.args[1], k.args[0]
	}
	return k, true
}

// pureCSE eliminates structurally identical pure instructions dominated by
// an earlier occurrence. It resolves each instruction's operands as it
// visits it — every operand of a non-phi is defined in a dominating block,
// visited earlier by the walk — and records each elimination in r; the
// caller sweeps.
func pureCSE(f *ir.Func, r *ir.Replacer) bool {
	if f.Entry() == nil {
		return false
	}
	dt := ir.ComputeDomTree(f)
	changed := false
	t := newGVNTable()
	table := map[gvnKey]*ir.Instr{}
	var scope []gvnKey // keys added by the blocks on the walk's path
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		mark := len(scope)
		for _, in := range b.Instrs {
			r.ResolveOperands(in)
			key, ok := t.key(in)
			if !ok {
				continue
			}
			if prev, exists := table[key]; exists {
				r.Replace(in, prev)
				in.Parent = nil
				changed = true
				continue
			}
			table[key] = in
			scope = append(scope, key)
		}
		for _, c := range dt.Children[b] {
			walk(c)
		}
		for _, k := range scope[mark:] {
			delete(table, k)
		}
		scope = scope[:mark]
	}
	walk(f.Entry())
	return changed
}

// availEntry tracks one available memory value within a block.
type availEntry struct {
	addr       ir.Value
	val        ir.Value
	isStore    bool // value came from a store (RAW) rather than a load (RAR)
	crossFence bool // a fence was crossed since the entry became available
}

// loadForwarding forwards within one block, recording each forwarded load
// in r. Operands are resolved as instructions are visited, and address
// chains before alias and privacy questions walk them, so every answer
// sees the values an immediate rewrite would have left.
func loadForwarding(b *ir.Block, esc *escapeInfo, r *ir.Replacer) bool {
	changed := false
	var avail []availEntry
	clear := func() { avail = avail[:0] }
	for _, in := range b.Instrs {
		r.ResolveOperands(in)
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
				if e.crossFence && !esc.isPrivate(resolveChain(r, in.Args[0])) {
					continue
				}
				r.Replace(in, e.val)
				in.Parent = nil
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
				if !mayAlias(resolveChain(r, e.addr), resolveChain(r, in.Args[1])) {
					kept = append(kept, e)
				}
			}
			avail = kept
			avail = append(avail, availEntry{addr: in.Args[1], val: in.Args[0], isStore: true})
		}
	}
	return changed
}

// resolveChain resolves the operands along p's bitcast/GEP chain — the
// instructions baseObject walks — and returns p.
func resolveChain(r *ir.Replacer, p ir.Value) ir.Value {
	for v, depth := p, 0; depth < 64; depth++ {
		x, ok := v.(*ir.Instr)
		if !ok || (x.Op != ir.OpBitcast && x.Op != ir.OpGEP) {
			break
		}
		r.ResolveOperands(x)
		v = x.Args[0]
	}
	return p
}
