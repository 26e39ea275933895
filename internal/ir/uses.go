package ir

// Uses lists, for each instruction and parameter of one function, the
// instructions that use it as an operand, in block and instruction order.
// It is recomputed on demand rather than maintained incrementally, so a
// pass builds it at most once per invocation and keeps it only while its
// own rewrites leave the entries it reads intact.
//
// The lists are indexed by ValueIDs. All lists share one backing slice, so
// building the index is two scans of the function and three allocations.
type Uses struct {
	ids   ValueIDs // numbering when the index was built
	start []int32  // users of slot s are users[start[s]:start[s+1]]
	users []*Instr
}

// ValueIDs numbers a function's values densely: instruction results by
// Instr.ID (unique, in 1..IDBound, which the verifier checks) and
// parameters by Param.Idx after them.
type ValueIDs struct {
	bound  int // IDBound when the numbering was taken
	params []*Param
}

// NewValueIDs numbers f's values as they stand.
func NewValueIDs(f *Func) ValueIDs { return ValueIDs{bound: f.IDBound(), params: f.Params} }

// N is the size of a table indexed by value ID.
func (ids ValueIDs) N() int { return ids.bound + 1 + len(ids.params) }

// Of returns v's ID, or -1 for values that have none (constants, globals,
// functions, another function's parameters, and instructions numbered
// after the numbering was taken).
func (ids ValueIDs) Of(v Value) int {
	switch v := v.(type) {
	case *Instr:
		if v.ID > 0 && v.ID <= ids.bound {
			return v.ID
		}
	case *Param:
		if v.Idx >= 0 && v.Idx < len(ids.params) && ids.params[v.Idx] == v {
			return ids.bound + 1 + v.Idx
		}
	}
	return -1
}

// ComputeUses scans the function and builds the use index. Only *Instr and
// *Param operands are recorded: constants, globals and functions are never
// looked up. Instructions already detached from their block (Parent nil, as
// a batched pass leaves them until DropDetached) are not users.
func ComputeUses(f *Func) *Uses {
	u := &Uses{ids: NewValueIDs(f)}
	slots := u.ids.N()
	u.start = make([]int32, slots+1)
	// Count into start[s+1], prefix-sum, then fill through a cursor per
	// slot (start[s] itself, restored afterwards by shifting).
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Parent == nil {
				continue
			}
			for _, a := range in.Args {
				if s := u.ids.Of(a); s >= 0 {
					u.start[s+1]++
				}
			}
		}
	}
	for s := 1; s <= slots; s++ {
		u.start[s] += u.start[s-1]
	}
	u.users = make([]*Instr, u.start[slots])
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Parent == nil {
				continue
			}
			for _, a := range in.Args {
				if s := u.ids.Of(a); s >= 0 {
					u.users[u.start[s]] = in
					u.start[s]++
				}
			}
		}
	}
	copy(u.start[1:], u.start[:slots])
	u.start[0] = 0
	return u
}

// Of returns the instructions using v, in block and instruction order. The
// slice aliases the index and must not be modified.
func (u *Uses) Of(v Value) []*Instr {
	s := u.ids.Of(v)
	if s < 0 {
		return nil
	}
	return u.users[u.start[s]:u.start[s+1]:u.start[s+1]]
}

// Replacer batches the value replacements of one pass. Instead of
// rewriting every use in the function per replacement (a whole-function
// scan each time), a pass records old→new with Replace, resolves an
// instruction's operands with ResolveOperands when it visits it — so every
// decision it makes sees the same operands the immediate rewrite would have
// produced — and finishes with one Apply sweep that resolves the operands
// it never visited. Replacements chain: if new is itself replaced later,
// uses of old resolve to the final value.
type Replacer struct {
	f  *Func
	to []replacement // indexed by the replaced instruction's ID
	n  int
}

type replacement struct {
	old *Instr
	new Value
}

// NewReplacer returns an empty replacer for f.
func NewReplacer(f *Func) *Replacer { return &Replacer{f: f} }

// Replace records that every use of old is to become new. old must be a
// value-producing instruction of f. new is resolved first, so chains stay
// acyclic.
func (r *Replacer) Replace(old *Instr, new Value) {
	new = r.Resolve(new)
	if new == Value(old) {
		panic("ir: instruction replaced by itself")
	}
	if old.ID >= len(r.to) {
		n := r.f.IDBound() + 1
		if n <= old.ID {
			n = old.ID + 1
		}
		r.to = append(r.to, make([]replacement, n-len(r.to))...)
	}
	r.to[old.ID] = replacement{old, new}
	r.n++
}

// Resolve returns the value v stands for after the replacements so far.
func (r *Replacer) Resolve(v Value) Value {
	for {
		in, ok := v.(*Instr)
		if !ok || in.ID >= len(r.to) || r.to[in.ID].old != in {
			return v
		}
		v = r.to[in.ID].new
	}
}

// ResolveOperands rewrites in's operands to their current replacements.
func (r *Replacer) ResolveOperands(in *Instr) {
	if r.n == 0 {
		return
	}
	for k, a := range in.Args {
		if ai, ok := a.(*Instr); ok && ai.ID < len(r.to) && r.to[ai.ID].old == ai {
			in.Args[k] = r.Resolve(a)
		}
	}
}

// Apply resolves the operands of every instruction in f: the final sweep
// that makes the recorded replacements visible everywhere. It reports
// whether any replacement was recorded.
func (r *Replacer) Apply() bool {
	if r.n == 0 {
		return false
	}
	for _, b := range r.f.Blocks {
		for _, in := range b.Instrs {
			r.ResolveOperands(in)
		}
	}
	return true
}
