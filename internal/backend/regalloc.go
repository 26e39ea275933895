package backend

import (
	"fmt"
	"math/bits"
	"sort"

	"lasagne/internal/ir"
)

// Register allocation, independent of the target: liveness over blocks,
// one conservative live interval per value over the block layout order,
// and a linear scan (Poletto and Sarkar) over those intervals. The target
// supplies how many registers each class has; a value that gets none keeps
// a frame slot.
//
// Positions number the layout: a block's start (where its phis are
// defined), then two per non-phi instruction (operands are read at the
// first, the result written at the second, so a result may take the
// register of an operand that dies there), then the block's end (where the
// moves into its successors' phis read their operands). A value's interval
// runs from its first to its last position, filling any hole, which is
// what makes one interval per value conservative.

// Register classes.
const (
	classInt = iota
	classFloat
	numClasses
)

// valueClass is the register class a value of type t lives in.
func valueClass(t ir.Type) int {
	if ir.IsFloat(t) {
		return classFloat
	}
	return classInt
}

// allocation is the result of allocate, indexed by value ID (ir.ValueIDs).
type allocation struct {
	ids ir.ValueIDs
	// reg is the register index within the pool of the value's class, or
	// -1 when the value has no register (a frame slot, or no home at all).
	reg []int8
	// class is the value's register class.
	class []uint8
	// used is the set of pool registers assigned, per class.
	used [numClasses]uint32
	// reads counts each value's operand uses.
	reads []int32
	// slot marks the values that need a frame slot: spilled ones, and
	// parameters nothing reads (they are still stored on entry).
	slot []bool
}

// bitset is a fixed-size set of dense value numbers.
type bitset []uint64

func (s bitset) has(i int32) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }
func (s bitset) add(i int32)      { s[i>>6] |= 1 << (uint(i) & 63) }

// allocate assigns registers to f's values. pool[c] is the number of
// registers of class c; clobbered[c] reports that calls destroy them, so
// a value of that class whose interval spans a call gets none. skip,
// given the read counts, reports values that take no register because the
// target computes them where they are used; their uses do not make them
// live.
func allocate(f *ir.Func, pool [numClasses]int, clobbered [numClasses]bool, skip func(in *ir.Instr, reads []int32) bool) (*allocation, error) {
	ids := ir.NewValueIDs(f)
	a := &allocation{ids: ids, reg: make([]int8, ids.N()), class: make([]uint8, ids.N()),
		reads: make([]int32, ids.N()), slot: make([]bool, ids.N())}
	for i := range a.reg {
		a.reg[i] = -1
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, arg := range in.Args {
				if id := ids.Of(arg); id >= 0 {
					a.reads[id]++
				}
			}
		}
	}

	// Dense numbering of the allocation candidates: parameters, then
	// non-void results in layout order.
	num := make([]int32, ids.N())
	for i := range num {
		num[i] = -1
	}
	var vals []ir.Value
	number := func(v ir.Value) error {
		id := ids.Of(v)
		if id < 0 || num[id] >= 0 {
			return fmt.Errorf("value %s has an invalid or duplicate ID", v.Ref())
		}
		num[id] = int32(len(vals))
		vals = append(vals, v)
		a.class[id] = uint8(valueClass(v.Type()))
		return nil
	}
	for _, p := range f.Params {
		if err := number(p); err != nil {
			return nil, err
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if ir.IsVoid(in.Ty) || skip(in, a.reads) {
				continue
			}
			if err := number(in); err != nil {
				return nil, err
			}
		}
	}
	n := int32(len(vals))
	dense := func(v ir.Value) int32 {
		if id := ids.Of(v); id >= 0 {
			return num[id]
		}
		return -1
	}

	// Local sets: upward-exposed uses (phi operands excluded) and
	// definitions of each block, and the phi operands each block passes
	// to its successors.
	nb := len(f.Blocks)
	words := int((n + 63) / 64)
	backing := make([]uint64, 5*nb*words)
	set := func(k, bi int) bitset {
		o := (k*nb + bi) * words
		return bitset(backing[o : o+words])
	}
	const (
		sUse = iota
		sDef
		sPhiOut
		sIn
		sOut
	)
	index := make(map[*ir.Block]int, nb)
	for bi, b := range f.Blocks {
		index[b] = bi
	}
	for bi, b := range f.Blocks {
		use, def := set(sUse, bi), set(sDef, bi)
		for _, in := range b.Instrs {
			for k, arg := range in.Args {
				d := dense(arg)
				if d < 0 {
					continue
				}
				if in.Op == ir.OpPhi {
					if k < len(in.Blocks) {
						if pi, ok := index[in.Blocks[k]]; ok {
							set(sPhiOut, pi).add(d)
						}
					}
					continue
				}
				if !def.has(d) {
					use.add(d)
				}
			}
			if d := dense(in); d >= 0 {
				def.add(d)
			}
		}
	}

	// Liveness: backward dataflow to a fixed point, blocks visited in
	// reverse layout order.
	succs := make([][]int, nb)
	for bi, b := range f.Blocks {
		for _, s := range b.Succs() {
			if si, ok := index[s]; ok {
				succs[bi] = append(succs[bi], si)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for bi := nb - 1; bi >= 0; bi-- {
			out, in := set(sOut, bi), set(sIn, bi)
			use, def, phiOut := set(sUse, bi), set(sDef, bi), set(sPhiOut, bi)
			for w := range out {
				o := phiOut[w]
				for _, si := range succs[bi] {
					o |= set(sIn, si)[w]
				}
				out[w] = o
				if i := use[w] | o&^def[w]; i != in[w] {
					in[w] = i
					changed = true
				}
			}
		}
	}
	if nb > 0 {
		in := set(sIn, 0)
		for w, word := range in {
			for word != 0 {
				d := int32(w*64 + bits.TrailingZeros64(word))
				word &= word - 1
				if _, ok := vals[d].(*ir.Param); !ok {
					return nil, fmt.Errorf("%s used before its definition", vals[d].Ref())
				}
			}
		}
	}

	// Intervals over the layout positions; parameters are defined at 0.
	start := make([]int32, n)
	end := make([]int32, n)
	for i := range start {
		start[i], end[i] = -1, -1
	}
	extend := func(d, pos int32) {
		if start[d] < 0 || pos < start[d] {
			start[d] = pos
		}
		if pos > end[d] {
			end[d] = pos
		}
	}
	for i := range f.Params {
		extend(int32(i), 0)
	}
	forEach := func(s bitset, fn func(int32)) {
		for w, word := range s {
			for word != 0 {
				fn(int32(w*64 + bits.TrailingZeros64(word)))
				word &= word - 1
			}
		}
	}
	var calls []int32 // positions of the calls, ascending
	pos := int32(1)
	for bi, b := range f.Blocks {
		bstart := pos
		forEach(set(sIn, bi), func(d int32) { extend(d, bstart) })
		pos++
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi {
				if d := dense(in); d >= 0 {
					extend(d, bstart)
				}
				continue
			}
			for _, arg := range in.Args {
				if d := dense(arg); d >= 0 {
					extend(d, pos)
				}
			}
			if d := dense(in); d >= 0 {
				extend(d, pos+1)
			}
			if in.Op == ir.OpCall {
				calls = append(calls, pos)
			}
			pos += 2
		}
		bend := pos
		forEach(set(sOut, bi), func(d int32) { extend(d, bend) })
		pos++
	}

	// spansCall reports whether d lives across a call: a call reads its
	// operands at position p and writes its result at p+1, and d's
	// interval holds both.
	spansCall := func(d int32) bool {
		k := sort.Search(len(calls), func(i int) bool { return calls[i] >= start[d] })
		return k < len(calls) && calls[k] < end[d]
	}

	// Linear scan, one pass per class. Values never read get no register
	// (parameters among them keep a slot); the rest go by start, ties by
	// dense number.
	order := make([]int32, 0, n)
	for d := int32(0); d < n; d++ {
		if a.reads[ids.Of(vals[d])] > 0 {
			order = append(order, d)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		si, sj := start[order[i]], start[order[j]]
		if si != sj {
			return si < sj
		}
		return order[i] < order[j]
	})
	for c := 0; c < numClasses; c++ {
		var free uint32 = 1<<uint(pool[c]) - 1
		var active []int32 // by ascending end
		for _, d := range order {
			if int(a.class[ids.Of(vals[d])]) != c {
				continue
			}
			// Expire intervals that ended before this one starts.
			k := 0
			for k < len(active) && end[active[k]] < start[d] {
				free |= 1 << uint(a.reg[ids.Of(vals[active[k]])])
				k++
			}
			active = active[k:]
			id := ids.Of(vals[d])
			if clobbered[c] && spansCall(d) {
				continue
			}
			if free != 0 {
				r := bits.TrailingZeros32(free)
				free &^= 1 << uint(r)
				a.reg[id] = int8(r)
			} else {
				// Spill whichever ends furthest away: the last active
				// interval, or this one.
				if len(active) == 0 || end[active[len(active)-1]] <= end[d] {
					continue
				}
				last := active[len(active)-1]
				lid := ids.Of(vals[last])
				a.reg[id], a.reg[lid] = a.reg[lid], -1
				active = active[:len(active)-1]
			}
			// Insert by end.
			at := sort.Search(len(active), func(i int) bool { return end[active[i]] > end[d] })
			active = append(active, 0)
			copy(active[at+1:], active[at:])
			active[at] = d
			a.used[c] |= 1 << uint(a.reg[id])
		}
	}
	for _, v := range vals {
		id := ids.Of(v)
		_, param := v.(*ir.Param)
		a.slot[id] = a.reg[id] < 0 && (a.reads[id] > 0 || param)
	}
	return a, nil
}

// phiMove is one copy of a parallel move: into phi dst from src, or from
// the cycle temporary when src is nil.
type phiMove struct {
	dst *ir.Instr
	src ir.Value
}

// phiMover is what a target supplies to sequence an edge's phi moves.
type phiMover interface {
	// locKey names the location holding v (its register or slot), or -1
	// for a value that lives nowhere (constants, globals, functions,
	// frame addresses).
	locKey(v ir.Value) int64
	// saveCycle copies phi d's home into the class's cycle temporary.
	saveCycle(d *ir.Instr)
	// phiMove emits one move into a phi's home.
	phiMove(m phiMove)
}

// sequencePhiMoves emits the parallel copy from block from into the phis
// of to as a sequence: a move goes once no other pending move still reads
// its destination, a cycle is broken by saving one destination in the
// cycle temporary, and moves from constants go last since they read
// nothing.
func sequencePhiMoves(g phiMover, from, to *ir.Block) {
	var pending, consts []phiMove
	for _, phi := range to.Instrs {
		if phi.Op != ir.OpPhi {
			break
		}
		dk := g.locKey(phi)
		if dk < 0 {
			continue // nothing reads this phi, so it has no home
		}
		for k, pred := range phi.Blocks {
			if pred != from {
				continue
			}
			src := phi.Args[k]
			switch sk := g.locKey(src); {
			case sk < 0:
				consts = append(consts, phiMove{phi, src})
			case sk != dk:
				pending = append(pending, phiMove{phi, src})
			}
			break
		}
	}
	readBy := func(key int64, except int) bool {
		for j, m := range pending {
			if j != except && m.src != nil && g.locKey(m.src) == key {
				return true
			}
		}
		return false
	}
	for len(pending) > 0 {
		ready := -1
		for i, m := range pending {
			if !readBy(g.locKey(m.dst), i) {
				ready = i
				break
			}
		}
		if ready < 0 {
			// Every pending move is on a cycle: save the first one's
			// destination and let its readers take the temporary.
			d := pending[0].dst
			g.saveCycle(d)
			dk := g.locKey(d)
			for j := range pending {
				if pending[j].src != nil && g.locKey(pending[j].src) == dk {
					pending[j].src = nil
				}
			}
			continue
		}
		g.phiMove(pending[ready])
		pending = append(pending[:ready], pending[ready+1:]...)
	}
	for _, m := range consts {
		g.phiMove(m)
	}
}
