package backend

import (
	"fmt"

	"lasagne/internal/ir"
)

// Branch lowering, independent of the target: blocks are laid out in
// order, phis become parallel moves on each edge into their block, a
// branch to the next block falls through, and the phi moves of a
// conditional branch's taken edge go to an edge stub after the last
// block when both edges have some. The target supplies how to set up and
// emit a conditional branch, an unconditional jump and every other
// instruction; it patches its label fixups once the function is laid out.

// labelFixup is a branch within a function to a label: a block by layout
// index, or an edge stub after the last block. pos is the byte offset of
// the branch (Arm64) or of its rel32 field (x86-64).
type labelFixup struct {
	pos   int
	label int
}

// edgeStub is the phi moves of one edge, then a jump to its target, laid
// out after a function's last block.
type edgeStub struct {
	from, to *ir.Block
}

// blockLabels is one function's branch bookkeeping: a label per block by
// layout index, then one per edge stub, and the branches to patch.
type blockLabels struct {
	blockIdx map[*ir.Block]int
	labels   []int // byte offset of each label
	localFix []labelFixup
	stubs    []edgeStub
}

// codeGen is what a target supplies to genBlocks.
type codeGen interface {
	phiMover
	// offset is the byte offset the next instruction is emitted at.
	offset() int
	// condJump sets up the condition of conditional branch in (a fused
	// compare's flags, or a test of its low bit) and returns a function
	// that emits a branch to a label, taken when the condition is want.
	condJump(in *ir.Instr) func(want bool, label int)
	// jump emits an unconditional branch to a label.
	jump(label int)
	// genInstr lowers an instruction other than a phi, a branch or a
	// fused compare.
	genInstr(in *ir.Instr)
	// failed is the first error of the function so far.
	failed() error
}

// hasPhis reports whether b starts with a phi.
func hasPhis(b *ir.Block) bool { return len(b.Instrs) > 0 && b.Instrs[0].Op == ir.OpPhi }

// fusedCmp reports whether in is an integer compare whose only use is the
// conditional branch right after it. Such a compare leaves its result in
// the flags for that branch and has no value of its own.
func fusedCmp(in *ir.Instr, reads []int32) bool {
	if in.Op != ir.OpICmp || in.Parent == nil || in.ID <= 0 || in.ID >= len(reads) || reads[in.ID] != 1 {
		return false
	}
	instrs := in.Parent.Instrs
	n := len(instrs)
	if n < 2 || instrs[n-2] != in {
		return false
	}
	t := instrs[n-1]
	return t.Op == ir.OpCondBr && len(t.Args) == 1 && t.Args[0] == in
}

// noRegister reports the values the allocator leaves out: frame
// addresses, recomputed from the frame register at each use, and fused
// compares.
func noRegister(in *ir.Instr, reads []int32) bool {
	return isFrameAddr(in) || fusedCmp(in, reads)
}

// genBlocks lowers f's blocks in layout order, then the edge stubs, and
// records in l every label's offset and every branch to patch.
func genBlocks(g codeGen, l *blockLabels, f *ir.Func, reads []int32) error {
	if l.blockIdx == nil {
		l.blockIdx = make(map[*ir.Block]int)
	}
	clear(l.blockIdx)
	for bi, b := range f.Blocks {
		l.blockIdx[b] = bi
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			if _, ok := l.blockIdx[s]; !ok {
				return fmt.Errorf("%s: branch to unemitted block %%%s", b.Terminator(), s.Name)
			}
		}
	}
	l.labels = append(l.labels[:0], make([]int, len(f.Blocks))...)
	l.localFix = l.localFix[:0]
	l.stubs = l.stubs[:0]

	for bi, b := range f.Blocks {
		l.labels[bi] = g.offset()
		for _, in := range b.Instrs {
			switch {
			case in.Op == ir.OpPhi || fusedCmp(in, reads):
				continue
			case in.Op == ir.OpBr:
				sequencePhiMoves(g, b, in.Blocks[0])
				l.jumpUnlessNext(g, bi, in.Blocks[0])
			case in.Op == ir.OpCondBr:
				l.genCondBr(g, f, bi, in)
			default:
				g.genInstr(in)
			}
			if err := g.failed(); err != nil {
				return fmt.Errorf("%s: %w", in, err)
			}
		}
	}
	for k := 0; k < len(l.stubs); k++ {
		st := l.stubs[k]
		l.labels = append(l.labels, g.offset())
		sequencePhiMoves(g, st.from, st.to)
		g.jump(l.blockIdx[st.to])
	}
	return g.failed()
}

// jumpUnlessNext jumps to succ unless it is the next block in layout.
func (l *blockLabels) jumpUnlessNext(g codeGen, bi int, succ *ir.Block) {
	if si := l.blockIdx[succ]; si != bi+1 {
		g.jump(si)
	}
}

// genCondBr lowers the conditional branch in ending block bi. The phi
// moves of an edge into a block with phis run on that edge only: inline
// on the fall-through path when one edge needs them, and in an edge stub
// for the taken branch when both do.
func (l *blockLabels) genCondBr(g codeGen, f *ir.Func, bi int, in *ir.Instr) {
	b := f.Blocks[bi]
	t, e := in.Blocks[0], in.Blocks[1]
	branchIf := g.condJump(in)
	needT, needE := hasPhis(t), hasPhis(e)
	switch {
	case needT && !needE:
		branchIf(false, l.blockIdx[e])
		sequencePhiMoves(g, b, t)
		l.jumpUnlessNext(g, bi, t)
	case !needT && !needE && l.blockIdx[t] == bi+1:
		branchIf(false, l.blockIdx[e])
	default:
		if needT {
			branchIf(true, len(f.Blocks)+len(l.stubs))
			l.stubs = append(l.stubs, edgeStub{b, t})
		} else {
			branchIf(true, l.blockIdx[t])
		}
		if needE {
			sequencePhiMoves(g, b, e)
		}
		l.jumpUnlessNext(g, bi, e)
	}
}
