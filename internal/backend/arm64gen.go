package backend

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"lasagne/internal/arm64"
	"lasagne/internal/ir"
	"lasagne/internal/obj"
	"lasagne/internal/rt"
)

var armIntArgs = []arm64.Reg{arm64.X0, arm64.X1, arm64.X2, arm64.X3, arm64.X4, arm64.X5, arm64.X6, arm64.X7}
var armFPArgs = []arm64.Reg{arm64.D0, arm64.D1, arm64.D2, arm64.D3, arm64.D4, arm64.D5, arm64.D6, arm64.D7}

// The register allocator's pools: callee-saved registers only, so a value
// survives calls, and call-argument setup, results and the scratch
// registers below never meet an allocated value.
var armPools = [numClasses][]arm64.Reg{
	classInt: {arm64.X19, arm64.X20, arm64.X21, arm64.X22, arm64.X23,
		arm64.X24, arm64.X25, arm64.X26, arm64.X27, arm64.X28},
	classFloat: {arm64.D8, arm64.D9, arm64.D10, arm64.D11,
		arm64.D12, arm64.D13, arm64.D14, arm64.D15},
}

// Scratch registers. X14 is reserved for frame addresses out of immediate
// range.
const (
	sA = arm64.X9  // primary; also the integer phi-cycle temporary
	sB = arm64.X10 // secondary
	sC = arm64.X11
	sD = arm64.X12
	sE = arm64.X13 // store-exclusive status
	fA = arm64.D16 // also the FP phi-cycle temporary
	fB = arm64.D17
)

type arm64gen struct {
	m   *ir.Module
	dl  *dataLayout
	txt []byte
	fix []fixup

	funcOff  map[string]int
	funcSize map[string]int

	fr     *frameInfo
	ra     *allocation
	home   []arm64.Reg // by value ID: the value's register, or RegNone
	saved  []arm64.Reg // callee-saved registers the function uses
	total  int64       // frame size incl. saved registers and x30
	saveLR bool        // the function calls, so x30 needs a save
	blockLabels
	err error
}

func compileArm64(m *ir.Module) (*obj.File, error) {
	g := &arm64gen{
		m:        m,
		dl:       layoutGlobals(m),
		funcOff:  make(map[string]int),
		funcSize: make(map[string]int),
	}
	for _, f := range m.Funcs {
		if f.External {
			continue
		}
		if err := g.genFunc(f); err != nil {
			return nil, fmt.Errorf("arm64 backend: @%s: %w", f.Name, err)
		}
	}
	syms, addr := symbolAddrs(m, g.funcOff, g.funcSize, g.dl)
	for _, fx := range g.fix {
		a, ok := addr[fx.target]
		if !ok {
			return nil, fmt.Errorf("arm64 backend: unresolved symbol %q", fx.target)
		}
		switch fx.kind {
		case fixBL:
			rel := (int64(a) - int64(obj.TextBase+fx.pos)) / 4
			w := binary.LittleEndian.Uint32(g.txt[fx.pos:])
			w = w&^uint32(0x3FFFFFF) | uint32(rel)&0x3FFFFFF
			binary.LittleEndian.PutUint32(g.txt[fx.pos:], w)
		case fixMovSeq:
			for k := 0; k < 3; k++ {
				chunk := uint32(a>>(16*k)) & 0xFFFF
				w := binary.LittleEndian.Uint32(g.txt[fx.pos+4*k:])
				w = w&^uint32(0xFFFF<<5) | chunk<<5
				binary.LittleEndian.PutUint32(g.txt[fx.pos+4*k:], w)
			}
		}
	}
	return &obj.File{
		Arch:  "arm64",
		Entry: "main",
		Sections: []obj.Section{
			{Name: ".text", Addr: obj.TextBase, Data: g.txt},
			{Name: ".data", Addr: obj.DataBase, Data: g.dl.data},
		},
		Symbols: syms,
	}, nil
}

func (g *arm64gen) emit(in arm64.Inst) {
	if g.err != nil {
		return
	}
	w, err := arm64.Encode(in)
	if err != nil {
		g.err = err
		return
	}
	g.txt = binary.LittleEndian.AppendUint32(g.txt, w)
}

// emitJump emits a branch to a label, patched once the function is laid
// out.
func (g *arm64gen) emitJump(op arm64.Op, cond arm64.Cond, reg arm64.Reg, label int) {
	g.emit(arm64.Inst{Op: op, Cond: cond, Rd: reg, Size: 8, Imm: 0})
	g.localFix = append(g.localFix, labelFixup{len(g.txt) - 4, label})
}

func (g *arm64gen) emitCallSym(name string) {
	g.emit(arm64.Inst{Op: arm64.BL, Imm: 0})
	g.fix = append(g.fix, fixup{pos: len(g.txt) - 4, kind: fixBL, target: name})
}

// loadConst materializes a 64-bit constant with MOVZ/MOVN + MOVK.
func (g *arm64gen) loadConst(v int64, r arm64.Reg) {
	u := uint64(v)
	if v < 0 {
		g.emit(arm64.Inst{Op: arm64.MOVN, Size: 8, Rd: r, Imm: int64(^u & 0xFFFF), Shift: 0})
		for k := 1; k < 4; k++ {
			chunk := (u >> (16 * k)) & 0xFFFF
			if chunk != 0xFFFF {
				g.emit(arm64.Inst{Op: arm64.MOVK, Size: 8, Rd: r, Imm: int64(chunk), Shift: k})
			}
		}
		return
	}
	g.emit(arm64.Inst{Op: arm64.MOVZ, Size: 8, Rd: r, Imm: int64(u & 0xFFFF), Shift: 0})
	for k := 1; k < 4; k++ {
		chunk := (u >> (16 * k)) & 0xFFFF
		if chunk != 0 {
			g.emit(arm64.Inst{Op: arm64.MOVK, Size: 8, Rd: r, Imm: int64(chunk), Shift: k})
		}
	}
}

// slotAccess emits a load/store of rd at [SP + off], routing the address
// through X14 when the scaled unsigned offset does not fit the encoding.
func (g *arm64gen) slotAccess(op arm64.Op, rd arm64.Reg, size int, off int64) {
	scale := int64(size)
	switch op {
	case arm64.LDRSB:
		scale = 1
	case arm64.LDRSH:
		scale = 2
	case arm64.LDRSW:
		scale = 4
	}
	if off >= 0 && off%scale == 0 && off/scale <= 4095 {
		g.emit(arm64.Inst{Op: op, Size: size, Rd: rd, Rn: arm64.SP, Imm: off})
		return
	}
	rem := off
	first := true
	for rem > 0 || first {
		step := rem
		if step > 4095 {
			step = 4095
		}
		src := arm64.X14
		if first {
			src = arm64.SP
			first = false
		}
		g.emit(arm64.Inst{Op: arm64.ADDI, Size: 8, Rd: arm64.X14, Rn: src, Imm: step})
		rem -= step
	}
	g.emit(arm64.Inst{Op: op, Size: size, Rd: rd, Rn: arm64.X14, Imm: 0})
}

func (g *arm64gen) slotOff(v ir.Value) int64 {
	off, ok := g.fr.slotOf(v)
	if !ok {
		g.err = fmt.Errorf("no slot for %s", v.Ref())
		return 0
	}
	return off
}

// homeOf returns the register allocated to v, or RegNone.
func (g *arm64gen) homeOf(v ir.Value) arm64.Reg {
	if id := g.fr.ids.Of(v); id >= 0 {
		return g.home[id]
	}
	return arm64.RegNone
}

// fpSize is the width of a float type in bytes.
func fpSize(t ir.Type) int {
	if ft, ok := t.(*ir.FloatType); ok && ft.Bits == 32 {
		return 4
	}
	return 8
}

// loadVal places v's payload into GP register r.
func (g *arm64gen) loadVal(v ir.Value, r arm64.Reg) {
	switch c := v.(type) {
	case *ir.ConstInt:
		g.loadConst(c.V, r)
		return
	case *ir.ConstFloat:
		var bits int64
		if c.Ty.Bits == 32 {
			bits = int64(math.Float32bits(float32(c.V)))
		} else {
			bits = int64(math.Float64bits(c.V))
		}
		g.loadConst(bits, r)
		return
	case *ir.ConstNull, *ir.Undef:
		g.emit(arm64.Inst{Op: arm64.ORR, Size: 8, Rd: r, Rn: arm64.XZR, Rm: arm64.XZR})
		return
	case *ir.Global:
		g.loadConst(int64(g.dl.addr[c.Name]), r)
		return
	case *ir.Func:
		// movz+movk+movk triple patched with the function address.
		g.emit(arm64.Inst{Op: arm64.MOVZ, Size: 8, Rd: r, Imm: 0, Shift: 0})
		g.emit(arm64.Inst{Op: arm64.MOVK, Size: 8, Rd: r, Imm: 0, Shift: 1})
		g.emit(arm64.Inst{Op: arm64.MOVK, Size: 8, Rd: r, Imm: 0, Shift: 2})
		g.fix = append(g.fix, fixup{pos: len(g.txt) - 12, kind: fixMovSeq, target: c.Name})
		return
	case *ir.Instr:
		if off, ok := g.fr.frameOff(c); ok {
			g.frameAddr(off, r)
			return
		}
	}
	switch h := g.homeOf(v); {
	case h == arm64.RegNone:
		g.slotAccess(arm64.LDR, r, 8, g.slotOff(v))
	case h.IsFP():
		g.emit(arm64.Inst{Op: arm64.FMOVTOG, Size: fpSize(v.Type()), Rd: r, Rn: h})
	case h != r:
		g.emit(arm64.Inst{Op: arm64.ORR, Size: 8, Rd: r, Rn: arm64.XZR, Rm: h})
	}
}

// maxFrameChain bounds the bitcast/GEP chain isFrameAddr follows.
const maxFrameChain = 16

// isFrameAddr reports whether in is a frame address: an alloca, or a chain
// of bitcasts and GEPs with constant indices rooted at one. Such values are
// SP plus a constant and take no register or slot; every use recomputes
// them.
func isFrameAddr(in *ir.Instr) bool {
	for k := 0; k < maxFrameChain; k++ {
		switch in.Op {
		case ir.OpAlloca:
			return true
		case ir.OpBitcast:
		case ir.OpGEP:
			if _, vars, ok := gepConstOffset(in); !ok || len(vars) > 0 {
				return false
			}
		default:
			return false
		}
		base, ok := in.Args[0].(*ir.Instr)
		if !ok {
			return false
		}
		in = base
	}
	return false
}

// gepConstOffset sums a GEP's constant indices times their element sizes,
// and returns the variable indices with their element sizes. It fails for
// an index past the first into a type that is not an array.
func gepConstOffset(in *ir.Instr) (off int64, vars []gepIndex, ok bool) {
	elem := in.Elem
	for k, idx := range in.Args[1:] {
		if k > 0 {
			at, ok := elem.(*ir.ArrayType)
			if !ok {
				return 0, nil, false
			}
			elem = at.Elem
		}
		es := int64(elem.Size())
		if c, ok := ir.ConstIntValue(idx); ok {
			off += c * es
			continue
		}
		vars = append(vars, gepIndex{idx, es})
	}
	return off, vars, true
}

// gepIndex is a variable GEP index and its element size.
type gepIndex struct {
	v  ir.Value
	es int64
}

// frameAddr places SP + off in r.
func (g *arm64gen) frameAddr(off int64, r arm64.Reg) {
	if off >= 0 && off <= 4095 {
		g.emit(arm64.Inst{Op: arm64.ADDI, Size: 8, Rd: r, Rn: arm64.SP, Imm: off})
		return
	}
	// ADD (shifted register) cannot name SP: copy it to X14 first.
	g.loadConst(off, r)
	g.emit(arm64.Inst{Op: arm64.ADDI, Size: 8, Rd: arm64.X14, Rn: arm64.SP, Imm: 0})
	g.emit(arm64.Inst{Op: arm64.ADD, Size: 8, Rd: r, Rn: arm64.X14, Rm: r})
}

// use returns a GP register holding v: its own register when it has one,
// else scratch after loading v into it.
func (g *arm64gen) use(v ir.Value, scratch arm64.Reg) arm64.Reg {
	if h := g.homeOf(v); h != arm64.RegNone && !h.IsFP() {
		return h
	}
	g.loadVal(v, scratch)
	return scratch
}

// useFP is use for FP registers.
func (g *arm64gen) useFP(v ir.Value, scratch arm64.Reg) arm64.Reg {
	if h := g.homeOf(v); h.IsFP() {
		return h
	}
	g.loadFP(v, scratch)
	return scratch
}

// dst returns the GP register an instruction computing in's result in a
// single final instruction should write: in's own register, or scratch
// (then storeVal). A multi-instruction sequence writes scratch instead, so
// it never clobbers an operand register the result shares.
func (g *arm64gen) dst(in *ir.Instr, scratch arm64.Reg) arm64.Reg {
	if h := g.homeOf(in); h != arm64.RegNone && !h.IsFP() {
		return h
	}
	return scratch
}

// dstFP is dst for FP registers.
func (g *arm64gen) dstFP(in *ir.Instr, scratch arm64.Reg) arm64.Reg {
	if h := g.homeOf(in); h.IsFP() {
		return h
	}
	return scratch
}

// storeVal moves the result in GP register r to v's home: its register,
// its slot, or nowhere for a value nothing reads.
func (g *arm64gen) storeVal(v *ir.Instr, r arm64.Reg) {
	switch h := g.homeOf(v); {
	case h == arm64.RegNone:
		if off, ok := g.fr.slotOf(v); ok {
			g.slotAccess(arm64.STR, r, 8, off)
		}
	case h.IsFP():
		g.emit(arm64.Inst{Op: arm64.FMOVTOF, Size: fpSize(v.Ty), Rd: h, Rn: r})
	case h != r:
		g.emit(arm64.Inst{Op: arm64.ORR, Size: 8, Rd: h, Rn: arm64.XZR, Rm: r})
	}
}

// loadValSext loads v sign-extended to 64 bits.
func (g *arm64gen) loadValSext(v ir.Value, r arm64.Reg) {
	if c, ok := v.(*ir.ConstInt); ok {
		g.loadConst(c.V, r)
		return
	}
	w := width(v.Type())
	if w == 8 || ir.IsConst(v) { // undef and null load as zero
		g.loadVal(v, r)
		return
	}
	if h := g.homeOf(v); h != arm64.RegNone && !h.IsFP() {
		op := arm64.SXTB
		switch w {
		case 4:
			op = arm64.SXTW
		case 2:
			op = arm64.SXTH
		}
		g.emit(arm64.Inst{Op: op, Size: 8, Rd: r, Rn: h})
		return
	}
	switch w {
	case 4:
		g.slotAccess(arm64.LDRSW, r, 4, g.slotOff(v))
	case 2:
		g.slotAccess(arm64.LDRSH, r, 2, g.slotOff(v))
	default:
		g.slotAccess(arm64.LDRSB, r, 1, g.slotOff(v))
	}
}

// loadValZext loads v zero-extended to 64 bits.
func (g *arm64gen) loadValZext(v ir.Value, r arm64.Reg) {
	if c, ok := v.(*ir.ConstInt); ok {
		mask := ^uint64(0)
		if w := width(v.Type()); w < 8 {
			mask = 1<<(uint(w)*8) - 1
		}
		g.loadConst(int64(uint64(c.V)&mask), r)
		return
	}
	w := width(v.Type())
	if w == 8 || ir.IsConst(v) { // undef and null load as zero
		g.loadVal(v, r)
		return
	}
	if h := g.homeOf(v); h != arm64.RegNone && !h.IsFP() {
		switch w {
		case 4: // a 32-bit move zeroes the upper half
			g.emit(arm64.Inst{Op: arm64.ORR, Size: 4, Rd: r, Rn: arm64.XZR, Rm: h})
		case 2:
			g.emit(arm64.Inst{Op: arm64.UXTH, Size: 4, Rd: r, Rn: h})
		default:
			g.emit(arm64.Inst{Op: arm64.UXTB, Size: 4, Rd: r, Rn: h})
		}
		return
	}
	g.slotAccess(arm64.LDR, r, w, g.slotOff(v))
}

// sext returns a register holding v sign-extended to 64 bits: v's own
// register for a 64-bit value, else scratch.
func (g *arm64gen) sext(v ir.Value, scratch arm64.Reg) arm64.Reg {
	if width(v.Type()) == 8 {
		return g.use(v, scratch)
	}
	g.loadValSext(v, scratch)
	return scratch
}

// zext is sext for zero extension.
func (g *arm64gen) zext(v ir.Value, scratch arm64.Reg) arm64.Reg {
	if width(v.Type()) == 8 {
		return g.use(v, scratch)
	}
	g.loadValZext(v, scratch)
	return scratch
}

// loadFP places a float value into FP register r.
func (g *arm64gen) loadFP(v ir.Value, r arm64.Reg) {
	sz := fpSize(v.Type())
	if ir.IsConst(v) {
		g.loadVal(v, sA)
		g.emit(arm64.Inst{Op: arm64.FMOVTOF, Size: sz, Rd: r, Rn: sA})
		return
	}
	switch h := g.homeOf(v); {
	case h == arm64.RegNone:
		g.slotAccess(arm64.LDR, r, sz, g.slotOff(v))
	case !h.IsFP():
		g.emit(arm64.Inst{Op: arm64.FMOVTOF, Size: sz, Rd: r, Rn: h})
	case h != r:
		g.emit(arm64.Inst{Op: arm64.FMOV, Size: sz, Rd: r, Rn: h})
	}
}

// storeFP moves the result in FP register r to v's home.
func (g *arm64gen) storeFP(v *ir.Instr, r arm64.Reg) {
	sz := fpSize(v.Ty)
	switch h := g.homeOf(v); {
	case h == arm64.RegNone:
		if off, ok := g.fr.slotOf(v); ok {
			g.slotAccess(arm64.STR, r, sz, off)
		}
	case !h.IsFP():
		g.emit(arm64.Inst{Op: arm64.FMOVTOG, Size: sz, Rd: h, Rn: r})
	case h != r:
		g.emit(arm64.Inst{Op: arm64.FMOV, Size: sz, Rd: h, Rn: r})
	}
}

// adjustSP moves SP by delta using imm12 chunks (SUB/ADD with SP operands).
func (g *arm64gen) adjustSP(delta int64) {
	op := arm64.SUBI
	if delta < 0 {
		op = arm64.ADDI
		delta = -delta
	}
	for delta > 0 {
		step := delta
		if step > 4095 {
			step = 4095
		}
		g.emit(arm64.Inst{Op: op, Size: 8, Rd: arm64.SP, Rn: arm64.SP, Imm: step})
		delta -= step
	}
}

// bit0 returns a register that is nonzero exactly when bit 0 of v is set:
// sA, holding v shifted left by 63.
func (g *arm64gen) bit0(v ir.Value) arm64.Reg {
	r := g.use(v, sA)
	g.emit(arm64.Inst{Op: arm64.LSLI, Size: 8, Rd: sA, Rn: r, Imm: 63})
	return sA
}

func (g *arm64gen) genFunc(f *ir.Func) error {
	ra, err := allocate(f, [numClasses]int{len(armPools[classInt]), len(armPools[classFloat])}, [numClasses]bool{}, noRegister)
	if err != nil {
		return err
	}
	fr, err := buildFrame(f, ra)
	if err != nil {
		return err
	}
	g.fr, g.ra, g.err = fr, ra, nil
	g.home = make([]arm64.Reg, len(ra.reg))
	for id, r := range ra.reg {
		g.home[id] = arm64.RegNone
		if r >= 0 {
			g.home[id] = armPools[ra.class[id]][r]
		}
	}
	g.saved = g.saved[:0]
	for c, pool := range armPools {
		for k, r := range pool {
			if ra.used[c]&(1<<uint(k)) != 0 {
				g.saved = append(g.saved, r)
			}
		}
	}
	// Frame: slots and alloca storage, the saved registers, x30 on top
	// unless the function is a leaf.
	g.saveLR = false
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			g.saveLR = g.saveLR || in.Op == ir.OpCall
		}
	}
	g.total = fr.size + 8*int64(len(g.saved))
	if g.saveLR {
		g.total += 8
	}
	g.total = (g.total + 15) &^ 15
	start := len(g.txt)

	if g.total-8 > 32760 {
		return fmt.Errorf("frame too large (%d bytes)", fr.size)
	}

	// Prologue: allocate the frame, save x30 and the callee-saved registers
	// in use, and give every parameter its home.
	g.adjustSP(g.total)
	if g.saveLR {
		g.emit(arm64.Inst{Op: arm64.STR, Size: 8, Rd: arm64.X30, Rn: arm64.SP, Imm: g.total - 8})
	}
	for k, r := range g.saved {
		g.emit(arm64.Inst{Op: arm64.STR, Size: 8, Rd: r, Rn: arm64.SP, Imm: fr.size + 8*int64(k)})
	}
	intIdx, fpIdx := 0, 0
	for _, p := range f.Params {
		var src arm64.Reg
		sz := 8
		if ir.IsFloat(p.Ty) {
			if fpIdx >= len(armFPArgs) {
				return fmt.Errorf("too many FP parameters")
			}
			src, sz = armFPArgs[fpIdx], fpSize(p.Ty)
			fpIdx++
		} else {
			if intIdx >= len(armIntArgs) {
				return fmt.Errorf("too many integer parameters")
			}
			src = armIntArgs[intIdx]
			intIdx++
		}
		switch h := g.homeOf(p); {
		case h == arm64.RegNone:
			g.slotAccess(arm64.STR, src, sz, g.slotOff(p))
		case h.IsFP():
			g.emit(arm64.Inst{Op: arm64.FMOV, Size: sz, Rd: h, Rn: src})
		default:
			g.emit(arm64.Inst{Op: arm64.ORR, Size: 8, Rd: h, Rn: arm64.XZR, Rm: src})
		}
	}

	if err := genBlocks(g, &g.blockLabels, f, ra.reads); err != nil {
		return err
	}

	for _, lf := range g.localFix {
		rel := int64(g.labels[lf.label] - lf.pos)
		w := binary.LittleEndian.Uint32(g.txt[lf.pos:])
		switch {
		case w>>26 == 0x05: // B
			w = w&^uint32(0x3FFFFFF) | uint32(rel/4)&0x3FFFFFF
		default: // BCOND / CBZ / CBNZ: imm19 at bits 23-5
			w = w&^uint32(0x7FFFF<<5) | (uint32(rel/4)&0x7FFFF)<<5
		}
		binary.LittleEndian.PutUint32(g.txt[lf.pos:], w)
	}
	g.funcOff[f.Name] = start
	g.funcSize[f.Name] = len(g.txt) - start
	return g.err
}

// condJump sets up a conditional branch: a fused compare's cmp for a
// b.cond, or the condition's low bit in a register for a cbz/cbnz.
func (g *arm64gen) condJump(in *ir.Instr) func(want bool, label int) {
	if c, ok := in.Args[0].(*ir.Instr); ok && fusedCmp(c, g.ra.reads) {
		cond := g.cmpFlags(c)
		return func(want bool, label int) {
			cc := cond
			if !want {
				cc = cc.Invert()
			}
			g.emitJump(arm64.BCOND, cc, arm64.XZR, label)
		}
	}
	r := g.bit0(in.Args[0])
	return func(want bool, label int) {
		op := arm64.CBNZ
		if !want {
			op = arm64.CBZ
		}
		g.emitJump(op, 0, r, label)
	}
}

func (g *arm64gen) jump(label int) { g.emitJump(arm64.B, 0, arm64.XZR, label) }
func (g *arm64gen) offset() int    { return len(g.txt) }
func (g *arm64gen) failed() error  { return g.err }

// saveCycle saves a phi's home in the cycle temporary sA/fA.
func (g *arm64gen) saveCycle(d *ir.Instr) {
	if valueClass(d.Ty) == classFloat {
		g.loadFP(d, fA)
	} else {
		g.loadVal(d, sA)
	}
}

// locKey names the location holding v for move ordering: its register, or
// its slot offset past the register numbers; -1 for a value that lives
// nowhere (constants, globals, functions, alloca addresses).
func (g *arm64gen) locKey(v ir.Value) int64 {
	if h := g.homeOf(v); h != arm64.RegNone {
		return int64(h)
	}
	if in, ok := v.(*ir.Instr); ok && isFrameAddr(in) {
		return -1
	}
	if off, ok := g.fr.slotOf(v); ok {
		return int64(arm64.D31) + 1 + off
	}
	return -1
}

// phiMove emits one move into a phi's home.
func (g *arm64gen) phiMove(m phiMove) {
	if valueClass(m.dst.Ty) == classFloat {
		switch {
		case m.src == nil:
			g.storeFP(m.dst, fA)
		case g.homeOf(m.dst).IsFP():
			g.loadFP(m.src, g.homeOf(m.dst))
		default:
			g.storeFP(m.dst, g.useFP(m.src, fB))
		}
		return
	}
	switch h := g.homeOf(m.dst); {
	case m.src == nil:
		g.storeVal(m.dst, sA)
	case h != arm64.RegNone:
		g.loadVal(m.src, h)
	default:
		g.storeVal(m.dst, g.use(m.src, sB))
	}
}

var armCondOf = map[ir.Pred]arm64.Cond{
	ir.PredEQ: arm64.EQ, ir.PredNE: arm64.NE,
	ir.PredSLT: arm64.LT, ir.PredSLE: arm64.LE,
	ir.PredSGT: arm64.GT, ir.PredSGE: arm64.GE,
	ir.PredULT: arm64.LO, ir.PredULE: arm64.LS,
	ir.PredUGT: arm64.HI, ir.PredUGE: arm64.HS,
}

func (g *arm64gen) genInstr(in *ir.Instr) {
	if isFrameAddr(in) {
		return // recomputed from SP where used
	}
	switch in.Op {
	case ir.OpLoad:
		a := g.use(in.Args[0], sA)
		w := width(in.Ty)
		if h := g.homeOf(in); h.IsFP() && in.Order != ir.Acquire {
			g.emit(arm64.Inst{Op: arm64.LDR, Size: w, Rd: h, Rn: a, Imm: 0})
			return
		}
		d := g.dst(in, sB)
		if in.Order == ir.Acquire {
			// Weak lowering: an acquire load is its own ordering — LDAR
			// instead of LDR;DMB ISHLD. The integer register carries raw
			// bits, so FP-typed loads work unchanged.
			g.emit(arm64.Inst{Op: arm64.LDAR, Size: w, Rd: d, Rn: a})
		} else {
			g.emit(arm64.Inst{Op: arm64.LDR, Size: w, Rd: d, Rn: a, Imm: 0})
		}
		g.storeVal(in, d)

	case ir.OpStore:
		w := width(in.Args[0].Type())
		if h := g.homeOf(in.Args[0]); h.IsFP() && in.Order != ir.Release {
			a := g.use(in.Args[1], sA)
			g.emit(arm64.Inst{Op: arm64.STR, Size: w, Rd: h, Rn: a, Imm: 0})
			return
		}
		v := arm64.XZR
		if c, ok := ir.ConstIntValue(in.Args[0]); !ok || c != 0 {
			v = g.use(in.Args[0], sB)
		}
		a := g.use(in.Args[1], sA)
		if in.Order == ir.Release {
			g.emit(arm64.Inst{Op: arm64.STLR, Size: w, Rd: v, Rn: a})
		} else {
			g.emit(arm64.Inst{Op: arm64.STR, Size: w, Rd: v, Rn: a, Imm: 0})
		}

	case ir.OpFence:
		// Fig. 8b mapping: Frm→DMB ISHLD, Fww→DMB ISHST, Fsc→DMB ISH.
		switch in.Fence {
		case ir.FenceRM:
			g.emit(arm64.Inst{Op: arm64.DMB, Barrier: arm64.BarrierISHLD})
		case ir.FenceWW:
			g.emit(arm64.Inst{Op: arm64.DMB, Barrier: arm64.BarrierISHST})
		case ir.FenceSC:
			g.emit(arm64.Inst{Op: arm64.DMB, Barrier: arm64.BarrierISH})
		}

	case ir.OpRMW:
		g.genRMW(in)

	case ir.OpCmpXchg:
		g.genCmpXchg(in)

	case ir.OpGEP:
		g.genGEP(in)

	case ir.OpICmp:
		cond := g.cmpFlags(in)
		// cset = csinc rd, xzr, xzr, inverted cond
		d := g.dst(in, sA)
		g.emit(arm64.Inst{Op: arm64.CSINC, Size: 8, Cond: cond.Invert(), Rd: d, Rn: arm64.XZR, Rm: arm64.XZR})
		g.storeVal(in, d)

	case ir.OpFCmp:
		g.genFCmp(in)

	case ir.OpSelect:
		c := g.bit0(in.Args[0])
		g.emit(arm64.Inst{Op: arm64.SUBSI, Size: 8, Rd: arm64.XZR, Rn: c, Imm: 0})
		t := g.use(in.Args[1], sB)
		f := g.use(in.Args[2], sC)
		d := g.dst(in, sA)
		g.emit(arm64.Inst{Op: arm64.CSEL, Size: 8, Cond: arm64.NE, Rd: d, Rn: t, Rm: f})
		g.storeVal(in, d)

	case ir.OpCall:
		g.genCall(in)

	case ir.OpRet:
		if len(in.Args) == 1 {
			if ir.IsFloat(in.Args[0].Type()) {
				g.loadFP(in.Args[0], arm64.D0)
			} else {
				g.loadVal(in.Args[0], arm64.X0)
			}
		}
		for k, r := range g.saved {
			g.emit(arm64.Inst{Op: arm64.LDR, Size: 8, Rd: r, Rn: arm64.SP, Imm: g.fr.size + 8*int64(k)})
		}
		if g.saveLR {
			g.emit(arm64.Inst{Op: arm64.LDR, Size: 8, Rd: arm64.X30, Rn: arm64.SP, Imm: g.total - 8})
		}
		g.adjustSP(-g.total)
		g.emit(arm64.Inst{Op: arm64.RET, Rn: arm64.X30})

	case ir.OpUnreachable:
		// Branch-to-self; the simulator traps on it.
		g.emit(arm64.Inst{Op: arm64.B, Imm: 0})

	default:
		switch {
		case ir.IsBinaryOp(in.Op):
			g.genBinary(in)
		case ir.IsCast(in.Op):
			g.genCast(in)
		default:
			g.err = fmt.Errorf("arm64 backend: unhandled op %s", in.Op)
		}
	}
}

// genGEP sums the base, each variable index times its element size, and
// the constant indices' offsets folded into one immediate; only the last
// instruction writes the result register.
func (g *arm64gen) genGEP(in *ir.Instr) {
	off, vars, ok := gepConstOffset(in)
	if !ok {
		g.err = fmt.Errorf("GEP through non-array")
		return
	}
	cur := g.use(in.Args[0], sA)
	d := g.dst(in, sA)
	for k, x := range vars {
		r := g.sext(x.v, sB)
		switch {
		case x.es == 1:
		case x.es&(x.es-1) == 0:
			g.emit(arm64.Inst{Op: arm64.LSLI, Size: 8, Rd: sB, Rn: r, Imm: int64(bits.TrailingZeros64(uint64(x.es)))})
			r = sB
		default:
			g.loadConst(x.es, sC)
			g.emit(arm64.Inst{Op: arm64.MADD, Size: 8, Rd: sB, Rn: r, Rm: sC, Ra: arm64.XZR})
			r = sB
		}
		next := sA
		if k == len(vars)-1 && off == 0 {
			next = d
		}
		g.emit(arm64.Inst{Op: arm64.ADD, Size: 8, Rd: next, Rn: cur, Rm: r})
		cur = next
	}
	switch {
	case off > 0 && off <= 4095:
		g.emit(arm64.Inst{Op: arm64.ADDI, Size: 8, Rd: d, Rn: cur, Imm: off})
		cur = d
	case off < 0 && off >= -4095:
		g.emit(arm64.Inst{Op: arm64.SUBI, Size: 8, Rd: d, Rn: cur, Imm: -off})
		cur = d
	case off != 0:
		g.loadConst(off, sB)
		g.emit(arm64.Inst{Op: arm64.ADD, Size: 8, Rd: d, Rn: cur, Rm: sB})
		cur = d
	}
	g.storeVal(in, cur)
}

// genRMW implements the Fig. 8b RMWsc mapping: DMBFF; LL/SC loop; DMBFF.
func (g *arm64gen) genRMW(in *ir.Instr) {
	w := width(in.Ty)
	if w < 4 {
		g.err = fmt.Errorf("atomicrmw on sub-word type")
		return
	}
	g.loadVal(in.Args[0], sA)
	g.loadVal(in.Args[1], sD)
	g.emit(arm64.Inst{Op: arm64.DMB, Barrier: arm64.BarrierISH})
	loop := len(g.txt)
	g.emit(arm64.Inst{Op: arm64.LDXR, Size: w, Rd: sB, Rn: sA})
	switch in.RMWOp {
	case ir.RMWXchg:
		g.emit(arm64.Inst{Op: arm64.ORR, Size: 8, Rd: sC, Rn: arm64.XZR, Rm: sD})
	case ir.RMWAdd:
		g.emit(arm64.Inst{Op: arm64.ADD, Size: 8, Rd: sC, Rn: sB, Rm: sD})
	case ir.RMWSub:
		g.emit(arm64.Inst{Op: arm64.SUB, Size: 8, Rd: sC, Rn: sB, Rm: sD})
	case ir.RMWAnd:
		g.emit(arm64.Inst{Op: arm64.AND, Size: 8, Rd: sC, Rn: sB, Rm: sD})
	case ir.RMWOr:
		g.emit(arm64.Inst{Op: arm64.ORR, Size: 8, Rd: sC, Rn: sB, Rm: sD})
	case ir.RMWXor:
		g.emit(arm64.Inst{Op: arm64.EOR, Size: 8, Rd: sC, Rn: sB, Rm: sD})
	}
	g.emit(arm64.Inst{Op: arm64.STXR, Size: w, Rd: sC, Rn: sA, Ra: sE})
	g.emitLoopBack(arm64.CBNZ, sE, loop)
	g.emit(arm64.Inst{Op: arm64.DMB, Barrier: arm64.BarrierISH})
	g.storeVal(in, sB)
}

func (g *arm64gen) genCmpXchg(in *ir.Instr) {
	w := width(in.Ty)
	g.loadVal(in.Args[0], sA)
	g.loadVal(in.Args[1], sC) // expected
	g.loadVal(in.Args[2], sD) // new
	g.emit(arm64.Inst{Op: arm64.DMB, Barrier: arm64.BarrierISH})
	loop := len(g.txt)
	g.emit(arm64.Inst{Op: arm64.LDXR, Size: w, Rd: sB, Rn: sA})
	g.emit(arm64.Inst{Op: arm64.SUBS, Size: w, Rd: arm64.XZR, Rn: sB, Rm: sC})
	// b.ne +12 (skip stxr and cbnz)
	g.emit(arm64.Inst{Op: arm64.BCOND, Cond: arm64.NE, Imm: 12})
	g.emit(arm64.Inst{Op: arm64.STXR, Size: w, Rd: sD, Rn: sA, Ra: sE})
	g.emitLoopBack(arm64.CBNZ, sE, loop)
	g.emit(arm64.Inst{Op: arm64.DMB, Barrier: arm64.BarrierISH})
	g.storeVal(in, sB)
}

// emitLoopBack emits a cbz/cbnz back to byte position pos.
func (g *arm64gen) emitLoopBack(op arm64.Op, r arm64.Reg, pos int) {
	rel := int64(pos - len(g.txt))
	g.emit(arm64.Inst{Op: op, Size: 8, Rd: r, Imm: rel})
}

// cmpFlags sets the flags for an integer compare and returns the condition
// that holds when the compare is true.
// Narrower operands compare at 64 bits after extending both.
func (g *arm64gen) cmpFlags(in *ir.Instr) arm64.Cond {
	x, y := in.Args[0], in.Args[1]
	w := width(x.Type())
	signed := in.Pred == ir.PredSLT || in.Pred == ir.PredSLE || in.Pred == ir.PredSGT || in.Pred == ir.PredSGE
	// operand returns v ready to compare; c is y's constant, extended alike.
	size := max(w, 4)
	c, isConst := ir.ConstIntValue(y)
	operand := func(v ir.Value, scratch arm64.Reg) arm64.Reg { return g.use(v, scratch) }
	switch {
	case w == 4:
		c = int64(uint32(c))
	case w < 4 && signed:
		size, operand = 8, g.sext
		c = c << (64 - 8*w) >> (64 - 8*w)
	case w < 4:
		size, operand = 8, g.zext
		c &= 1<<(8*w) - 1
	}
	a := operand(x, sA)
	if isConst && c >= 0 && c <= 4095 {
		g.emit(arm64.Inst{Op: arm64.SUBSI, Size: size, Rd: arm64.XZR, Rn: a, Imm: c})
	} else {
		g.emit(arm64.Inst{Op: arm64.SUBS, Size: size, Rd: arm64.XZR, Rn: a, Rm: operand(y, sB)})
	}
	return armCondOf[in.Pred]
}

func (g *arm64gen) genFCmp(in *ir.Instr) {
	sz := fpSize(in.Args[0].Type())
	a := g.useFP(in.Args[0], fA)
	b := g.useFP(in.Args[1], fB)
	g.emit(arm64.Inst{Op: arm64.FCMP, Size: sz, Rn: a, Rm: b})
	d := g.dst(in, sA)
	cset := func(c arm64.Cond, r arm64.Reg) {
		g.emit(arm64.Inst{Op: arm64.CSINC, Size: 8, Cond: c.Invert(), Rd: r, Rn: arm64.XZR, Rm: arm64.XZR})
	}
	switch in.Pred {
	case ir.PredOEQ:
		cset(arm64.EQ, d)
	case ir.PredONE:
		// ordered and not equal: MI (less) or GT (greater).
		cset(arm64.MI, sA)
		cset(arm64.GT, sB)
		g.emit(arm64.Inst{Op: arm64.ORR, Size: 8, Rd: d, Rn: sA, Rm: sB})
	case ir.PredOLT:
		cset(arm64.MI, d)
	case ir.PredOLE:
		cset(arm64.LS, d)
	case ir.PredOGT:
		cset(arm64.GT, d)
	case ir.PredOGE:
		cset(arm64.GE, d)
	case ir.PredUNO:
		cset(arm64.VS, d)
	default:
		g.err = fmt.Errorf("unhandled fcmp pred %s", in.Pred)
		return
	}
	g.storeVal(in, d)
}

var armBinOp = map[ir.Op]arm64.Op{
	ir.OpAdd: arm64.ADD, ir.OpSub: arm64.SUB, ir.OpAnd: arm64.AND, ir.OpOr: arm64.ORR, ir.OpXor: arm64.EOR,
	ir.OpFAdd: arm64.FADD, ir.OpFSub: arm64.FSUB, ir.OpFMul: arm64.FMUL, ir.OpFDiv: arm64.FDIV,
}

func (g *arm64gen) genBinary(in *ir.Instr) {
	if ir.IsFloat(in.Ty) {
		a := g.useFP(in.Args[0], fA)
		b := g.useFP(in.Args[1], fB)
		d := g.dstFP(in, fA)
		g.emit(arm64.Inst{Op: armBinOp[in.Op], Size: fpSize(in.Ty), Rd: d, Rn: a, Rm: b})
		g.storeFP(in, d)
		return
	}

	w := width(in.Ty)
	ow := max(w, 4)
	// shiftImm is a constant shift amount an immediate form can encode.
	shiftImm := func(limit int) (int64, bool) {
		c, ok := ir.ConstIntValue(in.Args[1])
		return c, ok && c > 0 && c < int64(limit)
	}
	var d arm64.Reg
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpAnd, ir.OpOr, ir.OpXor:
		a := g.use(in.Args[0], sA)
		d = g.dst(in, sA)
		if c, ok := ir.ConstIntValue(in.Args[1]); ok && c >= 0 && c <= 4095 && (in.Op == ir.OpAdd || in.Op == ir.OpSub) {
			iop := arm64.ADDI
			if in.Op == ir.OpSub {
				iop = arm64.SUBI
			}
			g.emit(arm64.Inst{Op: iop, Size: ow, Rd: d, Rn: a, Imm: c})
		} else {
			b := g.use(in.Args[1], sB)
			g.emit(arm64.Inst{Op: armBinOp[in.Op], Size: ow, Rd: d, Rn: a, Rm: b})
		}

	case ir.OpMul:
		a := g.use(in.Args[0], sA)
		d = g.dst(in, sA)
		if c, ok := ir.ConstIntValue(in.Args[1]); ok && c > 1 && c&(c-1) == 0 && bits.TrailingZeros64(uint64(c)) < ow*8 {
			g.emit(arm64.Inst{Op: arm64.LSLI, Size: ow, Rd: d, Rn: a, Imm: int64(bits.TrailingZeros64(uint64(c)))})
			break
		}
		b := g.use(in.Args[1], sB)
		g.emit(arm64.Inst{Op: arm64.MADD, Size: ow, Rd: d, Rn: a, Rm: b, Ra: arm64.XZR})

	case ir.OpSDiv, ir.OpSRem, ir.OpUDiv, ir.OpURem:
		var a, b arm64.Reg
		op := arm64.UDIV
		switch {
		case in.Op == ir.OpUDiv || in.Op == ir.OpURem:
			a, b = g.zext(in.Args[0], sA), g.zext(in.Args[1], sB)
		case w >= 4:
			a, b, op = g.use(in.Args[0], sA), g.use(in.Args[1], sB), arm64.SDIV
		default:
			a, b, op = g.sext(in.Args[0], sA), g.sext(in.Args[1], sB), arm64.SDIV
		}
		d = g.dst(in, sC)
		if in.Op == ir.OpSDiv || in.Op == ir.OpUDiv {
			g.emit(arm64.Inst{Op: op, Size: ow, Rd: d, Rn: a, Rm: b})
		} else {
			// rem = a - (a/b)*b
			g.emit(arm64.Inst{Op: op, Size: ow, Rd: sC, Rn: a, Rm: b})
			g.emit(arm64.Inst{Op: arm64.MSUB, Size: ow, Rd: d, Rn: sC, Rm: b, Ra: a})
		}

	case ir.OpShl:
		a := g.use(in.Args[0], sA)
		d = g.dst(in, sA)
		if c, ok := shiftImm(ow * 8); ok {
			g.emit(arm64.Inst{Op: arm64.LSLI, Size: ow, Rd: d, Rn: a, Imm: c})
		} else {
			b := g.use(in.Args[1], sB)
			g.emit(arm64.Inst{Op: arm64.LSLV, Size: ow, Rd: d, Rn: a, Rm: b})
		}

	case ir.OpLShr:
		a := g.zext(in.Args[0], sA)
		d = g.dst(in, sA)
		if c, ok := shiftImm(ow * 8); ok {
			g.emit(arm64.Inst{Op: arm64.LSRI, Size: ow, Rd: d, Rn: a, Imm: c})
		} else {
			b := g.use(in.Args[1], sB)
			g.emit(arm64.Inst{Op: arm64.LSRV, Size: ow, Rd: d, Rn: a, Rm: b})
		}

	case ir.OpAShr:
		a := g.sext(in.Args[0], sA)
		d = g.dst(in, sA)
		if c, ok := shiftImm(64); ok {
			g.emit(arm64.Inst{Op: arm64.ASRI, Size: 8, Rd: d, Rn: a, Imm: c})
		} else {
			b := g.use(in.Args[1], sB)
			g.emit(arm64.Inst{Op: arm64.ASRV, Size: 8, Rd: d, Rn: a, Rm: b})
		}

	default:
		g.err = fmt.Errorf("unhandled binary op %s", in.Op)
		return
	}
	g.storeVal(in, d)
}

func (g *arm64gen) genCast(in *ir.Instr) {
	switch in.Op {
	case ir.OpTrunc, ir.OpBitcast, ir.OpIntToPtr, ir.OpPtrToInt:
		if h := g.homeOf(in); h.IsFP() && !ir.IsFloat(in.Args[0].Type()) {
			// GP bits to an FP register: one fmov from the value's home.
			g.emit(arm64.Inst{Op: arm64.FMOVTOF, Size: fpSize(in.Ty), Rd: h, Rn: g.use(in.Args[0], sA)})
			return
		}
		d := g.dst(in, sA)
		g.loadVal(in.Args[0], d)
		g.storeVal(in, d)
	case ir.OpZext:
		d := g.dst(in, sA)
		g.loadValZext(in.Args[0], d)
		g.storeVal(in, d)
	case ir.OpSext:
		d := g.dst(in, sA)
		g.loadValSext(in.Args[0], d)
		g.storeVal(in, d)
	case ir.OpSIToFP:
		r := g.sext(in.Args[0], sA)
		d := g.dstFP(in, fA)
		g.emit(arm64.Inst{Op: arm64.SCVTF, Size: fpSize(in.Ty), Rd: d, Rn: r})
		g.storeFP(in, d)
	case ir.OpFPToSI:
		a := g.useFP(in.Args[0], fA)
		d := g.dst(in, sA)
		g.emit(arm64.Inst{Op: arm64.FCVTZS, Size: fpSize(in.Args[0].Type()), Rd: d, Rn: a})
		g.storeVal(in, d)
	case ir.OpFPExt:
		a := g.useFP(in.Args[0], fA)
		d := g.dstFP(in, fA)
		g.emit(arm64.Inst{Op: arm64.FCVTDS, Size: 8, Rd: d, Rn: a})
		g.storeFP(in, d)
	case ir.OpFPTrunc:
		a := g.useFP(in.Args[0], fA)
		d := g.dstFP(in, fA)
		g.emit(arm64.Inst{Op: arm64.FCVTSD, Size: 4, Rd: d, Rn: a})
		g.storeFP(in, d)
	default:
		g.err = fmt.Errorf("unhandled cast %s", in.Op)
	}
}

func (g *arm64gen) genCall(in *ir.Instr) {
	args := in.CallArgs()
	intIdx, fpIdx := 0, 0
	for _, a := range args {
		if ir.IsFloat(a.Type()) {
			if fpIdx >= len(armFPArgs) {
				g.err = fmt.Errorf("too many FP call arguments")
				return
			}
			g.loadFP(a, armFPArgs[fpIdx])
			fpIdx++
		} else {
			if intIdx >= len(armIntArgs) {
				g.err = fmt.Errorf("too many integer call arguments")
				return
			}
			g.loadVal(a, armIntArgs[intIdx])
			intIdx++
		}
	}
	if callee, ok := in.Args[0].(*ir.Func); ok {
		if callee.External && rt.Lookup(callee.Name) == nil {
			g.err = fmt.Errorf("call to unknown extern %q", callee.Name)
			return
		}
		g.emitCallSym(callee.Name)
	} else {
		g.loadVal(in.Args[0], sA)
		g.emit(arm64.Inst{Op: arm64.BLR, Rn: sA})
	}
	if !ir.IsVoid(in.Ty) {
		if ir.IsFloat(in.Ty) {
			g.storeFP(in, arm64.D0)
		} else {
			g.storeVal(in, arm64.X0)
		}
	}
}
