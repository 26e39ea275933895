package ir

import "fmt"

// Module is a translation unit: a set of functions and globals.
type Module struct {
	Name    string
	Funcs   []*Func
	Globals []*Global

	funcByName   map[string]*Func
	globalByName map[string]*Global
}

// NewModule returns an empty module.
func NewModule(name string) *Module {
	return &Module{
		Name:         name,
		funcByName:   make(map[string]*Func),
		globalByName: make(map[string]*Global),
	}
}

// NewFunc creates a function with the given name and signature and adds it
// to the module. Parameters are named p0, p1, ... unless renamed later.
func (m *Module) NewFunc(name string, sig *FuncType) *Func {
	f := &Func{Name: name, Sig: sig, Module: m}
	for i, pt := range sig.Params {
		f.Params = append(f.Params, &Param{Nam: fmt.Sprintf("p%d", i), Ty: pt, Idx: i})
	}
	m.Funcs = append(m.Funcs, f)
	m.funcByName[name] = f
	return f
}

// DeclareFunc adds an external function declaration.
func (m *Module) DeclareFunc(name string, sig *FuncType) *Func {
	f := m.NewFunc(name, sig)
	f.External = true
	return f
}

// Func returns the function with the given name, or nil.
func (m *Module) Func(name string) *Func {
	return m.funcByName[name]
}

// NewGlobal creates a zero-initialized global and adds it to the module.
func (m *Module) NewGlobal(name string, elem Type) *Global {
	g := &Global{Name: name, Elem: elem, Align: 8}
	m.Globals = append(m.Globals, g)
	m.globalByName[name] = g
	return g
}

// Global returns the global with the given name, or nil.
func (m *Module) Global(name string) *Global {
	return m.globalByName[name]
}

// NumInstrs returns the total number of instructions in all function bodies.
// This is the code-size metric used for Figs. 16 and 17 of the paper.
func (m *Module) NumInstrs() int {
	n := 0
	for _, f := range m.Funcs {
		n += f.NumInstrs()
	}
	return n
}

// Func is an IR function: a signature plus a CFG of basic blocks. External
// functions have no blocks.
type Func struct {
	Name     string
	Sig      *FuncType
	Params   []*Param
	Blocks   []*Block
	Module   *Module
	External bool

	nextID int
}

// Type returns the function's type (its signature); functions used as call
// operands are values of function type.
func (f *Func) Type() Type  { return f.Sig }
func (f *Func) Ref() string { return "@" + f.Name }

// Entry returns the entry block, or nil for external functions.
func (f *Func) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// NewBlock appends a new basic block with the given name.
func (f *Func) NewBlock(name string) *Block {
	b := &Block{Name: name, Parent: f}
	f.Blocks = append(f.Blocks, b)
	return b
}

// NumInstrs returns the number of instructions in the function body.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// nextValueID allocates a fresh value number.
func (f *Func) nextValueID() int {
	f.nextID++
	return f.nextID
}

// IDBound returns the highest value ID allocated in the function so far.
// Together with SetIDBound it lets external codecs (the translation cache)
// round-trip a body without perturbing later ID allocation.
func (f *Func) IDBound() int { return f.nextID }

// SetIDBound restores the value-ID high-water mark, so IDs minted after a
// decoded body is installed stay unique.
func (f *Func) SetIDBound(n int) { f.nextID = n }

// RemoveBlock deletes block b from the function.
func (f *Func) RemoveBlock(b *Block) {
	for i, bb := range f.Blocks {
		if bb == b {
			f.Blocks = append(f.Blocks[:i], f.Blocks[i+1:]...)
			return
		}
	}
}

// Block is a basic block: a straight-line sequence of instructions ending in
// exactly one terminator.
type Block struct {
	Name   string
	Instrs []*Instr
	Parent *Func
}

// Terminator returns the final instruction if it is a terminator, else nil.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if t.IsTerminator() {
		return t
	}
	return nil
}

// Succs returns the successor blocks.
func (b *Block) Succs() []*Block {
	if t := b.Terminator(); t != nil {
		return t.Succs()
	}
	return nil
}

// Preds returns the predecessor blocks, in function block order.
func (b *Block) Preds() []*Block {
	var preds []*Block
	for _, bb := range b.Parent.Blocks {
		for _, s := range bb.Succs() {
			if s == b {
				preds = append(preds, bb)
				break
			}
		}
	}
	return preds
}

// Append adds an instruction at the end of the block.
func (b *Block) Append(i *Instr) *Instr {
	i.Parent = b
	if i.ID == 0 && !IsVoid(i.Ty) {
		i.ID = b.Parent.nextValueID()
	}
	b.Instrs = append(b.Instrs, i)
	return i
}

// InsertBefore inserts instruction i immediately before pos. pos must be in
// this block.
func (b *Block) InsertBefore(i *Instr, pos *Instr) {
	i.Parent = b
	if i.ID == 0 && !IsVoid(i.Ty) {
		i.ID = b.Parent.nextValueID()
	}
	for k, in := range b.Instrs {
		if in == pos {
			b.Instrs = append(b.Instrs, nil)
			copy(b.Instrs[k+1:], b.Instrs[k:])
			b.Instrs[k] = i
			return
		}
	}
	panic("ir: InsertBefore position not in block")
}

// Remove deletes instruction i from the block. The caller is responsible
// for ensuring i has no remaining uses.
func (b *Block) Remove(i *Instr) {
	for k, in := range b.Instrs {
		if in == i {
			b.Instrs = append(b.Instrs[:k], b.Instrs[k+1:]...)
			i.Parent = nil
			return
		}
	}
}

// Index returns the position of i within the block, or -1.
func (b *Block) Index(i *Instr) int {
	for k, in := range b.Instrs {
		if in == i {
			return k
		}
	}
	return -1
}

// Phis returns the leading phi instructions of the block.
func (b *Block) Phis() []*Instr {
	var phis []*Instr
	for _, i := range b.Instrs {
		if i.Op != OpPhi {
			break
		}
		phis = append(phis, i)
	}
	return phis
}
