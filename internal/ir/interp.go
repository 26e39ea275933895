package ir

import (
	"fmt"
	"math"
	"strings"

	"lasagne/internal/addrspace"
)

// ExternFn implements an external function for the interpreter. Arguments
// and result are raw 64-bit payloads (integers, pointers, or float bits).
type ExternFn func(ip *Interp, args []uint64) uint64

// Interp executes IR modules directly. It is the reference semantics used
// for differential testing: the same program is run through the interpreter,
// the x86 pipeline and the Arm64 pipeline and the outputs are compared.
type Interp struct {
	M *Module
	// mem is the interpreter's address space: zero until written, with
	// pages allocated on first store.
	mem addrspace.Space

	Externs  map[string]ExternFn
	Out      *strings.Builder
	Steps    int64
	MaxSteps int64

	globalAddr map[string]uint64
	stackTop   uint64
	heapTop    uint64
}

// Memory layout of the interpreter address space (addrspace.Size bytes).
const (
	interpGlobBase = 0x1000
	interpStackTop = 48 << 20 // stack grows down from here
	interpHeapBase = 48 << 20 // heap grows up from here
)

// NewInterp prepares an interpreter for module m, laying out globals.
func NewInterp(m *Module) *Interp {
	ip := &Interp{
		M:          m,
		Externs:    make(map[string]ExternFn),
		Out:        &strings.Builder{},
		MaxSteps:   500_000_000,
		globalAddr: make(map[string]uint64),
		stackTop:   interpStackTop,
		heapTop:    interpHeapBase,
	}
	addr := uint64(interpGlobBase)
	for _, g := range m.Globals {
		addr = (addr + 15) &^ 15
		ip.globalAddr[g.Name] = addr
		if !ip.mem.Write(addr, g.Init) {
			panic(fmt.Sprintf("ir interp: global @%s does not fit in memory", g.Name))
		}
		addr += uint64(g.Elem.Size())
	}
	ip.installBuiltins()
	return ip
}

// Alloc reserves n bytes of heap memory and returns its address.
func (ip *Interp) Alloc(n uint64) uint64 {
	a := (ip.heapTop + 15) &^ 15
	ip.heapTop = a + n
	if ip.heapTop >= addrspace.Size {
		panic("ir interp: out of heap")
	}
	return a
}

// installBuiltins registers the runtime functions shared with the machine
// simulators: memory allocation, threading (executed sequentially here) and
// formatted output.
func (ip *Interp) installBuiltins() {
	ip.Externs["__alloc"] = func(ip *Interp, a []uint64) uint64 { return ip.Alloc(a[0]) }
	ip.Externs["__print_int"] = func(ip *Interp, a []uint64) uint64 {
		fmt.Fprintf(ip.Out, "%d\n", int64(a[0]))
		return 0
	}
	ip.Externs["__print_float"] = func(ip *Interp, a []uint64) uint64 {
		fmt.Fprintf(ip.Out, "%.6f\n", math.Float64frombits(a[0]))
		return 0
	}
	ip.Externs["__nthreads"] = func(ip *Interp, a []uint64) uint64 { return 4 }
	// Threads run sequentially in the reference interpreter: spawn calls the
	// worker immediately, join is a no-op. This keeps outputs deterministic.
	ip.Externs["__spawn"] = func(ip *Interp, a []uint64) uint64 {
		f := ip.funcAt(a[0])
		if f == nil {
			panic("ir interp: spawn of unknown function")
		}
		_, err := ip.call(f, []uint64{a[1]})
		if err != nil {
			panic(err)
		}
		return 0
	}
	ip.Externs["__join"] = func(ip *Interp, a []uint64) uint64 { return 0 }
}

// Function "addresses": functions are referenced by index+1 in the module.
func (ip *Interp) funcValue(f *Func) uint64 {
	for i, ff := range ip.M.Funcs {
		if ff == f {
			return uint64(i + 1)
		}
	}
	return 0
}

func (ip *Interp) funcAt(v uint64) *Func {
	i := int(v) - 1
	if i < 0 || i >= len(ip.M.Funcs) {
		return nil
	}
	return ip.M.Funcs[i]
}

// Run executes the named function with the given arguments and returns its
// result payload.
func (ip *Interp) Run(name string, args ...uint64) (uint64, error) {
	f := ip.M.Func(name)
	if f == nil {
		return 0, fmt.Errorf("ir interp: no function %q", name)
	}
	return ip.call(f, args)
}

func (ip *Interp) load(addr uint64, size int) uint64 {
	if !addrspace.InBounds(addr, size) {
		panic(fmt.Sprintf("ir interp: load out of bounds at %#x", addr))
	}
	switch size {
	case 1, 2, 4, 8:
		v, _ := ip.mem.Load(addr, size)
		return v
	}
	panic(fmt.Sprintf("ir interp: load size %d", size))
}

func (ip *Interp) store(addr uint64, size int, v uint64) {
	if !addrspace.InBounds(addr, size) {
		panic(fmt.Sprintf("ir interp: store out of bounds at %#x", addr))
	}
	switch size {
	case 1, 2, 4, 8:
		ip.mem.Store(addr, size, v)
	default:
		panic(fmt.Sprintf("ir interp: store size %d", size))
	}
}

// frame is one activation record.
type frame struct {
	vals map[Value]uint64
	vecs map[Value][]uint64
	sp   uint64
}

func (ip *Interp) call(f *Func, args []uint64) (ret uint64, err error) {
	if f.External {
		fn := ip.Externs[f.Name]
		if fn == nil {
			return 0, fmt.Errorf("ir interp: call to unresolved extern %q", f.Name)
		}
		return fn(ip, args), nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("ir interp: in @%s: %v", f.Name, r)
		}
	}()

	fr := &frame{vals: make(map[Value]uint64), vecs: make(map[Value][]uint64), sp: ip.stackTop}
	savedSP := ip.stackTop
	defer func() { ip.stackTop = savedSP }()
	for i, p := range f.Params {
		if i < len(args) {
			fr.vals[p] = args[i]
		}
	}

	blk := f.Entry()
	var prev *Block
	for {
		var next *Block
		// Phis execute in parallel: all incoming values are read from the
		// predecessor's end state before any phi is assigned.
		phis := blk.Phis()
		if len(phis) > 0 {
			scalars := make([]uint64, len(phis))
			vectors := make([][]uint64, len(phis))
			for pi, phi := range phis {
				for k, b := range phi.Blocks {
					if b == prev {
						if IsVector(phi.Ty) {
							vectors[pi] = ip.evalVec(fr, phi.Args[k])
						} else {
							scalars[pi] = ip.eval(fr, phi.Args[k])
						}
						break
					}
				}
			}
			for pi, phi := range phis {
				if IsVector(phi.Ty) {
					fr.vecs[phi] = vectors[pi]
				} else {
					fr.vals[phi] = scalars[pi]
				}
			}
		}
		for _, in := range blk.Instrs {
			ip.Steps++
			if ip.Steps > ip.MaxSteps {
				return 0, fmt.Errorf("ir interp: step limit exceeded in @%s", f.Name)
			}
			switch in.Op {
			case OpPhi:
				// Handled above in the parallel phase.
			case OpAlloca:
				n := uint64(1)
				if len(in.Args) == 1 {
					n = ip.eval(fr, in.Args[0])
				}
				size := (uint64(in.Elem.Size())*n + 15) &^ 15
				fr.sp -= size
				ip.stackTop = fr.sp
				fr.vals[in] = fr.sp
			case OpLoad:
				addr := ip.eval(fr, in.Args[0])
				if vt, ok := in.Ty.(*VectorType); ok {
					lanes := make([]uint64, vt.Len)
					es := vt.Elem.Size()
					for k := 0; k < vt.Len; k++ {
						lanes[k] = ip.load(addr+uint64(k*es), es)
					}
					fr.vecs[in] = lanes
				} else {
					fr.vals[in] = ip.load(addr, in.Ty.Size())
				}
			case OpStore:
				addr := ip.eval(fr, in.Args[1])
				if vt, ok := in.Args[0].Type().(*VectorType); ok {
					lanes := ip.evalVec(fr, in.Args[0])
					es := vt.Elem.Size()
					for k := 0; k < vt.Len; k++ {
						ip.store(addr+uint64(k*es), es, lanes[k])
					}
				} else {
					ip.store(addr, in.Args[0].Type().Size(), ip.eval(fr, in.Args[0]))
				}
			case OpFence:
				// Single-threaded reference execution: fences are no-ops.
			case OpRMW:
				addr := ip.eval(fr, in.Args[0])
				opnd := ip.eval(fr, in.Args[1])
				size := in.Ty.Size()
				old := ip.load(addr, size)
				var nv uint64
				switch in.RMWOp {
				case RMWXchg:
					nv = opnd
				case RMWAdd:
					nv = old + opnd
				case RMWSub:
					nv = old - opnd
				case RMWAnd:
					nv = old & opnd
				case RMWOr:
					nv = old | opnd
				case RMWXor:
					nv = old ^ opnd
				}
				ip.store(addr, size, nv)
				fr.vals[in] = old
			case OpCmpXchg:
				addr := ip.eval(fr, in.Args[0])
				exp := ip.eval(fr, in.Args[1])
				nv := ip.eval(fr, in.Args[2])
				size := in.Ty.Size()
				old := ip.load(addr, size)
				if old == truncU(exp, size) {
					ip.store(addr, size, nv)
				}
				fr.vals[in] = old
			case OpGEP:
				fr.vals[in] = ip.evalGEP(fr, in)
			case OpICmp:
				fr.vals[in] = ip.evalICmp(fr, in)
			case OpFCmp:
				fr.vals[in] = ip.evalFCmp(fr, in)
			case OpSelect:
				if ip.eval(fr, in.Args[0])&1 != 0 {
					ip.assign(fr, in, in.Args[1])
				} else {
					ip.assign(fr, in, in.Args[2])
				}
			case OpCall:
				var callee *Func
				switch c := in.Args[0].(type) {
				case *Func:
					callee = c
				default:
					callee = ip.funcAt(ip.eval(fr, in.Args[0]))
				}
				if callee == nil {
					return 0, fmt.Errorf("ir interp: indirect call to unknown target")
				}
				cargs := make([]uint64, len(in.Args)-1)
				for k, a := range in.Args[1:] {
					cargs[k] = ip.eval(fr, a)
				}
				r, err := ip.call(callee, cargs)
				if err != nil {
					return 0, err
				}
				if !IsVoid(in.Ty) {
					fr.vals[in] = r
				}
			case OpRet:
				if len(in.Args) == 1 {
					return ip.eval(fr, in.Args[0]), nil
				}
				return 0, nil
			case OpBr:
				next = in.Blocks[0]
			case OpCondBr:
				if ip.eval(fr, in.Args[0])&1 != 0 {
					next = in.Blocks[0]
				} else {
					next = in.Blocks[1]
				}
			case OpUnreachable:
				return 0, fmt.Errorf("ir interp: reached unreachable in @%s", f.Name)
			case OpExtractElement:
				lanes := ip.evalVec(fr, in.Args[0])
				idx := ip.eval(fr, in.Args[1])
				fr.vals[in] = lanes[idx]
			case OpInsertElement:
				lanes := append([]uint64(nil), ip.evalVec(fr, in.Args[0])...)
				idx := ip.eval(fr, in.Args[2])
				lanes[idx] = ip.eval(fr, in.Args[1])
				fr.vecs[in] = lanes
			default:
				if IsBinaryOp(in.Op) {
					fr.vals[in] = ip.evalBin(fr, in)
				} else if IsCast(in.Op) {
					ip.evalCast(fr, in)
				} else {
					return 0, fmt.Errorf("ir interp: unhandled op %s", in.Op)
				}
			}
		}
		if next == nil {
			return 0, fmt.Errorf("ir interp: block %%%s fell through", blk.Name)
		}
		prev, blk = blk, next
	}
}

func (ip *Interp) assign(fr *frame, dst *Instr, src Value) {
	if IsVector(dst.Ty) {
		fr.vecs[dst] = ip.evalVec(fr, src)
	} else {
		fr.vals[dst] = ip.eval(fr, src)
	}
}

// eval returns the scalar payload of v.
func (ip *Interp) eval(fr *frame, v Value) uint64 {
	switch c := v.(type) {
	case *ConstInt:
		return uint64(c.V)
	case *ConstFloat:
		if c.Ty.Bits == 32 {
			return uint64(math.Float32bits(float32(c.V)))
		}
		return math.Float64bits(c.V)
	case *ConstNull:
		return 0
	case *Undef:
		return 0
	case *Global:
		return ip.globalAddr[c.Name]
	case *Func:
		return ip.funcValue(c)
	}
	if x, ok := fr.vals[v]; ok {
		return x
	}
	panic(fmt.Sprintf("ir interp: no value for %s", v.Ref()))
}

func (ip *Interp) evalVec(fr *frame, v Value) []uint64 {
	if lanes, ok := fr.vecs[v]; ok {
		return lanes
	}
	if u, ok := v.(*Undef); ok {
		vt := u.Ty.(*VectorType)
		return make([]uint64, vt.Len)
	}
	panic(fmt.Sprintf("ir interp: no vector value for %s", v.Ref()))
}

func (ip *Interp) evalGEP(fr *frame, in *Instr) uint64 {
	addr := ip.eval(fr, in.Args[0])
	t := in.Elem
	for k, idxv := range in.Args[1:] {
		idx := int64(ip.eval(fr, idxv))
		idx = truncSigned(idx, IntBits(idxv.Type()))
		if k == 0 {
			addr += uint64(idx * int64(t.Size()))
			continue
		}
		at, ok := t.(*ArrayType)
		if !ok {
			panic("ir interp: GEP through non-array")
		}
		t = at.Elem
		addr += uint64(idx * int64(t.Size()))
	}
	return addr
}

func truncU(v uint64, size int) uint64 {
	if size >= 8 {
		return v
	}
	return v & (1<<(uint(size)*8) - 1)
}

func (ip *Interp) evalBin(fr *frame, in *Instr) uint64 {
	a := ip.eval(fr, in.Args[0])
	b := ip.eval(fr, in.Args[1])
	bits := IntBits(in.Ty)
	if ft, ok := in.Ty.(*FloatType); ok {
		if ft.Bits == 32 {
			x, y := float64(math.Float32frombits(uint32(a))), float64(math.Float32frombits(uint32(b)))
			return uint64(math.Float32bits(float32(fbin(in.Op, x, y))))
		}
		x, y := math.Float64frombits(a), math.Float64frombits(b)
		return math.Float64bits(fbin(in.Op, x, y))
	}
	mask := uint64(1)<<uint(bits) - 1
	if bits >= 64 {
		mask = ^uint64(0)
	}
	au, bu := a&mask, b&mask
	as := truncSigned(int64(a), bits)
	bs := truncSigned(int64(b), bits)
	var r uint64
	switch in.Op {
	case OpAdd:
		r = au + bu
	case OpSub:
		r = au - bu
	case OpMul:
		r = au * bu
	case OpSDiv:
		if bs == 0 {
			panic("ir interp: sdiv by zero")
		}
		r = uint64(as / bs)
	case OpUDiv:
		if bu == 0 {
			panic("ir interp: udiv by zero")
		}
		r = au / bu
	case OpSRem:
		if bs == 0 {
			panic("ir interp: srem by zero")
		}
		r = uint64(as % bs)
	case OpURem:
		if bu == 0 {
			panic("ir interp: urem by zero")
		}
		r = au % bu
	case OpAnd:
		r = au & bu
	case OpOr:
		r = au | bu
	case OpXor:
		r = au ^ bu
	case OpShl:
		r = au << (bu & 63)
	case OpLShr:
		r = au >> (bu & 63)
	case OpAShr:
		r = uint64(as >> (bu & 63))
	default:
		panic("ir interp: bad binary op")
	}
	return r & mask
}

func fbin(op Op, x, y float64) float64 {
	switch op {
	case OpFAdd:
		return x + y
	case OpFSub:
		return x - y
	case OpFMul:
		return x * y
	case OpFDiv:
		return x / y
	}
	panic("ir interp: bad float op")
}

func (ip *Interp) evalICmp(fr *frame, in *Instr) uint64 {
	bits := 64
	if it, ok := in.Args[0].Type().(*IntType); ok {
		bits = it.Bits
	}
	a := ip.eval(fr, in.Args[0])
	b := ip.eval(fr, in.Args[1])
	mask := ^uint64(0)
	if bits < 64 {
		mask = 1<<uint(bits) - 1
	}
	au, bu := a&mask, b&mask
	as := truncSigned(int64(a), bits)
	bs := truncSigned(int64(b), bits)
	var r bool
	switch in.Pred {
	case PredEQ:
		r = au == bu
	case PredNE:
		r = au != bu
	case PredSLT:
		r = as < bs
	case PredSLE:
		r = as <= bs
	case PredSGT:
		r = as > bs
	case PredSGE:
		r = as >= bs
	case PredULT:
		r = au < bu
	case PredULE:
		r = au <= bu
	case PredUGT:
		r = au > bu
	case PredUGE:
		r = au >= bu
	default:
		panic("ir interp: bad icmp pred")
	}
	if r {
		return 1
	}
	return 0
}

func (ip *Interp) evalFCmp(fr *frame, in *Instr) uint64 {
	toF := func(v Value) float64 {
		bits := ip.eval(fr, v)
		if ft := v.Type().(*FloatType); ft.Bits == 32 {
			return float64(math.Float32frombits(uint32(bits)))
		}
		return math.Float64frombits(bits)
	}
	x, y := toF(in.Args[0]), toF(in.Args[1])
	var r bool
	switch in.Pred {
	case PredOEQ:
		r = x == y
	case PredONE:
		r = x != y && !math.IsNaN(x) && !math.IsNaN(y)
	case PredOLT:
		r = x < y
	case PredOLE:
		r = x <= y
	case PredOGT:
		r = x > y
	case PredOGE:
		r = x >= y
	case PredUNO:
		r = math.IsNaN(x) || math.IsNaN(y)
	default:
		panic("ir interp: bad fcmp pred")
	}
	if r {
		return 1
	}
	return 0
}

func (ip *Interp) evalCast(fr *frame, in *Instr) {
	if IsVector(in.Ty) || IsVector(in.Args[0].Type()) {
		ip.evalVectorCast(fr, in)
		return
	}
	a := ip.eval(fr, in.Args[0])
	switch in.Op {
	case OpTrunc:
		fr.vals[in] = truncU(a, in.Ty.Size())
	case OpZext:
		fr.vals[in] = truncU(a, in.Args[0].Type().Size())
	case OpSext:
		fr.vals[in] = uint64(truncSigned(int64(a), IntBits(in.Args[0].Type())))
	case OpBitcast, OpIntToPtr, OpPtrToInt:
		fr.vals[in] = a
	case OpSIToFP:
		s := truncSigned(int64(a), IntBits(in.Args[0].Type()))
		if ft := in.Ty.(*FloatType); ft.Bits == 32 {
			fr.vals[in] = uint64(math.Float32bits(float32(s)))
		} else {
			fr.vals[in] = math.Float64bits(float64(s))
		}
	case OpFPToSI:
		var f float64
		if ft := in.Args[0].Type().(*FloatType); ft.Bits == 32 {
			f = float64(math.Float32frombits(uint32(a)))
		} else {
			f = math.Float64frombits(a)
		}
		fr.vals[in] = uint64(int64(f))
	case OpFPExt:
		fr.vals[in] = math.Float64bits(float64(math.Float32frombits(uint32(a))))
	case OpFPTrunc:
		fr.vals[in] = uint64(math.Float32bits(float32(math.Float64frombits(a))))
	default:
		panic("ir interp: bad cast")
	}
}

// evalVectorCast handles bitcasts between scalars and vectors and between
// vector shapes, following the SSE lifting rules of §4.2.2.
func (ip *Interp) evalVectorCast(fr *frame, in *Instr) {
	if in.Op != OpBitcast {
		panic("ir interp: only bitcast supported on vectors")
	}
	src := in.Args[0].Type()
	// Gather source bytes.
	var buf [64]byte
	if vt, ok := src.(*VectorType); ok {
		lanes := ip.evalVec(fr, in.Args[0])
		es := vt.Elem.Size()
		for k, l := range lanes {
			putLE(buf[k*es:], l, es)
		}
	} else {
		putLE(buf[:], ip.eval(fr, in.Args[0]), src.Size())
	}
	// Scatter into destination shape.
	if vt, ok := in.Ty.(*VectorType); ok {
		es := vt.Elem.Size()
		lanes := make([]uint64, vt.Len)
		for k := range lanes {
			lanes[k] = getLE(buf[k*es:], es)
		}
		fr.vecs[in] = lanes
	} else {
		fr.vals[in] = getLE(buf[:], in.Ty.Size())
	}
}

func putLE(b []byte, v uint64, size int) {
	for i := 0; i < size; i++ {
		b[i] = byte(v >> (8 * uint(i)))
	}
}

func getLE(b []byte, size int) uint64 {
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(b[i]) << (8 * uint(i))
	}
	return v
}
