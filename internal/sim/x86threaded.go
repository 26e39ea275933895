package sim

import (
	"fmt"
	"math"
	"math/bits"

	"lasagne/internal/x86"
)

// The x86-64 uop compiler: the simulator's only x86 instruction semantics,
// under the same contract as the arm64 one. Effective addresses are
// resolved to closures at compile time (RIP-relative folds to a constant),
// operand widths select size-specialized memory fast paths, and per-op
// cycle costs are precomputed. Hot shapes get specialized closures; every
// other shape the decoder produces gets a general closure built from
// compiled operand accessors.

func isGP(r x86.Reg) bool { return r >= x86.RAX && r <= x86.R15 }

// x86RdF compiles a GP register read at a width (mirrors readReg).
func x86RdF(r x86.Reg, size int) func(*x86CPU) uint64 {
	if size == 8 {
		return func(c *x86CPU) uint64 { return c.regs[r] }
	}
	m := maskFor(size)
	return func(c *x86CPU) uint64 { return c.regs[r] & m }
}

// x86WrF compiles a GP register write at a width (mirrors writeReg:
// 32-bit writes zero the upper half, 8/16-bit writes merge).
func x86WrF(r x86.Reg, size int) func(*x86CPU, uint64) {
	switch size {
	case 8:
		return func(c *x86CPU, v uint64) { c.regs[r] = v }
	case 4:
		return func(c *x86CPU, v uint64) { c.regs[r] = v & 0xFFFFFFFF }
	default:
		m := maskFor(size)
		return func(c *x86CPU, v uint64) { c.regs[r] = c.regs[r]&^m | v&m }
	}
}

// x86EAF compiles an effective-address computation (mirrors effAddr).
func x86EAF(in x86.Inst, mem x86.Mem) func(*x86CPU) uint64 {
	if mem.Base == x86.RIP {
		a := in.Addr + uint64(in.Len) + uint64(int64(mem.Disp))
		return func(*x86CPU) uint64 { return a }
	}
	disp := uint64(int64(mem.Disp))
	b, ix, sc := mem.Base, mem.Index, uint64(mem.Scale)
	switch {
	case b != x86.RegNone && ix == x86.RegNone:
		return func(c *x86CPU) uint64 { return c.regs[b] + disp }
	case b == x86.RegNone && ix != x86.RegNone:
		return func(c *x86CPU) uint64 { return c.regs[ix]*sc + disp }
	case b == x86.RegNone && ix == x86.RegNone:
		return func(*x86CPU) uint64 { return disp }
	default:
		return func(c *x86CPU) uint64 { return c.regs[b] + c.regs[ix]*sc + disp }
	}
}

// x86OpF compiles a read of operand o at a width: a GP register, an
// immediate (masked to the width), or memory.
func x86OpF(in x86.Inst, o x86.Operand, size int) func(*x86CPU) (uint64, error) {
	switch o.Kind {
	case x86.KindImm:
		v := uint64(o.Imm) & maskFor(size)
		return func(*x86CPU) (uint64, error) { return v, nil }
	case x86.KindMem:
		ea, ld := x86EAF(in, o.Mem), loadFn(size)
		return func(c *x86CPU) (uint64, error) { return ld(c.m, ea(c)) }
	}
	rd := x86RdF(o.Reg, size)
	return func(c *x86CPU) (uint64, error) { return rd(c), nil }
}

// x86SetF compiles a write of operand o (a GP register or memory).
func x86SetF(in x86.Inst, o x86.Operand, size int) func(*x86CPU, uint64) error {
	if o.Kind == x86.KindMem {
		ea, st := x86EAF(in, o.Mem), storeFn(size)
		return func(c *x86CPU, v uint64) error { return st(c.m, ea(c), v) }
	}
	wr := x86WrF(o.Reg, size)
	return func(c *x86CPU, v uint64) error { wr(c, v); return nil }
}

// x86Unhandled reports an op the decoder never produces.
func x86Unhandled(in x86.Inst) x86Uop {
	op, addr := in.Op, in.Addr
	return func(c *x86CPU) error {
		c.icount++
		return fmt.Errorf("sim: unhandled x86 op %s at %#x", op, addr)
	}
}

// gpOnly reports whether every register mentioned by the operands is a
// plain GP register (no XMM), so the GP fast paths are safe.
func gpOnly(ops []x86.Operand) bool {
	for _, o := range ops {
		if o.Kind == x86.KindReg && !isGP(o.Reg) {
			return false
		}
	}
	return true
}

func compileX86Uop(in x86.Inst) x86Uop {
	next := in.Addr + uint64(in.Len)
	size := in.Size
	if size == 0 {
		size = 8
	}
	// Base cost: a memory operand makes it CostMem, a LOCK prefix adds
	// CostLock; some ops override it.
	cost := int64(CostALU)
	if memTouched(in.Ops) {
		cost = CostMem
	}
	if in.Lock {
		cost += CostLock
	}
	if !gpOnly(in.Ops) {
		// Shapes touching XMM registers get their own compilers.
		return compileX86SSEAny(in, next, cost)
	}

	done := func(c *x86CPU) {
		c.rip = next
		c.clock += cost
	}

	switch in.Op {
	case x86.NOP:
		return func(c *x86CPU) error {
			c.icount++
			done(c)
			return nil
		}

	case x86.UD2:
		addr := in.Addr
		return func(c *x86CPU) error {
			c.icount++
			return fmt.Errorf("sim: ud2 executed at %#x", addr)
		}

	case x86.MFENCE:
		return func(c *x86CPU) error {
			c.icount++
			c.rip = next
			c.clock += CostMFENCE
			return nil
		}

	case x86.MOV:
		dst, src := in.Ops[0], in.Ops[1]
		switch {
		case dst.Kind == x86.KindReg && src.Kind == x86.KindReg:
			wr := x86WrF(dst.Reg, size)
			rd := x86RdF(src.Reg, size)
			return func(c *x86CPU) error {
				c.icount++
				wr(c, rd(c))
				done(c)
				return nil
			}
		case dst.Kind == x86.KindReg && src.Kind == x86.KindImm:
			wr := x86WrF(dst.Reg, size)
			v := uint64(src.Imm) & maskFor(size)
			return func(c *x86CPU) error {
				c.icount++
				wr(c, v)
				done(c)
				return nil
			}
		case dst.Kind == x86.KindReg && src.Kind == x86.KindMem:
			wr := x86WrF(dst.Reg, size)
			ea := x86EAF(in, src.Mem)
			ld := loadFn(size)
			return func(c *x86CPU) error {
				c.icount++
				v, err := ld(c.m, ea(c))
				if err != nil {
					return err
				}
				wr(c, v)
				done(c)
				return nil
			}
		case dst.Kind == x86.KindMem && src.Kind == x86.KindReg:
			rd := x86RdF(src.Reg, size)
			ea := x86EAF(in, dst.Mem)
			st := storeFn(size)
			return func(c *x86CPU) error {
				c.icount++
				if err := st(c.m, ea(c), rd(c)); err != nil {
					return err
				}
				done(c)
				return nil
			}
		case dst.Kind == x86.KindMem && src.Kind == x86.KindImm:
			ea := x86EAF(in, dst.Mem)
			st := storeFn(size)
			v := uint64(src.Imm) & maskFor(size)
			return func(c *x86CPU) error {
				c.icount++
				if err := st(c.m, ea(c), v); err != nil {
					return err
				}
				done(c)
				return nil
			}
		}

	case x86.MOVZX:
		if in.Ops[1].Kind == x86.KindReg {
			rd := x86RdF(in.Ops[1].Reg, in.SrcSize)
			wr := x86WrF(in.Ops[0].Reg, size)
			return func(c *x86CPU) error {
				c.icount++
				wr(c, rd(c))
				done(c)
				return nil
			}
		}
		if in.Ops[1].Kind == x86.KindMem {
			ea := x86EAF(in, in.Ops[1].Mem)
			ld := loadFn(in.SrcSize)
			wr := x86WrF(in.Ops[0].Reg, size)
			return func(c *x86CPU) error {
				c.icount++
				v, err := ld(c.m, ea(c))
				if err != nil {
					return err
				}
				wr(c, v)
				done(c)
				return nil
			}
		}

	case x86.MOVSX, x86.MOVSXD:
		src := in.SrcSize
		sh := 64 - uint(src)*8
		wr := x86WrF(in.Ops[0].Reg, size)
		if in.Ops[1].Kind == x86.KindReg {
			rd := x86RdF(in.Ops[1].Reg, src)
			return func(c *x86CPU) error {
				c.icount++
				wr(c, uint64(int64(rd(c))<<sh>>sh))
				done(c)
				return nil
			}
		}
		if in.Ops[1].Kind == x86.KindMem {
			ea := x86EAF(in, in.Ops[1].Mem)
			ld := loadFn(src)
			return func(c *x86CPU) error {
				c.icount++
				v, err := ld(c.m, ea(c))
				if err != nil {
					return err
				}
				wr(c, uint64(int64(v)<<sh>>sh))
				done(c)
				return nil
			}
		}

	case x86.LEA:
		ea := x86EAF(in, in.Ops[1].Mem)
		wr := x86WrF(in.Ops[0].Reg, size)
		return func(c *x86CPU) error {
			c.icount++
			wr(c, ea(c))
			c.rip = next
			c.clock += CostALU
			return nil
		}

	case x86.ADD, x86.SUB, x86.AND, x86.OR, x86.XOR, x86.CMP:
		dst, src := in.Ops[0], in.Ops[1]
		if dst.Kind != x86.KindReg || (src.Kind != x86.KindReg && src.Kind != x86.KindImm) {
			// Memory shapes: read both operands, set flags, then write
			// back (CMP does not); a fault stops at the failing access.
			rdA, rdB, wrA := x86OpF(in, dst, size), x86OpF(in, src, size), x86SetF(in, dst, size)
			op, sz, msk := in.Op, size, maskFor(size)
			return func(c *x86CPU) error {
				c.icount++
				a, err := rdA(c)
				if err != nil {
					return err
				}
				b, err := rdB(c)
				if err != nil {
					return err
				}
				var res uint64
				switch op {
				case x86.ADD:
					res = a + b
					c.setAddFlags(a, b, res, sz)
				case x86.SUB, x86.CMP:
					res = a - b
					c.setSubFlags(a, b, res, sz)
				case x86.AND:
					res = a & b
					c.setLogicFlags(res, sz)
				case x86.OR:
					res = a | b
					c.setLogicFlags(res, sz)
				case x86.XOR:
					res = a ^ b
					c.setLogicFlags(res, sz)
				}
				if op != x86.CMP {
					if err := wrA(c, res&msk); err != nil {
						return err
					}
				}
				done(c)
				return nil
			}
		}
		rdA := x86RdF(dst.Reg, size)
		var rdB func(*x86CPU) uint64
		if src.Kind == x86.KindReg {
			rdB = x86RdF(src.Reg, size)
		} else {
			v := uint64(src.Imm) & maskFor(size)
			rdB = func(*x86CPU) uint64 { return v }
		}
		wr := x86WrF(dst.Reg, size)
		op, sz, msk := in.Op, size, maskFor(size)
		return func(c *x86CPU) error {
			c.icount++
			a, b := rdA(c), rdB(c)
			var res uint64
			switch op {
			case x86.ADD:
				res = a + b
				c.setAddFlags(a, b, res, sz)
			case x86.SUB, x86.CMP:
				res = a - b
				c.setSubFlags(a, b, res, sz)
			case x86.AND:
				res = a & b
				c.setLogicFlags(res, sz)
			case x86.OR:
				res = a | b
				c.setLogicFlags(res, sz)
			case x86.XOR:
				res = a ^ b
				c.setLogicFlags(res, sz)
			}
			if op != x86.CMP {
				wr(c, res&msk)
			}
			done(c)
			return nil
		}

	case x86.TEST:
		a, b := in.Ops[0], in.Ops[1]
		if a.Kind != x86.KindReg || (b.Kind != x86.KindReg && b.Kind != x86.KindImm) {
			rdA, rdB, sz := x86OpF(in, a, size), x86OpF(in, b, size), size
			return func(c *x86CPU) error {
				c.icount++
				va, err := rdA(c)
				if err != nil {
					return err
				}
				vb, err := rdB(c)
				if err != nil {
					return err
				}
				c.setLogicFlags(va&vb, sz)
				done(c)
				return nil
			}
		}
		rdA := x86RdF(a.Reg, size)
		var rdB func(*x86CPU) uint64
		if b.Kind == x86.KindReg {
			rdB = x86RdF(b.Reg, size)
		} else {
			v := uint64(b.Imm) & maskFor(size)
			rdB = func(*x86CPU) uint64 { return v }
		}
		sz := size
		return func(c *x86CPU) error {
			c.icount++
			c.setLogicFlags(rdA(c)&rdB(c), sz)
			done(c)
			return nil
		}

	case x86.IMUL:
		mulCost := cost + 2
		if len(in.Ops) == 2 && in.Ops[0].Kind == x86.KindReg {
			rdA := x86RdF(in.Ops[0].Reg, size)
			wr := x86WrF(in.Ops[0].Reg, size)
			switch in.Ops[1].Kind {
			case x86.KindReg:
				rdB := x86RdF(in.Ops[1].Reg, size)
				return func(c *x86CPU) error {
					c.icount++
					wr(c, rdA(c)*rdB(c))
					c.rip = next
					c.clock += mulCost
					return nil
				}
			case x86.KindImm:
				v := uint64(in.Ops[1].Imm) & maskFor(size)
				return func(c *x86CPU) error {
					c.icount++
					wr(c, rdA(c)*v)
					c.rip = next
					c.clock += mulCost
					return nil
				}
			case x86.KindMem:
				ea := x86EAF(in, in.Ops[1].Mem)
				ld := loadFn(size)
				return func(c *x86CPU) error {
					c.icount++
					b, err := ld(c.m, ea(c))
					if err != nil {
						return err
					}
					wr(c, rdA(c)*b)
					c.rip = next
					c.clock += mulCost
					return nil
				}
			}
		}
		if len(in.Ops) == 3 && in.Ops[0].Kind == x86.KindReg && in.Ops[2].Kind == x86.KindImm {
			wr := x86WrF(in.Ops[0].Reg, size)
			// The 3-op form multiplies by the raw (unmasked) immediate.
			imm := uint64(in.Ops[2].Imm)
			switch in.Ops[1].Kind {
			case x86.KindReg:
				rdB := x86RdF(in.Ops[1].Reg, size)
				return func(c *x86CPU) error {
					c.icount++
					wr(c, rdB(c)*imm)
					c.rip = next
					c.clock += mulCost
					return nil
				}
			case x86.KindMem:
				ea := x86EAF(in, in.Ops[1].Mem)
				ld := loadFn(size)
				return func(c *x86CPU) error {
					c.icount++
					b, err := ld(c.m, ea(c))
					if err != nil {
						return err
					}
					wr(c, b*imm)
					c.rip = next
					c.clock += mulCost
					return nil
				}
			}
		}

	case x86.IMUL1, x86.MUL1:
		// Both compute the unsigned 128-bit product (RDX is approximate
		// for signed and sub-64-bit widths).
		rdV, sz, mulCost := x86OpF(in, in.Ops[0], size), size, cost+2
		return func(c *x86CPU) error {
			c.icount++
			v, err := rdV(c)
			if err != nil {
				return err
			}
			hi, lo := bits.Mul64(c.readReg(x86.RAX, sz), v)
			c.writeReg(x86.RAX, sz, lo)
			c.writeReg(x86.RDX, sz, hi)
			c.rip = next
			c.clock += mulCost
			return nil
		}

	case x86.DIV:
		rdV, sz, addr := x86OpF(in, in.Ops[0], size), size, in.Addr
		return func(c *x86CPU) error {
			c.icount++
			v, err := rdV(c)
			if err != nil {
				return err
			}
			if v == 0 {
				return fmt.Errorf("sim: integer divide by zero at %#x", addr)
			}
			n := c.readReg(x86.RAX, sz)
			c.writeReg(x86.RAX, sz, n/v)
			c.writeReg(x86.RDX, sz, n%v)
			c.rip = next
			c.clock += CostDiv
			return nil
		}

	case x86.NEG, x86.NOT:
		rd, wr := x86OpF(in, in.Ops[0], size), x86SetF(in, in.Ops[0], size)
		neg, sz, msk := in.Op == x86.NEG, size, maskFor(size)
		return func(c *x86CPU) error {
			c.icount++
			v, err := rd(c)
			if err != nil {
				return err
			}
			res := ^v
			if neg {
				res = -v
				c.setSubFlags(0, v, res, sz)
			}
			if err := wr(c, res&msk); err != nil {
				return err
			}
			done(c)
			return nil
		}

	case x86.IDIV:
		sz := size
		sh := 64 - uint(sz)*8
		rdV := x86OpF(in, in.Ops[0], sz)
		addr := in.Addr
		return func(c *x86CPU) error {
			c.icount++
			v, err := rdV(c)
			if err != nil {
				return err
			}
			d := int64(v) << sh >> sh
			if d == 0 {
				return fmt.Errorf("sim: integer divide by zero at %#x", addr)
			}
			var n int64
			if sz == 8 {
				n = int64(c.regs[x86.RAX]) // RDX:RAX approximated by RAX (codegen sign-extends)
			} else {
				n = int64(c.readReg(x86.RAX, sz)) << sh >> sh
			}
			c.writeReg(x86.RAX, sz, uint64(n/d))
			c.writeReg(x86.RDX, sz, uint64(n%d))
			c.rip = next
			c.clock += CostDiv
			return nil
		}

	case x86.SHL, x86.SHR, x86.SAR:
		var cntF func(*x86CPU) uint64
		if in.Ops[1].Kind == x86.KindImm {
			cnt := uint64(in.Ops[1].Imm)
			cntF = func(*x86CPU) uint64 { return cnt }
		} else {
			cntF = func(c *x86CPU) uint64 { return c.regs[x86.RCX] }
		}
		op, sz, msk := in.Op, size, maskFor(size)
		shIn := 64 - uint(size)*8
		if in.Ops[0].Kind != x86.KindReg {
			rdM, wrM := x86OpF(in, in.Ops[0], size), x86SetF(in, in.Ops[0], size)
			return func(c *x86CPU) error {
				c.icount++
				v, err := rdM(c)
				if err != nil {
					return err
				}
				cnt := cntF(c) & 63
				if sz != 8 {
					cnt &= 31
				}
				var res uint64
				switch op {
				case x86.SHL:
					res = v << cnt
				case x86.SHR:
					res = (v & msk) >> cnt
				default:
					res = uint64(int64(v) << shIn >> shIn >> cnt)
				}
				if cnt != 0 {
					c.setLogicFlags(res, sz)
				}
				if err := wrM(c, res&msk); err != nil {
					return err
				}
				done(c)
				return nil
			}
		}
		rd := x86RdF(in.Ops[0].Reg, size)
		wr := x86WrF(in.Ops[0].Reg, size)
		return func(c *x86CPU) error {
			c.icount++
			v := rd(c)
			cnt := cntF(c)
			if sz == 8 {
				cnt &= 63
			} else {
				cnt &= 31
			}
			var res uint64
			switch op {
			case x86.SHL:
				res = v << cnt
			case x86.SHR:
				res = (v & msk) >> cnt
			default:
				res = uint64(int64(v) << shIn >> shIn >> cnt)
			}
			if cnt != 0 {
				c.setLogicFlags(res, sz)
			}
			wr(c, res&msk)
			done(c)
			return nil
		}

	case x86.CQO:
		return func(c *x86CPU) error {
			c.icount++
			if int64(c.regs[x86.RAX]) < 0 {
				c.regs[x86.RDX] = ^uint64(0)
			} else {
				c.regs[x86.RDX] = 0
			}
			done(c)
			return nil
		}

	case x86.CDQ:
		return func(c *x86CPU) error {
			c.icount++
			if int32(c.regs[x86.RAX]) < 0 {
				c.regs[x86.RDX] = 0xFFFFFFFF
			} else {
				c.regs[x86.RDX] = 0
			}
			done(c)
			return nil
		}

	case x86.PUSH:
		if in.Ops[0].Kind == x86.KindReg {
			r := in.Ops[0].Reg
			return func(c *x86CPU) error {
				c.icount++
				v := c.regs[r] // read first: PUSH RSP stores the old value
				c.regs[x86.RSP] -= 8
				if !c.m.Mem.Store8(c.regs[x86.RSP], v) {
					if err := c.m.store(c.regs[x86.RSP], 8, v); err != nil {
						return err
					}
				}
				c.rip = next
				c.clock += CostMem
				return nil
			}
		}
		if in.Ops[0].Kind == x86.KindImm {
			v := uint64(in.Ops[0].Imm)
			return func(c *x86CPU) error {
				c.icount++
				c.regs[x86.RSP] -= 8
				if !c.m.Mem.Store8(c.regs[x86.RSP], v) {
					if err := c.m.store(c.regs[x86.RSP], 8, v); err != nil {
						return err
					}
				}
				c.rip = next
				c.clock += CostMem
				return nil
			}
		}
		rdM := x86OpF(in, in.Ops[0], 8)
		return func(c *x86CPU) error {
			c.icount++
			v, err := rdM(c)
			if err != nil {
				return err
			}
			c.regs[x86.RSP] -= 8
			if !c.m.Mem.Store8(c.regs[x86.RSP], v) {
				if err := c.m.store(c.regs[x86.RSP], 8, v); err != nil {
					return err
				}
			}
			c.rip = next
			c.clock += CostMem
			return nil
		}

	case x86.POP:
		r := in.Ops[0].Reg
		return func(c *x86CPU) error {
			c.icount++
			v, err := c.m.load8(c.regs[x86.RSP])
			c.regs[x86.RSP] += 8
			if err != nil {
				return err
			}
			c.regs[r] = v
			c.rip = next
			c.clock += CostMem
			return nil
		}

	case x86.XADD:
		if in.Ops[0].Kind == x86.KindMem && in.Ops[1].Kind == x86.KindReg {
			ea := x86EAF(in, in.Ops[0].Mem)
			ld := loadFn(size)
			st := storeFn(size)
			rdS := x86RdF(in.Ops[1].Reg, size)
			wrS := x86WrF(in.Ops[1].Reg, size)
			sz, msk := size, maskFor(size)
			return func(c *x86CPU) error {
				c.icount++
				addr := ea(c)
				dst, err := ld(c.m, addr)
				if err != nil {
					return err
				}
				src := rdS(c)
				res := dst + src
				c.setAddFlags(dst, src, res, sz)
				if err := st(c.m, addr, res&msk); err != nil {
					return err
				}
				wrS(c, dst)
				done(c)
				return nil
			}
		}
		fallthrough

	case x86.XCHG, x86.CMPXCHG:
		// Register destinations (and XADD's) read, update and write back
		// through operand accessors. XCHG with memory is implicitly locked.
		rdD, wrD := x86OpF(in, in.Ops[0], size), x86SetF(in, in.Ops[0], size)
		rdS, wrS := x86RdF(in.Ops[1].Reg, size), x86WrF(in.Ops[1].Reg, size)
		op, sz, msk, opCost := in.Op, size, maskFor(size), cost
		if op == x86.XCHG && in.Ops[0].Kind == x86.KindMem {
			opCost = CostMem + CostLock
		}
		return func(c *x86CPU) error {
			c.icount++
			dst, err := rdD(c)
			if err != nil {
				return err
			}
			switch op {
			case x86.XCHG:
				if err := wrD(c, rdS(c)); err != nil {
					return err
				}
				wrS(c, dst)
			case x86.CMPXCHG:
				acc := c.readReg(x86.RAX, sz)
				c.setSubFlags(acc, dst, acc-dst, sz)
				if acc != dst {
					c.writeReg(x86.RAX, sz, dst)
				} else if err := wrD(c, rdS(c)); err != nil {
					return err
				}
			default: // XADD
				src := rdS(c)
				res := dst + src
				c.setAddFlags(dst, src, res, sz)
				if err := wrD(c, res&msk); err != nil {
					return err
				}
				wrS(c, dst)
			}
			c.rip = next
			c.clock += opCost
			return nil
		}

	case x86.JMP:
		if in.Ops[0].Kind == x86.KindImm {
			target := uint64(in.Ops[0].Imm)
			return func(c *x86CPU) error {
				c.icount++
				c.rip = target
				c.clock += CostBranch
				return nil
			}
		}
		if in.Ops[0].Kind == x86.KindReg {
			r := in.Ops[0].Reg
			return func(c *x86CPU) error {
				c.icount++
				c.rip = c.regs[r]
				c.clock += CostBranch
				return nil
			}
		}
		rdM := x86OpF(in, in.Ops[0], 8)
		return func(c *x86CPU) error {
			c.icount++
			v, err := rdM(c)
			if err != nil {
				return err
			}
			c.rip = v
			c.clock += CostBranch
			return nil
		}

	case x86.JCC:
		cc := in.Cond
		target := uint64(in.Ops[0].Imm)
		return func(c *x86CPU) error {
			c.icount++
			if c.cond(cc) {
				c.rip = target
			} else {
				c.rip = next
			}
			c.clock += CostBranch
			return nil
		}

	case x86.CALL:
		if in.Ops[0].Kind == x86.KindImm {
			target := uint64(in.Ops[0].Imm)
			return func(c *x86CPU) error {
				c.icount++
				c.regs[x86.RSP] -= 8
				if !c.m.Mem.Store8(c.regs[x86.RSP], next) {
					if err := c.m.store(c.regs[x86.RSP], 8, next); err != nil {
						return err
					}
				}
				c.rip = target
				c.clock += CostCall
				return nil
			}
		}
		if in.Ops[0].Kind == x86.KindReg {
			r := in.Ops[0].Reg
			return func(c *x86CPU) error {
				c.icount++
				target := c.regs[r]
				c.regs[x86.RSP] -= 8
				if !c.m.Mem.Store8(c.regs[x86.RSP], next) {
					if err := c.m.store(c.regs[x86.RSP], 8, next); err != nil {
						return err
					}
				}
				c.rip = target
				c.clock += CostCall
				return nil
			}
		}
		rdM := x86OpF(in, in.Ops[0], 8)
		return func(c *x86CPU) error {
			c.icount++
			target, err := rdM(c)
			if err != nil {
				return err
			}
			c.regs[x86.RSP] -= 8
			if !c.m.Mem.Store8(c.regs[x86.RSP], next) {
				if err := c.m.store(c.regs[x86.RSP], 8, next); err != nil {
					return err
				}
			}
			c.rip = target
			c.clock += CostCall
			return nil
		}

	case x86.RET:
		return func(c *x86CPU) error {
			c.icount++
			v, err := c.m.load8(c.regs[x86.RSP])
			c.regs[x86.RSP] += 8
			if err != nil {
				return err
			}
			c.clock += CostBranch + CostMem
			if v == sentinel {
				c.done = true
				return nil
			}
			c.rip = v
			return nil
		}

	case x86.SETCC:
		if in.Ops[0].Kind == x86.KindReg {
			wr := x86WrF(in.Ops[0].Reg, 1)
			cc := in.Cond
			return func(c *x86CPU) error {
				c.icount++
				v := uint64(0)
				if c.cond(cc) {
					v = 1
				}
				wr(c, v)
				done(c)
				return nil
			}
		}
		wrM, cc := x86SetF(in, in.Ops[0], 1), in.Cond
		return func(c *x86CPU) error {
			c.icount++
			v := uint64(0)
			if c.cond(cc) {
				v = 1
			}
			if err := wrM(c, v); err != nil {
				return err
			}
			done(c)
			return nil
		}

	case x86.CMOVCC:
		if in.Ops[1].Kind == x86.KindReg {
			rd := x86RdF(in.Ops[1].Reg, size)
			wr := x86WrF(in.Ops[0].Reg, size)
			cc := in.Cond
			return func(c *x86CPU) error {
				c.icount++
				if c.cond(cc) {
					wr(c, rd(c))
				}
				done(c)
				return nil
			}
		}
		// Memory source: read (and fault) only when the condition holds.
		rdM, wr, cc := x86OpF(in, in.Ops[1], size), x86WrF(in.Ops[0].Reg, size), in.Cond
		return func(c *x86CPU) error {
			c.icount++
			if c.cond(cc) {
				v, err := rdM(c)
				if err != nil {
					return err
				}
				wr(c, v)
			}
			done(c)
			return nil
		}
	}

	// SSE ops without an XMM operand (CVTTSD2SI reg, mem).
	return compileX86SSEAny(in, next, cost)
}

// compileX86SSEAny compiles an SSE instruction, specialized if possible.
func compileX86SSEAny(in x86.Inst, next uint64, cost int64) x86Uop {
	if u := compileX86SSE(in, next, cost); u != nil {
		return u
	}
	return compileX86SSEGeneral(in, next, cost)
}

// compileX86SSE compiles the hot scalar-SSE shapes (the kernels' double
// arithmetic is MOVSD/ADDSD/MULSD-dominated), including the masked-merge
// semantics of register moves and the flag layout of UCOMISD. It returns
// nil for the shapes compileX86SSEGeneral handles.
func compileX86SSE(in x86.Inst, next uint64, cost int64) x86Uop {
	isX := func(o x86.Operand) bool { return o.Kind == x86.KindReg && o.Reg.IsXMM() }
	xi := func(o x86.Operand) int { return int(o.Reg - x86.XMM0) }
	if len(in.Ops) < 2 {
		return nil
	}
	dst, src := in.Ops[0], in.Ops[1]

	switch in.Op {
	case x86.MOVSD_X, x86.MOVSS_X:
		sz := 8
		if in.Op == x86.MOVSS_X {
			sz = 4
		}
		msk := maskFor(sz)
		switch {
		case isX(dst) && isX(src):
			d, s := xi(dst), xi(src)
			return func(c *x86CPU) error {
				c.icount++
				c.xmm[d][0] = c.xmm[d][0]&^msk | c.xmm[s][0]&msk
				c.rip = next
				c.clock += cost
				return nil
			}
		case isX(dst) && src.Kind == x86.KindMem:
			d := xi(dst)
			ea := x86EAF(in, src.Mem)
			ld := loadFn(sz)
			return func(c *x86CPU) error {
				c.icount++
				v, err := ld(c.m, ea(c))
				if err != nil {
					return err
				}
				c.xmm[d] = [2]uint64{v, 0}
				c.rip = next
				c.clock += cost
				return nil
			}
		case dst.Kind == x86.KindMem && isX(src):
			s := xi(src)
			ea := x86EAF(in, dst.Mem)
			st := storeFn(sz)
			return func(c *x86CPU) error {
				c.icount++
				if err := st(c.m, ea(c), c.xmm[s][0]&msk); err != nil {
					return err
				}
				c.rip = next
				c.clock += cost
				return nil
			}
		}

	case x86.MOVQ, x86.MOVD:
		sz := 8
		if in.Op == x86.MOVD {
			sz = 4
		}
		msk := maskFor(sz)
		switch {
		case isX(dst) && src.Kind == x86.KindReg && isGP(src.Reg):
			d := xi(dst)
			rd := x86RdF(src.Reg, sz)
			return func(c *x86CPU) error {
				c.icount++
				c.xmm[d] = [2]uint64{rd(c), 0}
				c.rip = next
				c.clock += cost
				return nil
			}
		case isX(dst) && src.Kind == x86.KindMem:
			d := xi(dst)
			ea := x86EAF(in, src.Mem)
			ld := loadFn(sz)
			return func(c *x86CPU) error {
				c.icount++
				v, err := ld(c.m, ea(c))
				if err != nil {
					return err
				}
				c.xmm[d] = [2]uint64{v, 0}
				c.rip = next
				c.clock += cost
				return nil
			}
		case dst.Kind == x86.KindReg && isGP(dst.Reg) && isX(src):
			s := xi(src)
			wr := x86WrF(dst.Reg, sz)
			return func(c *x86CPU) error {
				c.icount++
				wr(c, c.xmm[s][0]&msk)
				c.rip = next
				c.clock += cost
				return nil
			}
		case dst.Kind == x86.KindMem && isX(src):
			s := xi(src)
			ea := x86EAF(in, dst.Mem)
			st := storeFn(sz)
			return func(c *x86CPU) error {
				c.icount++
				if err := st(c.m, ea(c), c.xmm[s][0]&msk); err != nil {
					return err
				}
				c.rip = next
				c.clock += cost
				return nil
			}
		}

	case x86.ADDSD, x86.SUBSD, x86.MULSD, x86.DIVSD, x86.SQRTSD:
		if !isX(dst) {
			return nil
		}
		d := xi(dst)
		fpCost := cost + CostFP
		var f func(a, b float64) float64
		switch in.Op {
		case x86.ADDSD:
			f = func(a, b float64) float64 { return a + b }
		case x86.SUBSD:
			f = func(a, b float64) float64 { return a - b }
		case x86.MULSD:
			f = func(a, b float64) float64 { return a * b }
		case x86.DIVSD:
			f = func(a, b float64) float64 { return a / b }
		case x86.SQRTSD:
			f = func(_, b float64) float64 { return math.Sqrt(b) }
		}
		if isX(src) {
			s := xi(src)
			return func(c *x86CPU) error {
				c.icount++
				c.xmm[d][0] = math.Float64bits(
					f(math.Float64frombits(c.xmm[d][0]), math.Float64frombits(c.xmm[s][0])))
				c.rip = next
				c.clock += fpCost
				return nil
			}
		}
		if src.Kind == x86.KindMem {
			ea := x86EAF(in, src.Mem)
			return func(c *x86CPU) error {
				c.icount++
				b, err := c.m.load8(ea(c))
				if err != nil {
					return err
				}
				c.xmm[d][0] = math.Float64bits(
					f(math.Float64frombits(c.xmm[d][0]), math.Float64frombits(b)))
				c.rip = next
				c.clock += fpCost
				return nil
			}
		}

	case x86.UCOMISD:
		if !isX(dst) {
			return nil
		}
		d := xi(dst)
		fpCost := cost + CostFP
		flags := func(c *x86CPU, bv uint64) {
			a, b := math.Float64frombits(c.xmm[d][0]), math.Float64frombits(bv)
			c.of, c.sf = false, false
			switch {
			case math.IsNaN(a) || math.IsNaN(b):
				c.zf, c.pf, c.cf = true, true, true
			case a > b:
				c.zf, c.pf, c.cf = false, false, false
			case a < b:
				c.zf, c.pf, c.cf = false, false, true
			default:
				c.zf, c.pf, c.cf = true, false, false
			}
		}
		if isX(src) {
			s := xi(src)
			return func(c *x86CPU) error {
				c.icount++
				flags(c, c.xmm[s][0])
				c.rip = next
				c.clock += fpCost
				return nil
			}
		}
		if src.Kind == x86.KindMem {
			ea := x86EAF(in, src.Mem)
			return func(c *x86CPU) error {
				c.icount++
				b, err := c.m.load8(ea(c))
				if err != nil {
					return err
				}
				flags(c, b)
				c.rip = next
				c.clock += fpCost
				return nil
			}
		}

	case x86.CVTSI2SD:
		if !isX(dst) || (in.Size != 4 && in.Size != 8) {
			return nil
		}
		d := xi(dst)
		fpCost := cost + CostFP
		wide := in.Size == 8
		if src.Kind == x86.KindReg && isGP(src.Reg) {
			rd := x86RdF(src.Reg, in.Size)
			return func(c *x86CPU) error {
				c.icount++
				v := rd(c)
				s := int64(int32(v))
				if wide {
					s = int64(v)
				}
				c.xmm[d][0] = math.Float64bits(float64(s))
				c.rip = next
				c.clock += fpCost
				return nil
			}
		}
		if src.Kind == x86.KindMem {
			ea := x86EAF(in, src.Mem)
			ld := loadFn(in.Size)
			return func(c *x86CPU) error {
				c.icount++
				v, err := ld(c.m, ea(c))
				if err != nil {
					return err
				}
				s := int64(int32(v))
				if wide {
					s = int64(v)
				}
				c.xmm[d][0] = math.Float64bits(float64(s))
				c.rip = next
				c.clock += fpCost
				return nil
			}
		}

	case x86.CVTTSD2SI:
		if dst.Kind != x86.KindReg || !isGP(dst.Reg) || (in.Size != 4 && in.Size != 8) {
			return nil
		}
		wr := x86WrF(dst.Reg, in.Size)
		fpCost := cost + CostFP
		if isX(src) {
			s := xi(src)
			return func(c *x86CPU) error {
				c.icount++
				wr(c, uint64(int64(math.Float64frombits(c.xmm[s][0]))))
				c.rip = next
				c.clock += fpCost
				return nil
			}
		}
		if src.Kind == x86.KindMem {
			ea := x86EAF(in, src.Mem)
			return func(c *x86CPU) error {
				c.icount++
				b, err := c.m.load8(ea(c))
				if err != nil {
					return err
				}
				wr(c, uint64(int64(math.Float64frombits(b))))
				c.rip = next
				c.clock += fpCost
				return nil
			}
		}

	case x86.PXOR, x86.XORPS:
		if !isX(dst) || !isX(src) {
			return nil
		}
		d, s := xi(dst), xi(src)
		return func(c *x86CPU) error {
			c.icount++
			c.xmm[d][0] ^= c.xmm[s][0]
			c.xmm[d][1] ^= c.xmm[s][1]
			c.rip = next
			c.clock += cost
			return nil
		}
	}
	return nil
}

// compileX86SSEGeneral compiles the SSE shapes compileX86SSE declines:
// packed moves and arithmetic, single-precision arithmetic and
// conversions, PXOR/XORPS from memory, and 16-bit integer conversions.
// Scalar sources are an XMM register's low lane (masked to the width), a GP
// register or memory; packed sources are an XMM register or 16 bytes of
// memory, read low quadword first.
func compileX86SSEGeneral(in x86.Inst, next uint64, cost int64) x86Uop {
	if len(in.Ops) < 2 {
		return x86Unhandled(in)
	}
	dst, src := in.Ops[0], in.Ops[1]
	isX := func(o x86.Operand) bool { return o.Kind == x86.KindReg && o.Reg.IsXMM() }
	scalar := func(size int) func(*x86CPU) (uint64, error) {
		if isX(src) {
			s, msk := src.Reg-x86.XMM0, maskFor(size)
			return func(c *x86CPU) (uint64, error) { return c.xmm[s][0] & msk, nil }
		}
		return x86OpF(in, src, size)
	}
	packed := func() func(*x86CPU) ([2]uint64, error) {
		if isX(src) {
			s := src.Reg - x86.XMM0
			return func(c *x86CPU) ([2]uint64, error) { return c.xmm[s], nil }
		}
		ea := x86EAF(in, src.Mem)
		return func(c *x86CPU) ([2]uint64, error) {
			a := ea(c)
			lo, err := c.m.load8(a)
			if err != nil {
				return [2]uint64{}, err
			}
			hi, err := c.m.load8(a + 8)
			return [2]uint64{lo, hi}, err
		}
	}
	d := dst.Reg - x86.XMM0
	fpCost := cost + CostFP
	f32 := func(v uint64) float32 { return math.Float32frombits(uint32(v)) }

	switch in.Op {
	case x86.MOVAPS, x86.MOVUPS:
		if isX(dst) {
			rd := packed()
			return func(c *x86CPU) error {
				c.icount++
				v, err := rd(c)
				if err != nil {
					return err
				}
				c.xmm[d] = v
				c.rip = next
				c.clock += cost
				return nil
			}
		}
		s, ea := src.Reg-x86.XMM0, x86EAF(in, dst.Mem)
		return func(c *x86CPU) error {
			c.icount++
			a, v := ea(c), c.xmm[s]
			if !c.m.Mem.Store8(a, v[0]) {
				if err := c.m.store(a, 8, v[0]); err != nil {
					return err
				}
			}
			if !c.m.Mem.Store8(a+8, v[1]) {
				if err := c.m.store(a+8, 8, v[1]); err != nil {
					return err
				}
			}
			c.rip = next
			c.clock += cost
			return nil
		}

	case x86.ADDSS, x86.SUBSS, x86.MULSS, x86.DIVSS:
		rd, op := scalar(4), in.Op
		return func(c *x86CPU) error {
			c.icount++
			b, err := rd(c)
			if err != nil {
				return err
			}
			x, y := f32(c.xmm[d][0]), f32(b)
			var r float32
			switch op {
			case x86.ADDSS:
				r = x + y
			case x86.SUBSS:
				r = x - y
			case x86.MULSS:
				r = x * y
			default:
				r = x / y
			}
			c.xmm[d][0] = c.xmm[d][0]&^0xFFFFFFFF | uint64(math.Float32bits(r))
			c.rip = next
			c.clock += fpCost
			return nil
		}

	case x86.CVTSS2SD, x86.CVTSD2SS:
		widen := in.Op == x86.CVTSS2SD
		rd := scalar(8)
		if widen {
			rd = scalar(4)
		}
		return func(c *x86CPU) error {
			c.icount++
			b, err := rd(c)
			if err != nil {
				return err
			}
			if widen {
				c.xmm[d][0] = math.Float64bits(float64(f32(b)))
			} else {
				c.xmm[d][0] = uint64(math.Float32bits(float32(math.Float64frombits(b))))
			}
			c.rip = next
			c.clock += fpCost
			return nil
		}

	case x86.CVTSI2SD:
		// The source is read at the instruction's width, sign-extended
		// from 32 bits only for the 32-bit form.
		rd, w32 := x86OpF(in, src, in.Size), in.Size == 4
		return func(c *x86CPU) error {
			c.icount++
			v, err := rd(c)
			if err != nil {
				return err
			}
			s := int64(v)
			if w32 {
				s = int64(int32(v))
			}
			c.xmm[d][0] = math.Float64bits(float64(s))
			c.rip = next
			c.clock += fpCost
			return nil
		}

	case x86.CVTTSD2SI:
		rd, wr := scalar(8), x86WrF(dst.Reg, in.Size)
		return func(c *x86CPU) error {
			c.icount++
			b, err := rd(c)
			if err != nil {
				return err
			}
			wr(c, uint64(int64(math.Float64frombits(b))))
			c.rip = next
			c.clock += fpCost
			return nil
		}

	case x86.PXOR, x86.XORPS, x86.ADDPD, x86.MULPD, x86.ADDPS, x86.PADDD:
		rd, op := packed(), in.Op
		opCost := fpCost
		if op == x86.PXOR || op == x86.XORPS || op == x86.PADDD {
			opCost = cost
		}
		return func(c *x86CPU) error {
			c.icount++
			v, err := rd(c)
			if err != nil {
				return err
			}
			for k, b := range v {
				a := c.xmm[d][k]
				switch op {
				case x86.PXOR, x86.XORPS:
					a ^= b
				case x86.ADDPD:
					a = math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
				case x86.MULPD:
					a = math.Float64bits(math.Float64frombits(a) * math.Float64frombits(b))
				case x86.ADDPS:
					a = uint64(math.Float32bits(f32(a)+f32(b))) | uint64(math.Float32bits(f32(a>>32)+f32(b>>32)))<<32
				default: // PADDD
					a = uint64(uint32(a)+uint32(b)) | uint64(uint32(a>>32)+uint32(b>>32))<<32
				}
				c.xmm[d][k] = a
			}
			c.rip = next
			c.clock += opCost
			return nil
		}
	}
	return x86Unhandled(in)
}
