package sim

import (
	"fmt"
	"math"

	"lasagne/internal/arm64"
)

// The arm64 uop compiler: the simulator's only arm64 instruction
// semantics. Each decoded instruction becomes one closure that bumps icount
// first, then applies its register/memory/flag effects, and on success
// advances pc and the clock by the instruction's cost; a memory fault
// returns the error with pc and clock untouched. Operand addressing is
// resolved at compile time, and the hot shapes get specialized closures
// that must agree with the general ones (testdata/vectors.golden pins
// both).

// plainX reports whether r is an ordinary general-purpose register
// (X0–X30): array-indexable with no XZR/SP/FP special-casing.
func plainX(r arm64.Reg) bool { return r >= arm64.X0 && r <= arm64.X30 }

// armRdF compiles a register read, mirroring arm64CPU.rd.
func armRdF(r arm64.Reg, size int) func(*arm64CPU) uint64 {
	w := size == 4
	switch {
	case r == arm64.XZR:
		return func(*arm64CPU) uint64 { return 0 }
	case r == arm64.SP:
		if w {
			return func(c *arm64CPU) uint64 { return c.sp & 0xFFFFFFFF }
		}
		return func(c *arm64CPU) uint64 { return c.sp }
	case r.IsFP():
		i := r - arm64.D0
		if w {
			return func(c *arm64CPU) uint64 { return c.v[i] & 0xFFFFFFFF }
		}
		return func(c *arm64CPU) uint64 { return c.v[i] }
	default:
		if w {
			return func(c *arm64CPU) uint64 { return c.x[r] & 0xFFFFFFFF }
		}
		return func(c *arm64CPU) uint64 { return c.x[r] }
	}
}

// armWrF compiles a register write, mirroring arm64CPU.wr.
func armWrF(r arm64.Reg, size int) func(*arm64CPU, uint64) {
	w := size == 4
	switch {
	case r == arm64.XZR:
		return func(*arm64CPU, uint64) {}
	case r == arm64.SP:
		if w {
			return func(c *arm64CPU, v uint64) { c.sp = v & 0xFFFFFFFF }
		}
		return func(c *arm64CPU, v uint64) { c.sp = v }
	case r.IsFP():
		i := r - arm64.D0
		if w {
			return func(c *arm64CPU, v uint64) { c.v[i] = v & 0xFFFFFFFF }
		}
		return func(c *arm64CPU, v uint64) { c.v[i] = v }
	default:
		if w {
			return func(c *arm64CPU, v uint64) { c.x[r] = v & 0xFFFFFFFF }
		}
		return func(c *arm64CPU, v uint64) { c.x[r] = v }
	}
}

// loadFn returns the size-specialized fast-path load.
func loadFn(size int) func(*Machine, uint64) (uint64, error) {
	switch size {
	case 1:
		return (*Machine).load1
	case 2:
		return (*Machine).load2
	case 4:
		return (*Machine).load4
	default:
		return (*Machine).load8
	}
}

// storeFn returns the size-specialized fast-path store.
func storeFn(size int) func(*Machine, uint64, uint64) error {
	switch size {
	case 1:
		return (*Machine).store1
	case 2:
		return (*Machine).store2
	case 4:
		return (*Machine).store4
	default:
		return (*Machine).store8
	}
}

func compileArmUop(in arm64.Inst) armUop {
	next := in.Addr + 4
	size := in.Size
	if size == 0 {
		size = 8
	}

	switch in.Op {
	case arm64.NOP:
		return func(c *arm64CPU) error {
			c.icount++
			c.pc = next
			c.clock += CostALU
			return nil
		}

	case arm64.ADD, arm64.SUB, arm64.AND, arm64.ORR, arm64.EOR:
		// MOV alias: ORR Rd, XZR, Rm.
		if in.Op == arm64.ORR && in.Rn == arm64.XZR && size == 8 &&
			plainX(in.Rd) && plainX(in.Rm) {
			d, s := in.Rd, in.Rm
			return func(c *arm64CPU) error {
				c.icount++
				c.x[d] = c.x[s]
				c.pc = next
				c.clock += CostALU
				return nil
			}
		}
		if size == 8 && plainX(in.Rd) && plainX(in.Rn) && plainX(in.Rm) {
			d, a, b := in.Rd, in.Rn, in.Rm
			switch in.Op {
			case arm64.ADD:
				return func(c *arm64CPU) error {
					c.icount++
					c.x[d] = c.x[a] + c.x[b]
					c.pc = next
					c.clock += CostALU
					return nil
				}
			case arm64.SUB:
				return func(c *arm64CPU) error {
					c.icount++
					c.x[d] = c.x[a] - c.x[b]
					c.pc = next
					c.clock += CostALU
					return nil
				}
			case arm64.AND:
				return func(c *arm64CPU) error {
					c.icount++
					c.x[d] = c.x[a] & c.x[b]
					c.pc = next
					c.clock += CostALU
					return nil
				}
			case arm64.ORR:
				return func(c *arm64CPU) error {
					c.icount++
					c.x[d] = c.x[a] | c.x[b]
					c.pc = next
					c.clock += CostALU
					return nil
				}
			case arm64.EOR:
				return func(c *arm64CPU) error {
					c.icount++
					c.x[d] = c.x[a] ^ c.x[b]
					c.pc = next
					c.clock += CostALU
					return nil
				}
			}
		}
		op := in.Op
		rn, rm := armRdF(in.Rn, size), armRdF(in.Rm, size)
		wd := armWrF(in.Rd, size)
		return func(c *arm64CPU) error {
			c.icount++
			a, b := rn(c), rm(c)
			var r uint64
			switch op {
			case arm64.ADD:
				r = a + b
			case arm64.SUB:
				r = a - b
			case arm64.AND:
				r = a & b
			case arm64.ORR:
				r = a | b
			case arm64.EOR:
				r = a ^ b
			}
			wd(c, r)
			c.pc = next
			c.clock += CostALU
			return nil
		}

	case arm64.SUBS:
		rn, rm := armRdF(in.Rn, size), armRdF(in.Rm, size)
		wd := armWrF(in.Rd, size)
		sz := size
		return func(c *arm64CPU) error {
			c.icount++
			a, b := rn(c), rm(c)
			c.setSubFlags(a, b, sz)
			wd(c, a-b)
			c.pc = next
			c.clock += CostALU
			return nil
		}

	case arm64.ADDI, arm64.SUBI:
		imm := uint64(in.Imm)
		if in.Op == arm64.SUBI {
			imm = -imm
		}
		if size == 8 && plainX(in.Rd) && plainX(in.Rn) {
			d, a := in.Rd, in.Rn
			return func(c *arm64CPU) error {
				c.icount++
				c.x[d] = c.x[a] + imm
				c.pc = next
				c.clock += CostALU
				return nil
			}
		}
		rn := armRdF(in.Rn, size)
		wd := armWrF(in.Rd, size)
		return func(c *arm64CPU) error {
			c.icount++
			wd(c, rn(c)+imm)
			c.pc = next
			c.clock += CostALU
			return nil
		}

	case arm64.SUBSI:
		imm := uint64(in.Imm)
		rn := armRdF(in.Rn, size)
		wd := armWrF(in.Rd, size)
		sz := size
		return func(c *arm64CPU) error {
			c.icount++
			a := rn(c)
			c.setSubFlags(a, imm, sz)
			wd(c, a-imm)
			c.pc = next
			c.clock += CostALU
			return nil
		}

	case arm64.MADD, arm64.MSUB:
		ra, rn, rm := armRdF(in.Ra, size), armRdF(in.Rn, size), armRdF(in.Rm, size)
		wd := armWrF(in.Rd, size)
		sub := in.Op == arm64.MSUB
		return func(c *arm64CPU) error {
			c.icount++
			p := rn(c) * rm(c)
			if sub {
				wd(c, ra(c)-p)
			} else {
				wd(c, ra(c)+p)
			}
			c.pc = next
			c.clock += CostALU + 2
			return nil
		}

	case arm64.MOVZ:
		k := uint64(in.Imm) << (16 * uint(in.Shift))
		if size == 8 && plainX(in.Rd) {
			d := in.Rd
			return func(c *arm64CPU) error {
				c.icount++
				c.x[d] = k
				c.pc = next
				c.clock += CostALU
				return nil
			}
		}
		wd := armWrF(in.Rd, size)
		return func(c *arm64CPU) error {
			c.icount++
			wd(c, k)
			c.pc = next
			c.clock += CostALU
			return nil
		}

	case arm64.MOVN:
		k := ^(uint64(in.Imm) << (16 * uint(in.Shift)))
		wd := armWrF(in.Rd, size)
		return func(c *arm64CPU) error {
			c.icount++
			wd(c, k)
			c.pc = next
			c.clock += CostALU
			return nil
		}

	case arm64.LSLV, arm64.LSRV, arm64.ASRV:
		rn, rm, wd := armRdF(in.Rn, size), armRdF(in.Rm, size), armWrF(in.Rd, size)
		op, mask, w := in.Op, uint64(size*8-1), size == 4
		return func(c *arm64CPU) error {
			c.icount++
			sh, a := rm(c)&mask, rn(c)
			switch {
			case op == arm64.LSLV:
				wd(c, a<<sh)
			case op == arm64.LSRV:
				wd(c, a>>sh)
			case w:
				wd(c, uint64(int32(a)>>sh))
			default:
				wd(c, uint64(int64(a)>>sh))
			}
			c.pc = next
			c.clock += CostALU
			return nil
		}

	case arm64.ASRI:
		sh := uint(in.Imm)
		rn, wd := armRdF(in.Rn, size), armWrF(in.Rd, size)
		if size == 4 {
			return func(c *arm64CPU) error {
				c.icount++
				wd(c, uint64(int32(rn(c))>>sh))
				c.pc = next
				c.clock += CostALU
				return nil
			}
		}
		return func(c *arm64CPU) error {
			c.icount++
			wd(c, uint64(int64(rn(c))>>sh))
			c.pc = next
			c.clock += CostALU
			return nil
		}

	case arm64.SXTB, arm64.SXTH, arm64.SXTW:
		// Sign-extend the low 8/16/32 bits of the 64-bit source.
		sh := map[arm64.Op]uint{arm64.SXTB: 56, arm64.SXTH: 48, arm64.SXTW: 32}[in.Op]
		rn, wd := armRdF(in.Rn, 8), armWrF(in.Rd, size)
		return func(c *arm64CPU) error {
			c.icount++
			wd(c, uint64(int64(rn(c)<<sh)>>sh))
			c.pc = next
			c.clock += CostALU
			return nil
		}

	case arm64.UXTB, arm64.UXTH:
		msk := uint64(0xFF)
		if in.Op == arm64.UXTH {
			msk = 0xFFFF
		}
		rn, wd := armRdF(in.Rn, 8), armWrF(in.Rd, 8)
		return func(c *arm64CPU) error {
			c.icount++
			wd(c, rn(c)&msk)
			c.pc = next
			c.clock += CostALU
			return nil
		}

	case arm64.LSLI, arm64.LSRI:
		sh := uint(in.Imm)
		left := in.Op == arm64.LSLI
		rn := armRdF(in.Rn, size)
		wd := armWrF(in.Rd, size)
		return func(c *arm64CPU) error {
			c.icount++
			if left {
				wd(c, rn(c)<<sh)
			} else {
				wd(c, rn(c)>>sh)
			}
			c.pc = next
			c.clock += CostALU
			return nil
		}

	case arm64.CSEL, arm64.CSINC:
		rn, rm := armRdF(in.Rn, size), armRdF(in.Rm, size)
		wd := armWrF(in.Rd, size)
		cc := in.Cond
		inc := in.Op == arm64.CSINC
		return func(c *arm64CPU) error {
			c.icount++
			if c.cond(cc) {
				wd(c, rn(c))
			} else if inc {
				wd(c, rm(c)+1)
			} else {
				wd(c, rm(c))
			}
			c.pc = next
			c.clock += CostALU
			return nil
		}

	case arm64.LDR, arm64.LDUR:
		imm := uint64(in.Imm)
		ld := loadFn(in.Size)
		if plainX(in.Rn) && plainX(in.Rd) && in.Size == 8 {
			b, d := in.Rn, in.Rd
			return func(c *arm64CPU) error {
				c.icount++
				addr := c.x[b] + imm
				v, ok := c.m.Mem.Load8(addr)
				if !ok {
					var err error
					if v, err = c.m.load(addr, 8); err != nil {
						return err
					}
				}
				c.x[d] = v
				c.pc = next
				c.clock += CostMem
				return nil
			}
		}
		if in.Rn == arm64.SP && plainX(in.Rd) && in.Size == 8 {
			d := in.Rd
			return func(c *arm64CPU) error {
				c.icount++
				addr := c.sp + imm
				v, ok := c.m.Mem.Load8(addr)
				if !ok {
					var err error
					if v, err = c.m.load(addr, 8); err != nil {
						return err
					}
				}
				c.x[d] = v
				c.pc = next
				c.clock += CostMem
				return nil
			}
		}
		base := armRdF(in.Rn, 8)
		if in.Rd.IsFP() {
			d := in.Rd - arm64.D0
			return func(c *arm64CPU) error {
				c.icount++
				v, err := ld(c.m, base(c)+imm)
				if err != nil {
					return err
				}
				c.v[d] = v
				c.pc = next
				c.clock += CostMem
				return nil
			}
		}
		wd := armWrF(in.Rd, 8) // zero-extends
		return func(c *arm64CPU) error {
			c.icount++
			v, err := ld(c.m, base(c)+imm)
			if err != nil {
				return err
			}
			wd(c, v)
			c.pc = next
			c.clock += CostMem
			return nil
		}

	case arm64.STR, arm64.STUR:
		imm := uint64(in.Imm)
		st := storeFn(in.Size)
		sz := in.Size
		base := armRdF(in.Rn, 8)
		var src func(*arm64CPU) uint64
		if in.Rd.IsFP() {
			d := in.Rd - arm64.D0
			src = func(c *arm64CPU) uint64 { return c.v[d] }
		} else {
			src = armRdF(in.Rd, 8)
		}
		if in.Rn == arm64.SP && plainX(in.Rd) && sz == 8 {
			d := in.Rd
			return func(c *arm64CPU) error {
				c.icount++
				addr := c.sp + imm
				if !c.m.Mem.Store8(addr, c.x[d]) {
					if err := c.m.store(addr, 8, c.x[d]); err != nil {
						return err
					}
				}
				if c.m.monitors != 0 {
					c.m.invalidateMonitors(addr, 8, c)
				}
				c.pc = next
				c.clock += CostMem
				return nil
			}
		}
		return func(c *arm64CPU) error {
			c.icount++
			addr := base(c) + imm
			if err := st(c.m, addr, src(c)); err != nil {
				return err
			}
			if c.m.monitors != 0 {
				c.m.invalidateMonitors(addr, sz, c)
			}
			c.pc = next
			c.clock += CostMem
			return nil
		}

	case arm64.LDRR:
		shift := uint(0)
		if in.Imm == 1 {
			shift = uint(log2(in.Size))
		}
		ld := loadFn(in.Size)
		base := armRdF(in.Rn, 8)
		off := armRdF(in.Rm, 8)
		if in.Rd.IsFP() {
			d := in.Rd - arm64.D0
			return func(c *arm64CPU) error {
				c.icount++
				v, err := ld(c.m, base(c)+off(c)<<shift)
				if err != nil {
					return err
				}
				c.v[d] = v
				c.pc = next
				c.clock += CostMem
				return nil
			}
		}
		wd := armWrF(in.Rd, 8)
		return func(c *arm64CPU) error {
			c.icount++
			v, err := ld(c.m, base(c)+off(c)<<shift)
			if err != nil {
				return err
			}
			wd(c, v)
			c.pc = next
			c.clock += CostMem
			return nil
		}

	case arm64.STRR:
		shift := uint(0)
		if in.Imm == 1 {
			shift = uint(log2(in.Size))
		}
		st := storeFn(in.Size)
		sz := in.Size
		base := armRdF(in.Rn, 8)
		off := armRdF(in.Rm, 8)
		var src func(*arm64CPU) uint64
		if in.Rd.IsFP() {
			d := in.Rd - arm64.D0
			src = func(c *arm64CPU) uint64 { return c.v[d] }
		} else {
			src = armRdF(in.Rd, 8)
		}
		return func(c *arm64CPU) error {
			c.icount++
			addr := base(c) + off(c)<<shift
			if err := st(c.m, addr, src(c)); err != nil {
				return err
			}
			if c.m.monitors != 0 {
				c.m.invalidateMonitors(addr, sz, c)
			}
			c.pc = next
			c.clock += CostMem
			return nil
		}

	case arm64.LDRSB, arm64.LDRSH, arm64.LDRSW:
		imm := uint64(in.Imm)
		ld := loadFn(in.Size)
		base := armRdF(in.Rn, 8)
		wd := armWrF(in.Rd, 8)
		op := in.Op
		return func(c *arm64CPU) error {
			c.icount++
			v, err := ld(c.m, base(c)+imm)
			if err != nil {
				return err
			}
			switch op {
			case arm64.LDRSB:
				v = uint64(int64(int8(v)))
			case arm64.LDRSH:
				v = uint64(int64(int16(v)))
			default:
				v = uint64(int64(int32(v)))
			}
			wd(c, v)
			c.pc = next
			c.clock += CostMem
			return nil
		}

	case arm64.LDAR:
		ld := loadFn(in.Size)
		base := armRdF(in.Rn, 8)
		if in.Rd.IsFP() {
			d := in.Rd - arm64.D0
			return func(c *arm64CPU) error {
				c.icount++
				v, err := ld(c.m, base(c))
				if err != nil {
					return err
				}
				c.v[d] = v
				c.pc = next
				c.clock += CostLDAR
				return nil
			}
		}
		wd := armWrF(in.Rd, 8)
		return func(c *arm64CPU) error {
			c.icount++
			v, err := ld(c.m, base(c))
			if err != nil {
				return err
			}
			wd(c, v)
			c.pc = next
			c.clock += CostLDAR
			return nil
		}

	case arm64.STLR:
		st := storeFn(in.Size)
		sz := in.Size
		base := armRdF(in.Rn, 8)
		var src func(*arm64CPU) uint64
		if in.Rd.IsFP() {
			d := in.Rd - arm64.D0
			src = func(c *arm64CPU) uint64 { return c.v[d] }
		} else {
			src = armRdF(in.Rd, 8)
		}
		return func(c *arm64CPU) error {
			c.icount++
			addr := base(c)
			if err := st(c.m, addr, src(c)); err != nil {
				return err
			}
			if c.m.monitors != 0 {
				c.m.invalidateMonitors(addr, sz, c)
			}
			c.pc = next
			c.clock += CostSTLR
			return nil
		}

	case arm64.LDXR, arm64.LDAXR:
		ld := loadFn(in.Size)
		base := armRdF(in.Rn, 8)
		wd := armWrF(in.Rd, 8)
		return func(c *arm64CPU) error {
			c.icount++
			addr := base(c)
			v, err := ld(c.m, addr)
			if err != nil {
				return err
			}
			c.setMonitor(addr)
			wd(c, v)
			c.pc = next
			c.clock += CostExcl
			return nil
		}

	case arm64.STXR, arm64.STLXR:
		st := storeFn(in.Size)
		sz := in.Size
		base := armRdF(in.Rn, 8)
		src := armRdF(in.Rd, 8)
		stat := armWrF(in.Ra, 8)
		return func(c *arm64CPU) error {
			c.icount++
			addr := base(c)
			if c.exclValid && c.exclAddr == addr {
				if err := st(c.m, addr, src(c)); err != nil {
					return err
				}
				c.m.invalidateMonitors(addr, sz, c)
				stat(c, 0)
			} else {
				stat(c, 1)
			}
			c.clearMonitor()
			c.pc = next
			c.clock += CostExcl
			return nil
		}

	case arm64.DMB:
		cost := int64(CostALU)
		switch in.Barrier {
		case arm64.BarrierISH:
			cost = CostDMBFF
		case arm64.BarrierISHLD:
			cost = CostDMBLD
		case arm64.BarrierISHST:
			cost = CostDMBST
		}
		return func(c *arm64CPU) error {
			c.icount++
			c.pc = next
			c.clock += cost
			return nil
		}

	case arm64.B:
		target := uint64(in.Imm)
		if target == in.Addr {
			addr := in.Addr
			return func(c *arm64CPU) error {
				c.icount++
				c.pc = target
				return fmt.Errorf("sim: arm64 trapped (branch-to-self) at %#x", addr)
			}
		}
		return func(c *arm64CPU) error {
			c.icount++
			c.pc = target
			c.clock += CostBranch
			return nil
		}

	case arm64.BCOND:
		target := uint64(in.Imm)
		cc := in.Cond
		return func(c *arm64CPU) error {
			c.icount++
			if c.cond(cc) {
				c.pc = target
			} else {
				c.pc = next
			}
			c.clock += CostBranch
			return nil
		}

	case arm64.CBZ, arm64.CBNZ:
		target := uint64(in.Imm)
		rd := armRdF(in.Rd, size)
		wantZero := in.Op == arm64.CBZ
		return func(c *arm64CPU) error {
			c.icount++
			if (rd(c) == 0) == wantZero {
				c.pc = target
			} else {
				c.pc = next
			}
			c.clock += CostBranch
			return nil
		}

	case arm64.BL:
		target := uint64(in.Imm)
		return func(c *arm64CPU) error {
			c.icount++
			c.x[30] = next
			c.pc = target
			c.clock += CostCall
			return nil
		}

	case arm64.BLR:
		rn := armRdF(in.Rn, 8)
		return func(c *arm64CPU) error {
			c.icount++
			target := rn(c)
			c.x[30] = next
			c.pc = target
			c.clock += CostCall
			return nil
		}

	case arm64.BR:
		rn := armRdF(in.Rn, 8)
		return func(c *arm64CPU) error {
			c.icount++
			c.pc = rn(c)
			c.clock += CostBranch
			return nil
		}

	case arm64.RET:
		return func(c *arm64CPU) error {
			c.icount++
			target := c.x[30]
			c.clock += CostBranch
			if target == sentinel {
				c.done = true
				return nil
			}
			c.pc = target
			return nil
		}

	case arm64.MOVK:
		sh := 16 * uint(in.Shift)
		keep := ^(uint64(0xFFFF) << sh)
		ins := uint64(in.Imm) << sh
		if size == 8 && plainX(in.Rd) {
			d := in.Rd
			return func(c *arm64CPU) error {
				c.icount++
				c.x[d] = c.x[d]&keep | ins
				c.pc = next
				c.clock += CostALU
				return nil
			}
		}
		rd, wd := armRdF(in.Rd, 8), armWrF(in.Rd, size)
		return func(c *arm64CPU) error {
			c.icount++
			wd(c, rd(c)&keep|ins)
			c.pc = next
			c.clock += CostALU
			return nil
		}

	case arm64.SDIV:
		rn, rm, wd := armRdF(in.Rn, size), armRdF(in.Rm, size), armWrF(in.Rd, size)
		if size == 4 {
			return func(c *arm64CPU) error {
				c.icount++
				as, bs := int64(int32(rn(c))), int64(int32(rm(c)))
				var r int64
				if bs != 0 {
					r = as / bs
				}
				wd(c, uint64(r))
				c.pc = next
				c.clock += CostDiv
				return nil
			}
		}
		return func(c *arm64CPU) error {
			c.icount++
			as, bs := int64(rn(c)), int64(rm(c))
			var r int64
			if bs != 0 {
				r = as / bs // A64 sdiv by zero yields 0; Go would panic
			}
			wd(c, uint64(r))
			c.pc = next
			c.clock += CostDiv
			return nil
		}

	case arm64.UDIV:
		rn, rm, wd := armRdF(in.Rn, size), armRdF(in.Rm, size), armWrF(in.Rd, size)
		return func(c *arm64CPU) error {
			c.icount++
			a, b := rn(c), rm(c)
			var r uint64
			if b != 0 {
				r = a / b
			}
			wd(c, r)
			c.pc = next
			c.clock += CostDiv
			return nil
		}

	case arm64.FCMP:
		rn, rm, sz := in.Rn, in.Rm, size
		return func(c *arm64CPU) error {
			c.icount++
			a, b := c.fval(rn, sz), c.fval(rm, sz)
			switch {
			case math.IsNaN(a) || math.IsNaN(b):
				c.flagN, c.flagZ, c.flagC, c.flagV = false, false, true, true
			case a == b:
				c.flagN, c.flagZ, c.flagC, c.flagV = false, true, true, false
			case a < b:
				c.flagN, c.flagZ, c.flagC, c.flagV = true, false, false, false
			default:
				c.flagN, c.flagZ, c.flagC, c.flagV = false, false, true, false
			}
			c.pc = next
			c.clock += CostFP
			return nil
		}

	// The decoder gives FMOV, FMOVTOG, FMOVTOF, FCVTDS and FCVTSD FP
	// registers in their D/S operand slots.
	case arm64.FMOV:
		d, n := in.Rd-arm64.D0, in.Rn-arm64.D0
		return func(c *arm64CPU) error {
			c.icount++
			c.v[d] = c.v[n]
			c.pc = next
			c.clock += CostALU
			return nil
		}

	case arm64.FMOVTOG:
		n, msk := in.Rn-arm64.D0, maskFor(size)
		wd := armWrF(in.Rd, 8)
		return func(c *arm64CPU) error {
			c.icount++
			wd(c, c.v[n]&msk)
			c.pc = next
			c.clock += CostALU
			return nil
		}

	case arm64.FMOVTOF:
		d, msk := in.Rd-arm64.D0, maskFor(size)
		rn := armRdF(in.Rn, 8)
		return func(c *arm64CPU) error {
			c.icount++
			c.v[d] = rn(c) & msk
			c.pc = next
			c.clock += CostALU
			return nil
		}

	case arm64.SCVTF:
		rn, rd, sz := armRdF(in.Rn, 8), in.Rd, size
		return func(c *arm64CPU) error {
			c.icount++
			c.setF(rd, sz, float64(int64(rn(c))))
			c.pc = next
			c.clock += CostFP
			return nil
		}

	case arm64.FCVTZS:
		rn, sz := in.Rn, size
		wd := armWrF(in.Rd, 8)
		return func(c *arm64CPU) error {
			c.icount++
			wd(c, uint64(int64(c.fval(rn, sz))))
			c.pc = next
			c.clock += CostFP
			return nil
		}

	case arm64.FCVTDS:
		d, n := in.Rd-arm64.D0, in.Rn-arm64.D0
		return func(c *arm64CPU) error {
			c.icount++
			c.v[d] = math.Float64bits(float64(math.Float32frombits(uint32(c.v[n]))))
			c.pc = next
			c.clock += CostFP
			return nil
		}

	case arm64.FCVTSD:
		d, n := in.Rd-arm64.D0, in.Rn-arm64.D0
		return func(c *arm64CPU) error {
			c.icount++
			c.v[d] = uint64(math.Float32bits(float32(math.Float64frombits(c.v[n]))))
			c.pc = next
			c.clock += CostFP
			return nil
		}

	case arm64.FSQRT:
		rn, rd, sz := in.Rn, in.Rd, size
		return func(c *arm64CPU) error {
			c.icount++
			c.setF(rd, sz, math.Sqrt(c.fval(rn, sz)))
			c.pc = next
			c.clock += CostFP + 6
			return nil
		}

	case arm64.FADD, arm64.FSUB, arm64.FMUL, arm64.FDIV:
		op := in.Op
		rn, rm, rd := in.Rn, in.Rm, in.Rd
		sz := size
		return func(c *arm64CPU) error {
			c.icount++
			a, b := c.fval(rn, sz), c.fval(rm, sz)
			var r float64
			switch op {
			case arm64.FADD:
				r = a + b
			case arm64.FSUB:
				r = a - b
			case arm64.FMUL:
				r = a * b
			default:
				r = a / b
			}
			c.setF(rd, sz, r)
			c.pc = next
			c.clock += CostFP
			return nil
		}
	}

	// The decoder yields no other op.
	op, addr := in.Op, in.Addr
	return func(c *arm64CPU) error {
		c.icount++
		return fmt.Errorf("sim: unhandled arm64 op %s at %#x", op, addr)
	}
}
