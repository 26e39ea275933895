package sim

import (
	"context"
	"fmt"
)

// EngineKind selects an interpreter implementation for a Machine.
type EngineKind int

const (
	// Threaded is the threaded-code engine: straight-line runs of
	// thread-local instructions are fused into superblocks that execute as
	// one scheduler step, over concrete CPU types, with a loop that skips
	// scheduler picks while one thread runs. It is observationally
	// bit-identical to Reference: same interleaving, same cycle counts,
	// same instruction counts, same program output.
	Threaded EngineKind = iota
	// Reference runs one compiled instruction per scheduler step, without
	// fusion, through the generic cpu interface. Both engines share the
	// compiled instruction semantics, so Reference is the differential
	// oracle for Threaded's fusion, preemption points and single-thread
	// loop.
	Reference
)

// Engine is the package-wide default engine; NewMachine copies it into
// Machine.Engine, which callers may override before Run.
var Engine = Threaded

func (k EngineKind) String() string {
	switch k {
	case Threaded:
		return "threaded"
	case Reference:
		return "reference"
	}
	return fmt.Sprintf("engine(%d)", int(k))
}

// Engines lists all interpreter implementations, for differential sweeps.
var Engines = []EngineKind{Threaded, Reference}

// ParseEngine parses a -sim-engine flag value.
func ParseEngine(s string) (EngineKind, error) {
	switch s {
	case "threaded":
		return Threaded, nil
	case "reference", "ref":
		return Reference, nil
	}
	return Threaded, fmt.Errorf("sim: unknown engine %q (want threaded or reference)", s)
}

// A uop is one compiled micro-op handler: it executes exactly one
// instruction at its compile-time pc (the dispatcher guarantees the thread's
// pc matches), updating pc, clock and icount. Uops are the simulator's only
// instruction semantics.
type (
	armUop = func(*arm64CPU) error
	x86Uop = func(*x86CPU) error
)

// armProg is the compilation of an arm64 .text range, built once per
// Machine and shared by all its CPUs and both engines.
type armProg struct {
	// uops[i] executes the instruction at textAddr+4*i; nil marks a word
	// that does not decode (dispatch falls back to Step, which surfaces
	// the decode error).
	uops []armUop
	// fuse[i] is the number of consecutive thread-local instructions
	// starting at word i (0 if the instruction at i is an interaction
	// point: branch, memory access, fence/atomic, or undecodable).
	fuse []int32
}

// x86Prog is the compilation of an x86-64 .text range, indexed by byte
// offset of each instruction start.
type x86Prog struct {
	uops []x86Uop
	fuse []int32
}

// armUnit executes one scheduler unit on c: a builtin call, a single
// interaction instruction, or one fused superblock of thread-local
// instructions. It returns how many reference scheduler steps the unit
// consumed (each instruction and each builtin call counts one, exactly as
// the reference loop counts Step calls).
func (m *Machine) armUnit(c *arm64CPU, p *armProg) (int64, error) {
	pc := c.pc
	if idx := pltIndex(pc); idx >= 0 {
		return 1, c.stepPLT(idx)
	}
	if pc < m.textAddr || pc+4 > m.textEnd || pc&3 != 0 {
		// Outside .text or misaligned: Step reports the fetch error or
		// decodes the misaligned word.
		return 1, c.Step()
	}
	w := (pc - m.textAddr) >> 2
	if n := int64(p.fuse[w]); n > 0 {
		// Superblock: n thread-local instructions. They commute with every
		// other thread's operations (registers only), so running them as
		// one step preserves the reference interleaving bit for bit; each
		// uop still accrues its own cycle cost.
		for k := int64(0); k < n; k++ {
			if err := p.uops[w+uint64(k)](c); err != nil {
				return k + 1, err
			}
		}
		return n, nil
	}
	if u := p.uops[w]; u != nil {
		return 1, u(c)
	}
	return 1, c.Step()
}

func (m *Machine) x86Unit(c *x86CPU, p *x86Prog) (int64, error) {
	rip := c.rip
	if idx := pltIndex(rip); idx >= 0 {
		return 1, c.stepPLT(idx)
	}
	if rip < m.textAddr || rip >= m.textEnd {
		return 1, c.Step()
	}
	off := rip - m.textAddr
	if n := int64(p.fuse[off]); n > 0 {
		for k := int64(0); k < n; k++ {
			// Local ops advance rip to the next instruction start, which
			// the sweep compiled, so re-indexing by rip is in bounds.
			if err := p.uops[c.rip-m.textAddr](c); err != nil {
				return k + 1, err
			}
		}
		return n, nil
	}
	if u := p.uops[off]; u != nil {
		return 1, u(c)
	}
	return 1, c.Step()
}

// runThreadedArm is the threaded-code scheduler loop for arm64 machines.
// It replicates runReference's policy exactly — smallest clock wins,
// earlier thread index breaks ties, joins unblock to the max clock of the
// joined threads — but dispatches compiled uops over concrete CPU types
// (no interface calls) and executes fused superblocks as single steps.
// Contexts are polled only at unit boundaries via a countdown.
func (m *Machine) runThreadedArm(ctx context.Context) (int64, error) {
	if m.armProg == nil {
		m.compileArm()
	}
	p := m.armProg
	poll := int64(ctxCheckInterval)
	for {
		cpus := m.armCPUs
		var pick *arm64CPU
		live := 0
		for _, th := range cpus {
			if th.done {
				continue
			}
			live++
			if th.joining {
				ready := true
				for _, o := range cpus {
					if o != th && !o.done {
						ready = false
						break
					}
				}
				if ready {
					mx := th.clock
					for _, o := range cpus {
						if o != th && o.clock > mx {
							mx = o.clock
						}
					}
					th.clock = mx
					th.joining = false
				} else {
					continue
				}
			}
			if pick == nil || th.clock < pick.clock {
				pick = th
			}
		}
		if pick == nil {
			break
		}
		if live == 1 {
			// Every other thread is done, so re-picking between units is a
			// no-op: run units back to back until this thread finishes,
			// blocks, or spawns.
			total := len(m.armCPUs)
			for {
				n, err := m.armUnit(pick, p)
				m.steps += n
				if err != nil {
					return 0, err
				}
				if m.steps > m.MaxSteps {
					return 0, m.budgetErr()
				}
				if poll -= n; poll <= 0 {
					poll = ctxCheckInterval
					if err := ctx.Err(); err != nil {
						return 0, m.interruptErr(err)
					}
				}
				if pick.done || pick.joining || len(m.armCPUs) != total {
					break
				}
			}
			continue
		}
		n, err := m.armUnit(pick, p)
		m.steps += n
		if err != nil {
			return 0, err
		}
		if m.steps > m.MaxSteps {
			return 0, m.budgetErr()
		}
		if poll -= n; poll <= 0 {
			poll = ctxCheckInterval
			if err := ctx.Err(); err != nil {
				return 0, m.interruptErr(err)
			}
		}
	}
	return m.wall()
}

func (m *Machine) runThreadedX86(ctx context.Context) (int64, error) {
	if m.x86Prog == nil {
		m.compileX86()
	}
	p := m.x86Prog
	poll := int64(ctxCheckInterval)
	for {
		cpus := m.x86CPUs
		var pick *x86CPU
		live := 0
		for _, th := range cpus {
			if th.done {
				continue
			}
			live++
			if th.joining {
				ready := true
				for _, o := range cpus {
					if o != th && !o.done {
						ready = false
						break
					}
				}
				if ready {
					mx := th.clock
					for _, o := range cpus {
						if o != th && o.clock > mx {
							mx = o.clock
						}
					}
					th.clock = mx
					th.joining = false
				} else {
					continue
				}
			}
			if pick == nil || th.clock < pick.clock {
				pick = th
			}
		}
		if pick == nil {
			break
		}
		if live == 1 {
			total := len(m.x86CPUs)
			for {
				n, err := m.x86Unit(pick, p)
				m.steps += n
				if err != nil {
					return 0, err
				}
				if m.steps > m.MaxSteps {
					return 0, m.budgetErr()
				}
				if poll -= n; poll <= 0 {
					poll = ctxCheckInterval
					if err := ctx.Err(); err != nil {
						return 0, m.interruptErr(err)
					}
				}
				if pick.done || pick.joining || len(m.x86CPUs) != total {
					break
				}
			}
			continue
		}
		n, err := m.x86Unit(pick, p)
		m.steps += n
		if err != nil {
			return 0, err
		}
		if m.steps > m.MaxSteps {
			return 0, m.budgetErr()
		}
		if poll -= n; poll <= 0 {
			poll = ctxCheckInterval
			if err := ctx.Err(); err != nil {
				return 0, m.interruptErr(err)
			}
		}
	}
	return m.wall()
}
