package sim

import (
	"context"
	"fmt"
	"math"
)

// EngineKind selects an interpreter implementation for a Machine.
type EngineKind int

const (
	// Threaded is the threaded-code engine: straight-line runs of
	// thread-local instructions are fused into superblocks that execute as
	// one scheduler step, over concrete CPU types, and a sorted ready list
	// passes control between threads without rescanning them at every
	// step. It is observationally bit-identical to Reference: same
	// interleaving, same cycle counts, same instruction counts, same
	// program output.
	Threaded EngineKind = iota
	// Reference runs one compiled instruction per scheduler step, without
	// fusion, through the generic cpu interface. Both engines share the
	// compiled instruction semantics, so Reference is the differential
	// oracle for Threaded's fusion, preemption points and ready list.
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
	if pc < m.textAddr || pc+4 > m.textEnd || pc&3 != 0 {
		// A builtin call (NewMachine keeps .text clear of the PLT), or
		// Step reports the fetch error or decodes the misaligned word.
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
	if rip < m.textAddr || rip >= m.textEnd {
		// A builtin call, or Step reports the fetch error.
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

// The threaded engine's scheduler applies runReference's policy — smallest
// clock wins, the lower thread index breaks ties, a join releases at the
// max clock of the joined threads — without rescanning every thread before
// every unit. A unit changes only its own thread's clock, except when it
// finishes the thread, blocks it in __join, or spawns a thread. So after
// one full scan (schedule) the other runnable threads wait in the ready
// list with fixed clocks, and the running thread keeps running while it
// sorts before the list's head. Once overtaken it takes the head's place in
// the list and the head runs (handoff); only those three events trigger a
// rescan.

// waiting is a runnable thread's place in the ready list: its clock, which
// no other thread's unit changes, and its index.
type waiting struct {
	clock int64
	idx   int
}

// before is the pick order: smaller clock first, lower index on ties.
func (w waiting) before(o waiting) bool {
	return w.clock < o.clock || w.clock == o.clock && w.idx < o.idx
}

// readyList holds the runnable threads other than the running one, sorted
// latest first so that its head, the next to run, is the last element.
type readyList []waiting

// schedule is the full scan. It releases a join exactly as runReference
// does and refills r with every runnable thread but the first to run,
// whose index it returns, or -1 if no thread is runnable.
func (m *Machine) schedule(r readyList) (readyList, int) {
	r = r[:0]
	for i, th := range m.threads {
		if th.Done() {
			continue
		}
		if th.Joining() {
			if !m.othersDone(th) {
				continue
			}
			mx := th.Clock()
			for _, o := range m.threads {
				if o != th && o.Clock() > mx {
					mx = o.Clock()
				}
			}
			th.SetClock(mx)
		}
		// handoff treats the last slot as free: here, the one appended.
		w := waiting{th.Clock(), i}
		r = append(r, w)
		r.handoff(w)
	}
	if len(r) == 0 {
		return r, -1
	}
	n := len(r) - 1
	return r[:n], r[n].idx
}

// head is the bound the running thread must stay before: the list's head,
// or +∞ when no other thread is ready.
func (r readyList) head() waiting {
	if n := len(r); n > 0 {
		return r[n-1]
	}
	return waiting{math.MaxInt64, MaxThread}
}

// handoff queues cur, the overtaken running thread, in place of the head
// and returns the head's index. cur sorts after the head, so the head is
// the next to run.
func (r readyList) handoff(cur waiting) int {
	i := len(r) - 1
	next := r[i].idx
	for ; i > 0 && r[i-1].before(cur); i-- {
		r[i] = r[i-1]
	}
	r[i] = cur
	return next
}

// runThreadedArm is the threaded-code scheduler loop for arm64 machines:
// runReference's interleaving, over concrete CPU types (no interface
// calls), with fused superblocks as single steps and the ready list in
// place of a scan per step. Contexts are polled only at unit boundaries
// via a countdown.
func (m *Machine) runThreadedArm(ctx context.Context) (int64, error) {
	if m.armProg == nil {
		m.compileArm()
	}
	p := m.armProg
	poll := int64(ctxCheckInterval)
	ready := make(readyList, 0, MaxThread)
	for {
		var i int
		if ready, i = m.schedule(ready); i < 0 {
			break
		}
		c, bound, total := m.armCPUs[i], ready.head(), len(m.armCPUs)
		for {
			n, err := m.armUnit(c, p)
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
			if c.done || c.joining || len(m.armCPUs) != total {
				break
			}
			if cur := (waiting{c.clock, i}); !cur.before(bound) {
				i = ready.handoff(cur)
				c, bound = m.armCPUs[i], ready.head()
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
	ready := make(readyList, 0, MaxThread)
	for {
		var i int
		if ready, i = m.schedule(ready); i < 0 {
			break
		}
		c, bound, total := m.x86CPUs[i], ready.head(), len(m.x86CPUs)
		for {
			n, err := m.x86Unit(c, p)
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
			if c.done || c.joining || len(m.x86CPUs) != total {
				break
			}
			if cur := (waiting{c.clock, i}); !cur.before(bound) {
				i = ready.handoff(cur)
				c, bound = m.x86CPUs[i], ready.head()
			}
		}
	}
	return m.wall()
}
