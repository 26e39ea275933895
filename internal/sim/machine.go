// Package sim executes the machine code produced by the backends (and, for
// lifted programs, by the full Lasagne pipeline). It provides an x86-64
// interpreter and an Arm64 interpreter over obj.File images, a deterministic
// multi-thread scheduler, the runtime builtins (threading, allocation,
// printing), and a cycle cost model calibrated so fences carry realistic
// relative costs (DMB ISH ≈ 40 cycles, MFENCE ≈ 33, as on Cortex-A72-class
// cores).
//
// The interpreters execute a sequentially consistent interleaving: weak
// memory *behaviors* are explored by the axiomatic checker in
// internal/memmodel; the simulators measure functional correctness and
// performance shape.
package sim

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"lasagne/internal/diag"
	"lasagne/internal/obj"
	"lasagne/internal/rt"
)

// Cycle costs of instruction classes.
const (
	CostALU    = 1
	CostMem    = 4
	CostBranch = 2
	CostCall   = 4
	CostFP     = 3
	CostDiv    = 12
	CostMFENCE = 33
	CostDMBFF  = 40
	CostDMBLD  = 25
	CostDMBST  = 25
	CostLock   = 18 // x86 LOCK-prefixed operation
	CostExcl   = 6  // one exclusive (LL/SC) access
	CostLDAR   = 8  // acquire load: ordered access, far cheaper than DMB LD
	CostSTLR   = 8  // release store: ordered access, far cheaper than DMB ST
)

// Address-space layout of the simulated machine.
const (
	MemSize   = 64 << 20
	HeapBase  = 0x1000000
	StackBase = 0x2000000 // thread k's stack occupies [StackBase+k*StackSize, ...)
	StackSize = 1 << 20
	MaxThread = 32
	sentinel  = 0xDEAD0000 // return address that terminates a thread
)

// cpu is one simulated hardware thread.
type cpu interface {
	// Step executes one instruction and advances the thread clock.
	Step() error
	// Done reports whether the thread has returned from its entry function.
	Done() bool
	// Clock returns the thread's cycle count.
	Clock() int64
	// SetClock overrides the thread clock (used when a join unblocks).
	SetClock(int64)
	// Joining reports whether the thread is blocked in __join.
	Joining() bool
	// InstrCount returns the number of executed instructions.
	InstrCount() int64
}

// Machine is a simulated multicore with shared memory.
type Machine struct {
	File *obj.File
	Mem  []byte
	Out  *strings.Builder

	// NThreads is the value returned by the __nthreads builtin.
	NThreads int
	// MaxSteps bounds total executed instructions.
	MaxSteps int64
	// Engine selects the interpreter (initialized from the package-level
	// Engine default in NewMachine; override before Run).
	Engine EngineKind

	threads []cpu
	// Concrete per-arch views of threads, maintained by newThread so the
	// threaded scheduler and the monitor-invalidation scan never go through
	// interface dispatch.
	armCPUs []*arm64CPU
	x86CPUs []*x86CPU
	// monitors counts CPUs holding a valid exclusive reservation, letting
	// stores skip the invalidation scan while no monitor is armed.
	monitors int
	heapTop  uint64
	steps    int64

	text     []byte
	textAddr uint64
	textEnd  uint64

	// The compiled program over .text (one per machine, for its
	// architecture), shared by all CPUs and both engines.
	armProg *armProg
	x86Prog *x86Prog
}

// DefaultMaxSteps is the default Machine.MaxSteps: the total-instruction
// budget after which Run gives up with an error wrapping
// diag.ErrBudgetExceeded.
const DefaultMaxSteps = 400_000_000

// ctxCheckInterval is how many scheduler steps pass between context polls
// in RunContext; checking every step would dominate the interpreter loop.
const ctxCheckInterval = 1024

// NewMachine loads an object file into a fresh machine.
func NewMachine(f *obj.File) (*Machine, error) {
	m := &Machine{
		File:     f,
		Mem:      make([]byte, MemSize),
		Out:      &strings.Builder{},
		NThreads: 4,
		MaxSteps: DefaultMaxSteps,
		Engine:   Engine,
		heapTop:  HeapBase,
	}
	if s := f.Section(".text"); s != nil && s.Addr < pltEnd && obj.PLTBase < s.Addr+uint64(len(s.Data)) {
		// The threaded engine dispatches .text before the PLT.
		return nil, fmt.Errorf("sim: .text [%#x, %#x) overlaps the PLT at %#x", s.Addr, s.Addr+uint64(len(s.Data)), obj.PLTBase)
	}
	for _, s := range f.Sections {
		if s.Addr+uint64(len(s.Data)) > MemSize {
			return nil, fmt.Errorf("sim: section %s does not fit", s.Name)
		}
		copy(m.Mem[s.Addr:], s.Data)
	}
	m.compile()
	return m, nil
}

// Run executes the entry function on thread 0 until all threads finish.
// It returns the wall-clock cycle count (max over thread clocks).
func (m *Machine) Run() (int64, error) { return m.RunContext(context.Background()) }

// RunContext is Run bounded by ctx in addition to MaxSteps: the context is
// polled every ctxCheckInterval scheduler steps, and both a step-limit hit
// and a context expiry return an error wrapping diag.ErrBudgetExceeded, so
// callers can distinguish "ran out of budget" from a genuine execution
// fault with errors.Is.
func (m *Machine) RunContext(ctx context.Context) (int64, error) {
	entry := m.File.Symbol(m.File.Entry)
	if entry == nil {
		return 0, fmt.Errorf("sim: no entry symbol %q", m.File.Entry)
	}
	m.threads = nil
	m.armCPUs, m.x86CPUs = nil, nil
	m.monitors = 0
	if _, err := m.newThread(entry.Addr, 0, 0); err != nil {
		return 0, err
	}
	if m.Engine == Threaded {
		switch m.File.Arch {
		case "arm64":
			return m.runThreadedArm(ctx)
		case "x86-64":
			return m.runThreadedX86(ctx)
		}
	}
	return m.runReference(ctx)
}

// runReference is the reference scheduler loop: one cpu.Step — one
// compiled uop, never a fused run — per scheduler step. It is the
// differential oracle for the threaded engine's fusion, preemption points
// and single-thread loop (selected with sim.Engine = Reference).
func (m *Machine) runReference(ctx context.Context) (int64, error) {
	poll := int64(ctxCheckInterval)
	for {
		// Pick the runnable thread with the smallest clock.
		var pick cpu
		for _, th := range m.threads {
			if th.Done() {
				continue
			}
			if th.Joining() {
				if m.othersDone(th) {
					// Unblock: clock jumps to the completion time of the
					// slowest thread it waited for.
					mx := th.Clock()
					for _, o := range m.threads {
						if o != th && o.Clock() > mx {
							mx = o.Clock()
						}
					}
					th.SetClock(mx)
				} else {
					continue
				}
			}
			if pick == nil || th.Clock() < pick.Clock() {
				pick = th
			}
		}
		if pick == nil {
			break
		}
		if err := pick.Step(); err != nil {
			return 0, err
		}
		m.steps++
		if m.steps > m.MaxSteps {
			return 0, m.budgetErr()
		}
		// Countdown instead of a modulo on every step: the divide was
		// measurable in the interpreter loop.
		if poll--; poll <= 0 {
			poll = ctxCheckInterval
			if err := ctx.Err(); err != nil {
				return 0, m.interruptErr(err)
			}
		}
	}
	return m.wall()
}

func (m *Machine) budgetErr() error {
	return fmt.Errorf("sim: step limit (%d) exceeded: %w", m.MaxSteps, diag.ErrBudgetExceeded)
}

func (m *Machine) interruptErr(cause error) error {
	return fmt.Errorf("sim: interrupted after %d steps: %w (%v)", m.steps, diag.ErrBudgetExceeded, cause)
}

// wall computes the machine wall clock (max over thread clocks) after the
// scheduler found no runnable thread, detecting join deadlocks.
func (m *Machine) wall() (int64, error) {
	var wall int64
	for _, th := range m.threads {
		if !th.Done() {
			return 0, fmt.Errorf("sim: deadlock (thread blocked in join forever)")
		}
		if th.Clock() > wall {
			wall = th.Clock()
		}
	}
	return wall, nil
}

// InstrCount returns the total number of instructions executed.
func (m *Machine) InstrCount() int64 {
	var n int64
	for _, th := range m.threads {
		n += th.InstrCount()
	}
	return n
}

func (m *Machine) othersDone(self cpu) bool {
	for _, th := range m.threads {
		if th != self && !th.Done() {
			return false
		}
	}
	return true
}

// newThread creates a cpu for the machine's architecture starting at addr
// with one integer argument and an initial clock, and registers it with the
// scheduler (both the interface slice and the concrete per-arch slice).
func (m *Machine) newThread(addr uint64, arg uint64, clock int64) (cpu, error) {
	id := len(m.threads)
	if id >= MaxThread {
		return nil, fmt.Errorf("sim: too many threads")
	}
	stackTop := uint64(StackBase + (id+1)*StackSize - 64)
	switch m.File.Arch {
	case "x86-64":
		c, err := newX86CPU(m, addr, arg, stackTop, clock)
		if err != nil {
			return nil, err
		}
		m.threads = append(m.threads, c)
		m.x86CPUs = append(m.x86CPUs, c)
		return c, nil
	case "arm64":
		c, err := newArm64CPU(m, addr, arg, stackTop, clock)
		if err != nil {
			return nil, err
		}
		m.threads = append(m.threads, c)
		m.armCPUs = append(m.armCPUs, c)
		return c, nil
	}
	return nil, fmt.Errorf("sim: unknown arch %q", m.File.Arch)
}

// invalidateMonitors clears every other Arm CPU's exclusive monitor whose
// reservation overlaps a store to [addr, addr+size). This models the
// global exclusive-monitor semantics LL/SC relies on: an intervening store
// by another core must make the pending STXR fail. The m.monitors counter
// lets the common no-reservation case skip the scan entirely.
func (m *Machine) invalidateMonitors(addr uint64, size int, self cpu) {
	if m.monitors == 0 {
		return
	}
	for _, a := range m.armCPUs {
		if cpu(a) == self || !a.exclValid {
			continue
		}
		// Monitors reserve the 8 bytes at the monitored address.
		if addr < a.exclAddr+8 && a.exclAddr < addr+uint64(size) {
			a.clearMonitor()
		}
	}
}

// spawn starts a new thread at function address fn.
func (m *Machine) spawn(fn uint64, arg uint64, clock int64) error {
	_, err := m.newThread(fn, arg, clock)
	return err
}

// alloc serves the __alloc builtin.
func (m *Machine) alloc(n uint64) (uint64, error) {
	a := (m.heapTop + 15) &^ 15
	if a+n >= StackBase {
		return 0, fmt.Errorf("sim: out of heap")
	}
	m.heapTop = a + n
	return a, nil
}

// pltEnd is the end of the PLT: one slot per runtime builtin.
var pltEnd = obj.PLTBase + uint64(len(rt.Builtins))*obj.PLTSlot

// pltIndex returns the builtin index if addr is a PLT slot, else -1.
func pltIndex(addr uint64) int {
	if addr < obj.PLTBase || addr >= pltEnd {
		return -1
	}
	if (addr-obj.PLTBase)%obj.PLTSlot != 0 {
		return -1
	}
	return int((addr - obj.PLTBase) / obj.PLTSlot)
}

// callBuiltin dispatches a runtime call. intArgs/fpArgs are the argument
// registers in ABI order; it returns (intResult, fpResult, isFP, joining).
func (m *Machine) callBuiltin(idx int, clock int64, intArgs []uint64, fpArgs []uint64) (uint64, uint64, bool, bool, error) {
	switch rt.Builtins[idx].Name {
	case "__print_int":
		fmt.Fprintf(m.Out, "%d\n", int64(intArgs[0]))
		return 0, 0, false, false, nil
	case "__print_float":
		fmt.Fprintf(m.Out, "%.6f\n", math.Float64frombits(fpArgs[0]))
		return 0, 0, false, false, nil
	case "__alloc":
		a, err := m.alloc(intArgs[0])
		return a, 0, false, false, err
	case "__spawn":
		err := m.spawn(intArgs[0], intArgs[1], clock)
		return 0, 0, false, false, err
	case "__join":
		return 0, 0, false, true, nil
	case "__nthreads":
		return uint64(m.NThreads), 0, false, false, nil
	}
	return 0, 0, false, false, fmt.Errorf("sim: unknown builtin %d", idx)
}

// Memory accessors with bounds checks.

func (m *Machine) load(addr uint64, size int) (uint64, error) {
	if addr >= uint64(len(m.Mem)) || uint64(size) > uint64(len(m.Mem))-addr {
		return 0, fmt.Errorf("sim: load of %d bytes at %#x out of bounds", size, addr)
	}
	switch size {
	case 1:
		return uint64(m.Mem[addr]), nil
	case 2:
		return uint64(binary.LittleEndian.Uint16(m.Mem[addr:])), nil
	case 4:
		return uint64(binary.LittleEndian.Uint32(m.Mem[addr:])), nil
	case 8:
		return binary.LittleEndian.Uint64(m.Mem[addr:]), nil
	}
	return 0, fmt.Errorf("sim: bad load size %d", size)
}

// Size-specialized accessors for the threaded engine's hot paths: one
// bounds compare, then a direct little-endian access. The error path
// delegates to the generic accessors so the message construction (and its
// allocations) stay off the fast path.

func (m *Machine) load8(addr uint64) (uint64, error) {
	if addr <= MemSize-8 {
		return binary.LittleEndian.Uint64(m.Mem[addr:]), nil
	}
	return m.load(addr, 8)
}

func (m *Machine) load4(addr uint64) (uint64, error) {
	if addr <= MemSize-4 {
		return uint64(binary.LittleEndian.Uint32(m.Mem[addr:])), nil
	}
	return m.load(addr, 4)
}

func (m *Machine) load2(addr uint64) (uint64, error) {
	if addr <= MemSize-2 {
		return uint64(binary.LittleEndian.Uint16(m.Mem[addr:])), nil
	}
	return m.load(addr, 2)
}

func (m *Machine) load1(addr uint64) (uint64, error) {
	if addr < MemSize {
		return uint64(m.Mem[addr]), nil
	}
	return m.load(addr, 1)
}

func (m *Machine) store8(addr uint64, v uint64) error {
	if addr <= MemSize-8 {
		binary.LittleEndian.PutUint64(m.Mem[addr:], v)
		return nil
	}
	return m.store(addr, 8, v)
}

func (m *Machine) store4(addr uint64, v uint64) error {
	if addr <= MemSize-4 {
		binary.LittleEndian.PutUint32(m.Mem[addr:], uint32(v))
		return nil
	}
	return m.store(addr, 4, v)
}

func (m *Machine) store2(addr uint64, v uint64) error {
	if addr <= MemSize-2 {
		binary.LittleEndian.PutUint16(m.Mem[addr:], uint16(v))
		return nil
	}
	return m.store(addr, 2, v)
}

func (m *Machine) store1(addr uint64, v uint64) error {
	if addr < MemSize {
		m.Mem[addr] = byte(v)
		return nil
	}
	return m.store(addr, 1, v)
}

func (m *Machine) store(addr uint64, size int, v uint64) error {
	if addr >= uint64(len(m.Mem)) || uint64(size) > uint64(len(m.Mem))-addr {
		return fmt.Errorf("sim: store of %d bytes at %#x out of bounds", size, addr)
	}
	switch size {
	case 1:
		m.Mem[addr] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(m.Mem[addr:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(m.Mem[addr:], uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(m.Mem[addr:], v)
	default:
		return fmt.Errorf("sim: bad store size %d", size)
	}
	return nil
}
