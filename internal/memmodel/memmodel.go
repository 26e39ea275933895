// Package memmodel implements the axiomatic concurrency machinery of §6–7:
// events, the po/rf/co/fr/rmw relations, the consistency predicates of the
// x86-TSO, Armv8 and LIMM models, exhaustive enumeration of the consistent
// executions of litmus programs, and bounded checkers for the mapping
// correctness theorem (Thm 7.1) and the transformation soundness results
// (Fig. 11a/11b, fence merging). Where the paper proves these statements in
// ~12k lines of Agda, this package verifies them exhaustively over all
// programs up to a size bound — every ✓ in Fig. 11a is confirmed on every
// generated context, and every ✗ is witnessed by a concrete counterexample.
package memmodel

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// OpKind is a litmus operation kind.
type OpKind int

const (
	OpLoad OpKind = iota
	OpStore
	OpRMW // unconditional atomic read-modify-write (reads, then writes Val)
	OpFence
)

// Fence identifies a fence at any level of the translation stack.
type Fence int

const (
	FenceNone Fence = iota
	// x86.
	MFENCE
	// IR (LIMM).
	Frm
	Fww
	Fsc
	// Arm.
	DMBFF
	DMBLD
	DMBST
)

var fenceNames = map[Fence]string{
	MFENCE: "mfence", Frm: "Frm", Fww: "Fww", Fsc: "Fsc",
	DMBFF: "dmb.ff", DMBLD: "dmb.ld", DMBST: "dmb.st",
}

// Op is one instruction of a litmus thread.
type Op struct {
	Kind   OpKind
	Loc    string
	Val    int   // value written (stores, RMW)
	SC     bool  // seq_cst access (LIMM's Rsc/Wsc; x86/Arm accesses ignore it)
	Fence  Fence // for OpFence
	HasExp bool  // RMW with a required read value (the paper's RMW(x,vr,vw))
	Exp    int
	// Acq/Rel mark Arm acquire loads (LDAR) and release stores (STLR),
	// the half-fence accesses of Appendix A.
	Acq bool
	Rel bool
}

// Convenience constructors.
func Ld(loc string) Op         { return Op{Kind: OpLoad, Loc: loc} }
func St(loc string, v int) Op  { return Op{Kind: OpStore, Loc: loc, Val: v} }
func LdSC(loc string) Op       { return Op{Kind: OpLoad, Loc: loc, SC: true} }
func RMW(loc string, v int) Op { return Op{Kind: OpRMW, Loc: loc, Val: v, SC: true} }

// LdA is an Arm acquire load (LDAR) and StR an Arm release store (STLR) —
// the Appendix A half-fence accesses.
func LdA(loc string) Op        { return Op{Kind: OpLoad, Loc: loc, Acq: true} }
func StR(loc string, v int) Op { return Op{Kind: OpStore, Loc: loc, Val: v, Rel: true} }
func Fn(f Fence) Op            { return Op{Kind: OpFence, Fence: f} }

func (o Op) String() string {
	switch o.Kind {
	case OpLoad:
		if o.SC {
			return "Rsc(" + o.Loc + ")"
		}
		return "R(" + o.Loc + ")"
	case OpStore:
		s := fmt.Sprintf("W(%s,%d)", o.Loc, o.Val)
		if o.SC {
			s = "Wsc" + s[1:]
		}
		return s
	case OpRMW:
		if o.HasExp {
			return fmt.Sprintf("RMW(%s,%d,%d)", o.Loc, o.Exp, o.Val)
		}
		return fmt.Sprintf("RMW(%s,%d)", o.Loc, o.Val)
	case OpFence:
		return fenceNames[o.Fence]
	}
	return "?"
}

// Program is a litmus test: initialization writes (default 0) plus threads.
type Program struct {
	Name    string
	Init    map[string]int
	Threads [][]Op

	// locs caches the Locs() result: the bounded checkers enumerate the
	// same program many times and the location universe never changes.
	locs atomic.Pointer[[]string]
}

func (p *Program) String() string {
	var sb strings.Builder
	sb.WriteString(p.Name + ": ")
	for i, t := range p.Threads {
		if i > 0 {
			sb.WriteString(" || ")
		}
		for j, o := range t {
			if j > 0 {
				sb.WriteString("; ")
			}
			sb.WriteString(o.String())
		}
	}
	return sb.String()
}

// Locs returns the sorted set of locations used. The result is computed
// once and cached on the program (enumeration used to re-sort and
// re-allocate it per walk); callers must not mutate the returned slice.
func (p *Program) Locs() []string {
	if c := p.locs.Load(); c != nil {
		return *c
	}
	out := p.appendLocs(nil)
	sort.Strings(out)
	p.locs.Store(&out)
	return out
}

// locsIn is Locs with the result drawn from the arena instead of cached on
// the program. The bounded sweeps construct (or re-point) ephemeral programs
// for every check, so the per-program cache never hits and its allocation
// would dominate; the arena path computes into slab storage and skips
// caching entirely.
func (p *Program) locsIn(a *arena) []string {
	if a == nil {
		return p.Locs()
	}
	if c := p.locs.Load(); c != nil {
		return *c
	}
	n := len(p.Init)
	for _, t := range p.Threads {
		n += len(t)
	}
	out := p.appendLocs(a.strs.take(n)[:0])
	sort.Strings(out)
	return out
}

// appendLocs appends the deduplicated location set to dst.
func (p *Program) appendLocs(dst []string) []string {
	add := func(loc string) {
		for _, l := range dst {
			if l == loc {
				return
			}
		}
		dst = append(dst, loc)
	}
	for l := range p.Init {
		add(l)
	}
	for _, t := range p.Threads {
		for _, o := range t {
			if o.Kind != OpFence {
				add(o.Loc)
			}
		}
	}
	return dst
}

// EvKind classifies events.
type EvKind int

const (
	EvR EvKind = iota
	EvW
	EvF
)

// Event is one execution event (§6.1).
type Event struct {
	ID   int
	Tid  int // -1 for initialization writes
	Idx  int // program order index within the thread
	Kind EvKind
	Loc  string
	Val  int // written value (W) or read value (R, filled per execution)
	SC   bool
	Acq  bool
	Rel  bool
	Fen  Fence
	RMW  int // partner event ID for rmw pairs, else -1
	// HasExp constrains the read value of an expected-value RMW.
	HasExp bool
	Exp    int
}

// Execution is a candidate execution: events plus the rf and co choices.
// The exported RF/CO maps are the stable public view; enumeration walkers
// additionally maintain dense scratch indexes (rfOf, coOrd, coPos) that the
// bitset evaluator reads so the per-candidate path never hashes a map or
// scans a coherence order.
type Execution struct {
	Events []*Event
	RF     map[int]int      // read event ID -> write event ID
	CO     map[string][]int // location -> write event IDs in coherence order
	n      int

	sp    *enumSpace // the enumeration space this execution belongs to (nil for hand-built executions)
	rfOf  []int32    // event ID -> rf source write ID (-1 for non-reads)
	coOrd [][]int    // per location index (sp.locs order): the coherence order
	coPos []int32    // event ID -> position of a write in its location's coherence order
}

// buildEvents lowers a program to its event skeleton (shared across all
// executions). locs is the program's location universe, computed once by the
// caller (it used to be re-derived on every enumeration). A non-nil arena
// supplies the event storage from its slabs.
func buildEvents(p *Program, locs []string, a *arena) []*Event {
	n := len(locs)
	for _, th := range p.Threads {
		for _, o := range th {
			if o.Kind == OpRMW {
				n += 2
			} else {
				n++
			}
		}
	}
	var backing []Event
	var evs []*Event
	if a != nil {
		backing = a.events.take(n)[:0]
		evs = a.evptrs.take(n)[:0]
	} else {
		backing = make([]Event, 0, n) // one allocation for all events
		evs = make([]*Event, 0, n)
	}
	add := func(e Event) *Event {
		e.ID = len(backing)
		backing = append(backing, e)
		ev := &backing[len(backing)-1]
		evs = append(evs, ev)
		return ev
	}
	// Initialization writes.
	for _, loc := range locs {
		add(Event{Tid: -1, Kind: EvW, Loc: loc, Val: p.Init[loc], RMW: -1})
	}
	for tid, th := range p.Threads {
		for idx, o := range th {
			switch o.Kind {
			case OpLoad:
				add(Event{Tid: tid, Idx: idx, Kind: EvR, Loc: o.Loc, SC: o.SC, Acq: o.Acq, RMW: -1})
			case OpStore:
				add(Event{Tid: tid, Idx: idx, Kind: EvW, Loc: o.Loc, Val: o.Val, SC: o.SC, Rel: o.Rel, RMW: -1})
			case OpRMW:
				r := add(Event{Tid: tid, Idx: idx, Kind: EvR, Loc: o.Loc, SC: true, RMW: -1, HasExp: o.HasExp, Exp: o.Exp})
				w := add(Event{Tid: tid, Idx: idx, Kind: EvW, Loc: o.Loc, Val: o.Val, SC: true, RMW: -1})
				r.RMW, w.RMW = w.ID, r.ID
			case OpFence:
				add(Event{Tid: tid, Idx: idx, Kind: EvF, Fen: o.Fence, RMW: -1})
			}
		}
	}
	return evs
}

// poBefore reports program order on skeleton events: same thread, earlier
// index; for rmw pairs the read precedes the write. Initialization writes
// precede everything. It depends only on the skeleton, never on an
// execution's choices.
func poBefore(a, b *Event) bool {
	if a.Tid == -1 && b.Tid != -1 {
		return true
	}
	if a.Tid != b.Tid {
		return false
	}
	if a.Idx != b.Idx {
		return a.Idx < b.Idx
	}
	// Same instruction: rmw read before rmw write.
	return a.Kind == EvR && b.Kind == EvW && a.RMW == b.ID
}

// enumSpace is the shared, read-only description of a program's candidate
// execution space: the event skeleton plus the pruned per-location coherence
// orders and per-read rf choices. It is computed once and then walked by one
// or more enumeration workers, each with its own scratch Execution.
type enumSpace struct {
	skeleton  []*Event
	locs      []string
	coChoices [][][]int // per location: the admissible coherence orders
	reads     []*Event  // skeleton read events, in ID order
	rfChoices [][]int   // per read: candidate source write IDs
	// stat holds the skeleton-invariant relations (po, po|loc, the external
	// pair mask, rmw pairs) hoisted out of the per-execution path.
	stat *statics
}

// newEnumSpaceIn lowers p and enumerates the per-location coherence orders
// with pruning: a coherence prefix placing a write co-before a write that
// precedes it in program order already violates SC-per-location (po|loc ∪ co
// has a 2-cycle) for every rf choice, so such permutations are never built.
// Similarly, rf choices that contradict an RMW's expected read value are
// dropped up front.
//
// Every per-program structure is drawn from the arena (nil = plain
// allocation). Counting passes replace the append patterns of the original
// so slices can be taken at their exact size.
func newEnumSpaceIn(p *Program, a *arena) *enumSpace {
	locs := p.locsIn(a)
	var s *enumSpace
	if a != nil {
		s = &a.spaces.take(1)[0]
		a.orders = a.orders[:0]
	} else {
		s = &enumSpace{}
	}
	s.skeleton, s.locs = buildEvents(p, locs, a), locs
	locIdxOf := func(loc string) int {
		for i, l := range s.locs {
			if l == loc {
				return i
			}
		}
		return -1
	}
	// Count writes per location and reads up front so the arena slices are
	// exact.
	nr := 0
	var writeCounts []int
	if a != nil {
		writeCounts = a.ints.take(len(s.locs))
	} else {
		writeCounts = make([]int, len(s.locs))
	}
	for _, e := range s.skeleton {
		if e.Kind == EvW {
			writeCounts[locIdxOf(e.Loc)]++
		}
		if e.Kind == EvR {
			nr++
		}
	}
	var writesAt [][]*Event
	if a != nil {
		writesAt = a.evptrss.take(len(s.locs))
		for i, c := range writeCounts {
			writesAt[i] = a.evptrs.take(c)[:0]
		}
		s.reads = a.evptrs.take(nr)[:0]
	} else {
		writesAt = make([][]*Event, len(s.locs))
		s.reads = make([]*Event, 0, nr)
	}
	for _, e := range s.skeleton {
		if e.Kind == EvW {
			ci := locIdxOf(e.Loc)
			writesAt[ci] = append(writesAt[ci], e)
		}
		if e.Kind == EvR {
			s.reads = append(s.reads, e)
		}
	}

	if a != nil {
		s.coChoices = a.intsss.take(len(s.locs))
	} else {
		s.coChoices = make([][][]int, len(s.locs))
	}
	for i := range s.locs {
		var initW *Event
		var others []*Event
		if a != nil {
			others = a.evptrs.take(len(writesAt[i]))[:0]
		}
		for _, w := range writesAt[i] {
			if w.Tid == -1 {
				initW = w
			} else {
				others = append(others, w)
			}
		}
		// Build permutations of the non-init writes, pruning any prefix that
		// places a write before one of its po-predecessors. Arena mode
		// collects the permutations into a.orders and slices the result out;
		// the backing may be superseded by a later location's growth, but the
		// superseded block keeps the already-written orders valid.
		var order []int
		var used []bool
		if a != nil {
			order = a.ints.take(len(others) + 1)[:1]
			used = a.bools.take(len(others))
		} else {
			order = make([]int, 1, len(others)+1)
			used = make([]bool, len(others))
		}
		order[0] = initW.ID
		start := 0
		if a != nil {
			start = len(a.orders)
		}
		var rec func()
		rec = func() {
			if len(order) == len(others)+1 {
				var perm []int
				if a != nil {
					perm = a.ints.take(len(order))
					copy(perm, order)
					a.orders = append(a.orders, perm)
				} else {
					perm = append([]int(nil), order...)
					s.coChoices[i] = append(s.coChoices[i], perm)
				}
				return
			}
			for k, w := range others {
				if used[k] {
					continue
				}
				// w may be placed next only if every unplaced write is not a
				// po-predecessor of w.
				ok := true
				for k2, w2 := range others {
					if k2 != k && !used[k2] && poBefore(w2, w) {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				used[k] = true
				order = append(order, w.ID)
				rec()
				order = order[:len(order)-1]
				used[k] = false
			}
		}
		rec()
		if a != nil {
			s.coChoices[i] = a.orders[start:len(a.orders):len(a.orders)]
		}
	}

	if a != nil {
		s.rfChoices = a.intss.take(len(s.reads))
	} else {
		s.rfChoices = make([][]int, len(s.reads))
	}
	for i, r := range s.reads {
		rfOK := func(w *Event) bool {
			if w.RMW == r.ID {
				return false // an rmw's own write cannot feed its read
			}
			if r.HasExp && w.Val != r.Exp {
				return false // expected-value RMW: this rf can never satisfy it
			}
			return true
		}
		ws := writesAt[locIdxOf(r.Loc)]
		if a != nil {
			n := 0
			for _, w := range ws {
				if rfOK(w) {
					n++
				}
			}
			s.rfChoices[i] = a.ints.take(n)[:0]
		}
		for _, w := range ws {
			if rfOK(w) {
				s.rfChoices[i] = append(s.rfChoices[i], w.ID)
			}
		}
	}
	s.stat = buildStatics(s.skeleton, s.locs, s.reads, a)
	return s
}

// walker is one enumeration worker's scratch state: a private copy of the
// events (read values are filled in place per rf assignment) and a reusable
// Execution handed to the visit callback.
//
// A dense walker leaves the exported RF/CO maps nil and maintains only the
// dense arrays: the internal behavior folds read nothing else, and skipping
// the two map writes per enumeration node (one of them string-hashed)
// measurably speeds up the bounded checkers. VisitExecutions uses a
// non-dense walker so callbacks see the documented maps.
type walker struct {
	s      *enumSpace
	events []Event // private event storage (nil for an aliasing walker)
	x      *Execution
	lim    *limiter // nil = unbounded
}

func (s *enumSpace) newWalker(dense bool) *walker {
	w := &walker{s: s, events: make([]Event, len(s.skeleton))}
	evs := make([]*Event, len(s.skeleton))
	for i, e := range s.skeleton {
		w.events[i] = *e
		evs[i] = &w.events[i]
	}
	w.finish(evs, dense, nil)
	return w
}

// newAliasWalkerIn builds a dense walker that mutates the space's skeleton
// events in place instead of copying them, with the walker scratch drawn
// from the arena. Only valid when this walker is the sole user of the space
// — the single-threaded behavior folds — where it saves the per-program
// event copy.
func (s *enumSpace) newAliasWalkerIn(a *arena) *walker {
	var w *walker
	if a != nil {
		w = &a.walkers.take(1)[0]
	} else {
		w = &walker{}
	}
	w.s = s
	w.finish(s.skeleton, true, a)
	return w
}

func (w *walker) finish(evs []*Event, dense bool, a *arena) {
	s := w.s
	n := len(s.skeleton)
	var idx []int32
	var x *Execution
	var coOrd [][]int
	if a != nil {
		idx = a.int32s.take(2 * n)
		x = &a.execs.take(1)[0]
		coOrd = a.intss.take(len(s.locs))
	} else {
		idx = make([]int32, 2*n) // rfOf and coPos share one backing array
		x = &Execution{}
		coOrd = make([][]int, len(s.locs))
	}
	w.x = x
	*w.x = Execution{
		Events: evs,
		n:      n,
		sp:     s,
		rfOf:   idx[:n:n],
		coOrd:  coOrd,
		coPos:  idx[n:],
	}
	if !dense {
		w.x.RF = make(map[int]int, len(s.reads))
		w.x.CO = make(map[string][]int, len(s.locs))
	}
	for i := range w.x.rfOf {
		w.x.rfOf[i] = -1
	}
}

// walkReads enumerates rf assignments for reads[ri:] on top of the walker's
// current co/rf prefix, calling visit with the scratch Execution at each
// leaf.
func (w *walker) walkReads(ri int, visit func(*Execution)) {
	if ri == len(w.s.reads) {
		visit(w.x)
		return
	}
	for _, src := range w.s.rfChoices[ri] {
		w.assign(ri, src)
		w.walkReads(ri+1, visit)
	}
}

// assign makes write src the rf source of reads[ri] on the walker's scratch
// execution, filling the read's value from it.
func (w *walker) assign(ri, src int) {
	r := w.s.reads[ri]
	if w.x.RF != nil {
		w.x.RF[r.ID] = src
	}
	w.x.rfOf[r.ID] = int32(src)
	w.x.Events[r.ID].Val = w.x.Events[src].Val
}

// setCo assigns one location's coherence order on the walker's scratch
// execution, updating the exported CO map, the dense per-location order
// table and the coPos index together.
func (w *walker) setCo(ci int, order []int) {
	if w.x.CO != nil {
		w.x.CO[w.s.locs[ci]] = order
	}
	w.x.coOrd[ci] = order
	for p, id := range order {
		w.x.coPos[id] = int32(p)
	}
}

// walkCo enumerates coherence orders for locs[ci:], then descends into rf.
func (w *walker) walkCo(ci int, visit func(*Execution)) {
	if ci == len(w.s.locs) {
		w.walkReads(0, visit)
		return
	}
	for _, order := range w.s.coChoices[ci] {
		w.setCo(ci, order)
		w.walkCo(ci+1, visit)
	}
}

// VisitExecutions streams every candidate execution of p (all rf choices ×
// all admissible coherence orders) to visit, filling read values from rf.
// Coherence orders that contradict po on their location — and rf choices
// that contradict an RMW's expected value — are pruned during construction;
// both could never appear in a consistent execution of any supported model.
//
// The *Execution passed to visit is a scratch value reused between calls:
// visitors must copy anything they retain.
//
// The behavior folds do not visit every candidate: they prune inconsistent
// subtrees. This unpruned walk is the oracle the tests compare them with.
func VisitExecutions(p *Program, visit func(*Execution)) {
	newEnumSpaceIn(p, nil).newWalker(false).walkCo(0, visit)
}

// Behavior is the observable result of an execution: the co-maximal value
// per location (the paper's Behav), optionally extended with every read's
// observed value. Reads are keyed "t<tid>.<loc>.<k>" where k is the
// occurrence index of that location's reads within the thread — a keying
// that is stable under the reordering and elimination transformations.
type Behavior struct {
	Finals string
	Reads  map[string]int
}

// Key returns a canonical string for map keys.
func (b Behavior) Key(withReads bool) string {
	if !withReads {
		return b.Finals
	}
	keys := make([]string, 0, len(b.Reads))
	for k := range b.Reads {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString(b.Finals)
	sb.WriteString("#")
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%d;", k, b.Reads[k])
	}
	return sb.String()
}

// behaviorOf extracts the behavior of a consistent execution from an
// enumeration walker, using the precomputed location order and read slot
// keys of its enumeration space (no re-sorting, no per-read key
// formatting).
func (x *Execution) behaviorOf() Behavior {
	k := x.sp.stat
	var sb strings.Builder
	for ci, l := range k.locs {
		if ci > 0 {
			sb.WriteString(";")
		}
		order := x.coOrd[ci]
		fmt.Fprintf(&sb, "%s=%d", l, x.Events[order[len(order)-1]].Val)
	}
	rd := make(map[string]int, len(k.reads))
	for si, r := range k.reads {
		rd[k.readKeys[si]] = x.Events[r.ID].Val
	}
	return Behavior{Finals: sb.String(), Reads: rd}
}

// BehaviorsOf returns the behaviors of p's consistent executions under the
// model, keyed canonically. Executions are streamed, never materialized: the
// relation buffer is reused across candidates, so the peak footprint is one
// execution regardless of how many candidates the program has.
func BehaviorsOf(p *Program, m Model, withReads bool) map[string]Behavior {
	out, _ := BehaviorsOfBudget(p, m, withReads, Budget{}) // unbounded: cannot fail
	return out
}
