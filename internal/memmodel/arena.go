package memmodel

import "sync"

// This file implements the preallocated scratch arena behind the serial
// bounded checkers. The enumeration core was already allocation-free in its
// steady state *within* one program (see the walker/evaluator arenas), but
// the bounded sweeps — the Fig. 11a reorder checker, the Thm 7.1 exhaustive
// mapping campaigns — build tens of thousands of tiny enumeration spaces per
// second, and every newEnumSpaceIn/buildStatics/evaluator constructor paid a
// fresh round of small allocations. The arena batches all of those into a
// handful of grow-only slabs that are reset between checks, so the
// steady-state cost of checking one more program is (amortized) zero
// allocations for the enumeration machinery itself.
//
// Slab discipline: take() hands out a cleared, capacity-clamped sub-slice of
// the current block; reset() rewinds the block without freeing it. When a
// block is exhausted mid-cycle a bigger one is allocated and the old block
// stays alive behind the slices already handed out — stale but valid — so
// takes never invalidate earlier takes. After a few cycles one block covers
// a whole check and the slab stops allocating.

type slab[T any] struct {
	buf []T
	off int
}

func (s *slab[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	if s.off+n > len(s.buf) {
		sz := 2 * len(s.buf)
		if sz < n {
			sz = n
		}
		if sz < 64 {
			sz = 64
		}
		s.buf = make([]T, sz)
		s.off = 0
	}
	out := s.buf[s.off : s.off+n : s.off+n]
	s.off += n
	clear(out)
	return out
}

func (s *slab[T]) reset() { s.off = 0 }

// arena pools every per-program structure of the serial fold path. A nil
// *arena is valid everywhere and falls back to plain allocation, so the
// pooled and unpooled paths share one implementation. An arena is not safe
// for concurrent use; parallel sweeps hold one per worker (see
// checkScratchPool).
//
// Lifetime contract: everything taken from the arena is valid until the next
// reset(). One reset cycle covers one "check" — typically a source fold plus
// a target fold whose behavior sets are compared before the next reset — so
// inclusion checks may freely hold both folds' sets at once.
type arena struct {
	words   slab[uint64]
	rels    slab[relation]
	ints    slab[int]
	int32s  slab[int32]
	bools   slab[bool]
	events  slab[Event]
	evptrs  slab[*Event]
	evptrss slab[[]*Event]
	strs    slab[string]
	rmwps   slab[rmwPair]
	intss   slab[[]int]
	intsss  slab[[][]int]
	spaces  slab[enumSpace]
	stats   slab[statics]
	walkers slab[walker]
	execs   slab[Execution]
	evals   slab[evaluator]

	// orders accumulates the per-location coherence permutations of the
	// space under construction; coChoices holds sub-slices of it. It is
	// rewound per space, not per reset: only the space being enumerated
	// reads it.
	orders [][]int

	// keys interns read behavior keys ("t0.X.1") across the arena's whole
	// lifetime — the key universe of a bounded sweep is tiny and shared by
	// almost every program, so after warmup key construction allocates
	// nothing.
	keys   map[string]string
	keyBuf []byte

	// bsets recycles behavior sets (two per inclusion check).
	bsets []*behaviorSet
	bcur  int

	// lim is the budget limiter of the fold in progress, re-armed per fold
	// so a bounded check needs no newLimiter.
	lim limiter
}

// reset rewinds every slab for the next check. Interned keys and recycled
// behavior sets survive resets by design.
func (a *arena) reset() {
	if a == nil {
		return
	}
	a.words.reset()
	a.rels.reset()
	a.ints.reset()
	a.int32s.reset()
	a.bools.reset()
	a.events.reset()
	a.evptrs.reset()
	a.evptrss.reset()
	a.strs.reset()
	a.rmwps.reset()
	a.intss.reset()
	a.intsss.reset()
	a.spaces.reset()
	a.stats.reset()
	a.walkers.reset()
	a.execs.reset()
	a.evals.reset()
	a.bcur = 0
}

// newRel is the arena-aware newRel: nil falls back to a fresh allocation.
func (a *arena) newRel(n int) *relation {
	if a == nil {
		return newRel(n)
	}
	return &a.relArena(n, 1)[0]
}

// relArena is the arena-aware newRelArena.
func (a *arena) relArena(n, count int) []relation {
	if a == nil {
		return newRelArena(n, count)
	}
	w := (n + 63) / 64
	if w == 0 {
		w = 1
	}
	row := n * w
	rs := a.rels.take(count)
	backing := a.words.take(count * row)
	for i := range rs {
		rs[i] = relation{n: n, w: w, bits: backing[i*row : (i+1)*row : (i+1)*row]}
	}
	return rs
}

// limiter is the arena-aware newLimiter: the arena's own limiter, re-armed
// for b. Only one fold at a time may hold it.
func (a *arena) limiter(b Budget) *limiter {
	if a == nil {
		return newLimiter(b)
	}
	return a.lim.reset(b)
}

// internKey returns the canonical interned copy of the key bytes in
// a.keyBuf, allocating only the first time a key is seen.
func (a *arena) internKey() string {
	if a.keys == nil {
		a.keys = make(map[string]string, 64)
	}
	if s, ok := a.keys[string(a.keyBuf)]; ok {
		return s
	}
	s := string(a.keyBuf)
	a.keys[s] = s
	return s
}

// behaviorSet hands out a recycled (or fresh) behavior set bound to k.
func (a *arena) behaviorSet(k *statics, withReads bool) *behaviorSet {
	if a == nil {
		return newBehaviorSet(k, withReads)
	}
	if a.bcur == len(a.bsets) {
		a.bsets = append(a.bsets, &behaviorSet{interned: map[ikey]struct{}{}})
	}
	bs := a.bsets[a.bcur]
	a.bcur++
	bs.k, bs.withReads = k, withReads
	clear(bs.interned)
	bs.slow = nil
	return bs
}

// CheckScratch is the reusable scratch state of one serial bounded-checker
// worker: the enumeration arena plus the mapped program of
// CheckSchemeScratch. It exists so sweeps that check thousands of programs
// (the reorder table, the campaign engine) amortize all per-program setup
// allocations. Not safe for concurrent use; hold one per goroutine.
type CheckScratch struct {
	a arena

	// tgt is the mapped program, rewritten in place per check; its threads
	// are capacity-capped windows of the flat op slab ops.
	tgt Program
	ops []Op
}

// NewCheckScratch returns an empty scratch; the first few checks grow its
// slabs, after which a CheckSchemeScratch check allocates nothing.
func NewCheckScratch() *CheckScratch { return &CheckScratch{} }

// mapped writes the image of src under s into sc's reusable target and
// returns it, named after src (see checkInclusion). Each thread is capped at
// its own length, so an append to thread i cannot run into thread i+1.
// When the slab grows mid-program the earlier threads stay behind in the old
// block — stale storage, but valid, as in the arena's slabs.
func (sc *CheckScratch) mapped(src *Program, s Scheme) *Program {
	t := &sc.tgt
	t.Reset(src.Name, src.Init, t.Threads[:0])
	ops := sc.ops[:0]
	for _, th := range src.Threads {
		start := len(ops)
		for _, o := range th {
			ops = s.Rule(ops, o)
		}
		t.Threads = append(t.Threads, ops[start:len(ops):len(ops)])
	}
	sc.ops = ops
	return t
}

// checkScratchPool recycles scratches for package-internal sweeps (the
// Fig. 11a cells) whose workers are anonymous pool goroutines.
var checkScratchPool = sync.Pool{New: func() any { return NewCheckScratch() }}
