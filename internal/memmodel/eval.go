package memmodel

import (
	"strconv"
	"strings"
)

// rmwPair is one rmw read/write event pair of the skeleton.
type rmwPair struct{ r, w int }

// statics holds every relation and lookup table that depends only on a
// program's event skeleton — not on any execution's rf/co choice. It is
// computed once per program in newEnumSpaceIn and then shared read-only by
// every enumeration worker: the per-execution path only ORs the
// execution-varying edges on top (see evaluator.consistent).
type statics struct {
	n      int
	events []*Event // skeleton events in ID order
	locs   []string // sorted location universe
	reads  []*Event // skeleton read events in ID order

	po    *relation // full program order (init writes precede everything)
	poLoc *relation // po restricted to same-location non-fence pairs
	// ext marks "external" pairs — neither po(a,b) nor po(b,a) — which is
	// exactly the side condition defining rfe/coe/fre. It is symmetric.
	ext *relation

	rmws   []rmwPair
	locIdx []int // event ID -> index into locs (-1 for fences)
	// readKeys are the canonical per-read behavior keys
	// ("t<tid>.<loc>.<k>"), precomputed so behavior extraction never
	// re-sorts or re-formats in the hot loop. readSorted lists read indexes
	// in lexicographic key order — the order Behavior.Key emits them — and
	// readSlot inverts it (read index -> canonical slot). Packing read
	// values by canonical slot makes interned keys comparable across two
	// programs whenever their location and read-key layouts agree.
	readKeys   []string
	readSorted []int
	readSlot   []int
}

// buildStatics hoists the skeleton-invariant relations of an event skeleton.
// A non-nil arena supplies the relation words, index slices and interned
// read-key strings.
func buildStatics(events []*Event, locs []string, reads []*Event, a *arena) *statics {
	n := len(events)
	rels := a.relArena(n, 3)
	var k *statics
	if a != nil {
		k = &a.stats.take(1)[0]
	} else {
		k = &statics{}
	}
	*k = statics{
		n: n, events: events, locs: locs, reads: reads,
		po: &rels[0], poLoc: &rels[1], ext: &rels[2],
	}
	if a != nil {
		k.locIdx = a.ints.take(n)
	} else {
		k.locIdx = make([]int, n)
	}
	nrmw := 0
	for _, e := range events {
		if e.Kind == EvR && e.RMW >= 0 {
			nrmw++
		}
	}
	if a != nil {
		k.rmws = a.rmwps.take(nrmw)[:0]
	}
	for _, e := range events {
		k.locIdx[e.ID] = -1
		if e.Kind != EvF {
			for i, l := range locs { // location universes are tiny; no map
				if l == e.Loc {
					k.locIdx[e.ID] = i
					break
				}
			}
		}
		if e.Kind == EvR && e.RMW >= 0 {
			k.rmws = append(k.rmws, rmwPair{r: e.ID, w: e.RMW})
		}
	}
	for _, a := range events {
		for _, b := range events {
			if a.ID == b.ID {
				continue
			}
			if poBefore(a, b) {
				k.po.set(a.ID, b.ID)
				if a.Kind != EvF && b.Kind != EvF && a.Loc == b.Loc {
					k.poLoc.set(a.ID, b.ID)
				}
			}
		}
	}
	for _, a := range events {
		for _, b := range events {
			if a.ID != b.ID && !k.po.has(a.ID, b.ID) && !k.po.has(b.ID, a.ID) {
				k.ext.set(a.ID, b.ID)
			}
		}
	}
	// Read slot keys, in (tid, idx) order — which is ID order, because
	// buildEvents lowers threads in order and ops in order. The occurrence
	// index is counted by scanning earlier reads: the handful of reads per
	// litmus program makes that cheaper than a counting map. Arena mode
	// interns the key strings, so a bounded sweep builds each distinct key
	// exactly once.
	if a != nil {
		k.readKeys = a.strs.take(len(reads))
	} else {
		k.readKeys = make([]string, len(reads))
	}
	for i, r := range reads {
		occ := 0
		for _, prev := range reads[:i] {
			if prev.Tid == r.Tid && prev.Loc == r.Loc {
				occ++
			}
		}
		if a != nil {
			a.keyBuf = append(a.keyBuf[:0], 't')
			a.keyBuf = strconv.AppendInt(a.keyBuf, int64(r.Tid), 10)
			a.keyBuf = append(a.keyBuf, '.')
			a.keyBuf = append(a.keyBuf, r.Loc...)
			a.keyBuf = append(a.keyBuf, '.')
			a.keyBuf = strconv.AppendInt(a.keyBuf, int64(occ), 10)
			k.readKeys[i] = a.internKey()
		} else {
			k.readKeys[i] = "t" + strconv.Itoa(r.Tid) + "." + r.Loc + "." + strconv.Itoa(occ)
		}
	}
	// Canonical slot order = lexicographic key order (what Behavior.Key
	// emits). Insertion sort: a handful of reads, and sort.Slice's reflection
	// setup would cost more than the sort.
	if a != nil {
		k.readSorted = a.ints.take(len(reads))
		k.readSlot = a.ints.take(len(reads))
	} else {
		k.readSorted = make([]int, len(reads))
		k.readSlot = make([]int, len(reads))
	}
	for i := range k.readSorted {
		k.readSorted[i] = i
	}
	for i := 1; i < len(k.readSorted); i++ {
		for j := i; j > 0 && k.readKeys[k.readSorted[j]] < k.readKeys[k.readSorted[j-1]]; j-- {
			k.readSorted[j], k.readSorted[j-1] = k.readSorted[j-1], k.readSorted[j]
		}
	}
	for slot, si := range k.readSorted {
		k.readSlot[si] = slot
	}
	return k
}

// evaluator is one enumeration worker's consistency checker. It keeps, for
// every enumeration depth d (reads[:d] have rf sources), the transitive
// closures of the partial execution's two order graphs — the model order
// graph and the SC-per-location graph — so a child node is checked by
// extending its parent's closures with the one read it assigns (see extend)
// instead of rebuilding and re-closing both graphs. After construction,
// check and extend perform zero heap allocations.
type evaluator struct {
	k       *statics
	m       Model
	ms      *relation  // the model's skeleton-static order (m.static(k))
	g       []relation // per depth: closure of the model order graph
	s       []relation // per depth: closure of the SC-per-location graph
	in, out []uint64   // scratch rows for extend
}

// newEvaluatorShared builds an evaluator for one enumeration of sp under m
// around a precomputed (read-only) model static order, so parallel workers
// hoist it once per enumeration rather than once per worker.
func newEvaluatorShared(sp *enumSpace, m Model, ms *relation) *evaluator {
	return newEvaluatorIn(sp, m, ms, nil)
}

// newEvaluatorIn is newEvaluatorShared with the scratch relations drawn from
// the arena.
func newEvaluatorIn(sp *enumSpace, m Model, ms *relation, a *arena) *evaluator {
	k := sp.stat
	depths := len(k.reads) + 1
	levels := a.relArena(k.n, 2*depths)
	w := levels[0].w
	var ev *evaluator
	var rows []uint64
	if a != nil {
		ev = &a.evals.take(1)[0]
		rows = a.words.take(2 * w)
	} else {
		ev = &evaluator{}
		rows = make([]uint64, 2*w)
	}
	*ev = evaluator{k: k, m: m, ms: ms, g: levels[:depths], s: levels[depths:],
		in: rows[:w:w], out: rows[w:]}
	return ev
}

// addDynamic ORs the execution-varying edges into g: rf (write→read), co
// (per-location total order pairs) and fr (read → writes co-after its
// source), each restricted to external pairs when the corresponding flag is
// set. It reads only the walker-maintained dense arrays (rfOf, coOrd,
// coPos), never the exported maps, and allocates nothing.
func (e *evaluator) addDynamic(g *relation, x *Execution, extRF, extCO, extFR bool) {
	k := e.k
	for _, r := range k.reads {
		src := int(x.rfOf[r.ID])
		if src < 0 {
			continue
		}
		if !extRF || k.ext.has(src, r.ID) {
			g.set(src, r.ID)
		}
	}
	for _, order := range x.coOrd {
		for i := 0; i < len(order); i++ {
			for j := i + 1; j < len(order); j++ {
				if !extCO || k.ext.has(order[i], order[j]) {
					g.set(order[i], order[j])
				}
			}
		}
	}
	for _, r := range k.reads {
		src := int(x.rfOf[r.ID])
		if src < 0 {
			continue
		}
		order := x.coOrd[k.locIdx[r.ID]]
		for p := int(x.coPos[src]) + 1; p < len(order); p++ {
			w := order[p]
			if !extFR || k.ext.has(r.ID, w) {
				g.set(r.ID, w)
			}
		}
	}
}

// check decides the full §6.2 consistency predicate — SC-per-location,
// atomicity, and the model axiom — on x from scratch, leaving the closures
// of both order graphs at depth d for extend to build on. x may be partial:
// reads without an rf source contribute no edges. Zero heap allocations.
func (e *evaluator) check(x *Execution, d int) bool {
	// SC-per-location: (po|loc ∪ rf ∪ co ∪ fr) acyclic.
	s := &e.s[d]
	s.copyFrom(e.k.poLoc)
	e.addDynamic(s, x, false, false, false)
	if !s.acyclic() {
		return false
	}
	if !e.atomicity(x) {
		return false
	}
	// The model axiom: (static ∪ dynamic)+ irreflexive.
	g := &e.g[d]
	g.copyFrom(e.ms)
	e.addDynamic(g, x, e.m.extRF, e.m.extCO, e.m.extFR)
	return g.acyclic()
}

// extend decides the same predicate as check for an execution whose depth
// d-1 prefix passed check or extend, after reads[d-1] gained its rf source.
// Only that read's rf edge, its fr edges and its own rmw pair are new, so
// the closures at depth d follow from those at depth d-1 (see addRead).
func (e *evaluator) extend(x *Execution, d int) bool {
	r := e.k.reads[d-1]
	if r.RMW >= 0 && !e.atomic(x, rmwPair{r: r.ID, w: r.RMW}) {
		return false
	}
	return e.addRead(&e.s[d], &e.s[d-1], x, r.ID, false, false) &&
		e.addRead(&e.g[d], &e.g[d-1], x, r.ID, e.m.extRF, e.m.extFR)
}

// addRead writes to dst the closure of c's graph plus read r's rf and fr
// edges (restricted to external pairs when the flags say so), and reports
// false if those edges close a cycle. c must be the closure of an acyclic
// graph. Every new edge touches r, so a new cycle runs through r: it exists
// exactly when something r now reaches also reaches r. Otherwise the new
// paths are those from a node reaching r (in) to r or a node r reaches
// (out).
func (e *evaluator) addRead(dst, c *relation, x *Execution, r int, extRF, extFR bool) bool {
	k := e.k
	in, out := e.in, e.out
	copy(out, c.row(r))
	src := int(x.rfOf[r])
	order := x.coOrd[k.locIdx[r]]
	for p := int(x.coPos[src]) + 1; p < len(order); p++ {
		if w := order[p]; !extFR || k.ext.has(r, w) {
			setBit(out, w)
			orRow(out, c.row(w))
		}
	}
	clear(in)
	rf := !extRF || k.ext.has(src, r)
	for v := 0; v < c.n; v++ {
		if c.has(v, r) || rf && (v == src || c.has(v, src)) {
			setBit(in, v)
		}
	}
	if hasBit(in, r) || hasBit(out, r) || intersects(in, out) {
		return false
	}
	dst.copyFrom(c)
	orRow(dst.row(r), out)
	setBit(out, r)
	for v := 0; v < c.n; v++ {
		if hasBit(in, v) {
			orRow(dst.row(v), out)
		}
	}
	return true
}

// atomicity checks rmw ∩ (fre;coe) = ∅ (§6.2) over every rmw pair whose
// read has an rf source.
func (e *evaluator) atomicity(x *Execution) bool {
	for _, p := range e.k.rmws {
		if !e.atomic(x, p) {
			return false
		}
	}
	return true
}

// atomic checks atomicity for one rmw pair without materializing fre or
// coe: a violating write w' must sit strictly between the rmw read's rf
// source and the rmw write in their location's coherence order, so the
// dense coPos index reduces the check to a scan of that co segment. A read
// with no rf source yet passes.
func (e *evaluator) atomic(x *Execution, p rmwPair) bool {
	k := e.k
	src := int(x.rfOf[p.r])
	if src < 0 {
		return true
	}
	i, j := int(x.coPos[src]), int(x.coPos[p.w])
	order := x.coOrd[k.locIdx[p.r]]
	for t := i + 1; t < j; t++ {
		wp := order[t]
		if k.ext.has(p.r, wp) && k.ext.has(wp, p.w) {
			return false
		}
	}
	return true
}

// ikey is an interned behavior key: up to 16 observation slots (the final
// value per location in locs order, then — when reads are observed — every
// read's value in canonical readSorted order), packed 8 bits per slot. Two
// executions get equal keys iff their behaviors are equal, and because the
// slot layout is canonical, keys are comparable *across* two programs
// whenever their layouts agree (see comparable). The string Behavior.Key
// form is only materialized on demand, outside the enumeration hot loop.
type ikey struct{ hi, lo uint64 }

// slot extracts observation slot s of the packed key.
func (key ikey) slot(s int) int {
	if s < 8 {
		return int(key.lo >> (8 * uint(s)) & 0xff)
	}
	return int(key.hi >> (8 * uint(s-8)) & 0xff)
}

// behaviorSet folds the behaviors of consistent executions, interning
// canonical packed keys so the steady-state path is one map assignment per
// consistent execution — no string building, no Behavior values. The slow
// map catches programs whose values overflow the packed encoding (>255 or
// more than 16 observation slots) — none of the generated litmus families
// do, but correctness never depends on the fast path.
type behaviorSet struct {
	k         *statics
	withReads bool
	interned  map[ikey]struct{}
	slow      map[string]Behavior
}

func newBehaviorSet(k *statics, withReads bool) *behaviorSet {
	return &behaviorSet{k: k, withReads: withReads, interned: map[ikey]struct{}{}}
}

// pack encodes x's behavior into an ikey. ok=false means the behavior does
// not fit the packed encoding and the caller must take the string path.
func (bs *behaviorSet) pack(x *Execution) (ikey, bool) {
	k := bs.k
	slots := len(k.locs)
	if bs.withReads {
		slots += len(k.reads)
	}
	if slots > 16 {
		return ikey{}, false
	}
	var key ikey
	put := func(slot, v int) bool {
		if uint(v) > 255 {
			return false
		}
		if slot < 8 {
			key.lo |= uint64(v) << (8 * uint(slot))
		} else {
			key.hi |= uint64(v) << (8 * uint(slot-8))
		}
		return true
	}
	for ci := range k.locs {
		order := x.coOrd[ci]
		if !put(ci, x.Events[order[len(order)-1]].Val) {
			return ikey{}, false
		}
	}
	if bs.withReads {
		for si, r := range k.reads {
			if !put(len(k.locs)+k.readSlot[si], x.Events[r.ID].Val) {
				return ikey{}, false
			}
		}
	}
	return key, true
}

// hasKey reports whether a packed behavior is already in the set.
func (bs *behaviorSet) hasKey(key ikey) bool {
	_, ok := bs.interned[key]
	return ok
}

// insert is add with x's behavior already packed; packed is pack's ok.
func (bs *behaviorSet) insert(x *Execution, key ikey, packed bool) {
	if !packed {
		b := x.behaviorOf()
		if bs.slow == nil {
			bs.slow = map[string]Behavior{}
		}
		bs.slow[b.Key(bs.withReads)] = b
		return
	}
	bs.interned[key] = struct{}{}
}

// merge folds another set over the same enumeration space into bs.
func (bs *behaviorSet) merge(other *behaviorSet) {
	for key := range other.interned {
		bs.interned[key] = struct{}{}
	}
	for k, b := range other.slow {
		if bs.slow == nil {
			bs.slow = map[string]Behavior{}
		}
		bs.slow[k] = b
	}
}

// comparable reports whether two sets' interned keys decide behavior
// equality directly: same observation mode, identical location universes and
// identical canonical read-key sequences, and nothing on either slow path.
// This is what lets the inclusion checkers compare a source and a target
// program without ever materializing behavior strings.
func (bs *behaviorSet) comparable(other *behaviorSet) bool {
	a, b := bs.k, other.k
	if a == nil || b == nil || bs.withReads != other.withReads ||
		len(bs.slow) > 0 || len(other.slow) > 0 || len(a.locs) != len(b.locs) {
		return false
	}
	for i := range a.locs {
		if a.locs[i] != b.locs[i] {
			return false
		}
	}
	if !bs.withReads {
		return true
	}
	if len(a.readKeys) != len(b.readKeys) {
		return false
	}
	for i := range a.readSorted {
		if a.readKeys[a.readSorted[i]] != b.readKeys[b.readSorted[i]] {
			return false
		}
	}
	return true
}

// keyString materializes the canonical Behavior.Key string of an interned
// key — byte-identical to behaviorFromKey(key).Key(bs.withReads).
func (bs *behaviorSet) keyString(key ikey) string {
	k := bs.k
	var sb strings.Builder
	for ci, l := range k.locs {
		if ci > 0 {
			sb.WriteByte(';')
		}
		sb.WriteString(l)
		sb.WriteByte('=')
		sb.WriteString(strconv.Itoa(key.slot(ci)))
	}
	if !bs.withReads {
		return sb.String()
	}
	sb.WriteByte('#')
	for i, si := range k.readSorted {
		sb.WriteString(k.readKeys[si])
		sb.WriteByte('=')
		sb.WriteString(strconv.Itoa(key.slot(len(k.locs) + i)))
		sb.WriteByte(';')
	}
	return sb.String()
}

// behaviorFromKey reconstructs the Behavior value of an interned key. When
// reads are not observed the key carries no read values, so Reads is empty —
// callers observing finals only never consult it.
func (bs *behaviorSet) behaviorFromKey(key ikey) Behavior {
	k := bs.k
	var sb strings.Builder
	for ci, l := range k.locs {
		if ci > 0 {
			sb.WriteByte(';')
		}
		sb.WriteString(l)
		sb.WriteByte('=')
		sb.WriteString(strconv.Itoa(key.slot(ci)))
	}
	rd := map[string]int{}
	if bs.withReads {
		for i, si := range k.readSorted {
			rd[k.readKeys[si]] = key.slot(len(k.locs) + i)
		}
	}
	return Behavior{Finals: sb.String(), Reads: rd}
}

// result converts the interned set to the canonical string-keyed map the
// public API returns.
func (bs *behaviorSet) result() map[string]Behavior {
	out := make(map[string]Behavior, len(bs.interned)+len(bs.slow))
	for key := range bs.interned {
		out[bs.keyString(key)] = bs.behaviorFromKey(key)
	}
	for k, b := range bs.slow {
		out[k] = b
	}
	return out
}
