package memmodel

import (
	"fmt"
	"sort"
	"strings"
)

// This file retains the original map/[]bool checking core verbatim as a
// reference implementation. The production engine (bitrel.go, eval.go) packs
// relations into word-wide bitsets and hoists skeleton-invariant relations
// out of the per-execution path; the differential oracle tests run both over
// randomized litmus programs and require identical behavior sets.

// boolRel is the reference n×n adjacency matrix: one bool per pair.
type boolRel struct {
	n int
	m []bool
}

func newBoolRel(n int) *boolRel { return &boolRel{n: n, m: make([]bool, n*n)} }

func (r *boolRel) set(a, b int)      { r.m[a*r.n+b] = true }
func (r *boolRel) has(a, b int) bool { return r.m[a*r.n+b] }
func (r *boolRel) clear() {
	for i := range r.m {
		r.m[i] = false
	}
}
func (r *boolRel) union(o *boolRel) {
	for i := range r.m {
		r.m[i] = r.m[i] || o.m[i]
	}
}

// transitiveClosure computes r+ in place (scalar Floyd-Warshall).
func (r *boolRel) transitiveClosure() {
	for k := 0; k < r.n; k++ {
		for i := 0; i < r.n; i++ {
			if !r.has(i, k) {
				continue
			}
			for j := 0; j < r.n; j++ {
				if r.has(k, j) {
					r.set(i, j)
				}
			}
		}
	}
}

func (r *boolRel) irreflexive() bool {
	for i := 0; i < r.n; i++ {
		if r.has(i, i) {
			return false
		}
	}
	return true
}

// rels is the reference relation set: po plus the per-execution rf/co/fr
// matrices and their external subsets, all recomputed per execution.
type rels struct {
	n             int
	events        []*Event
	poR           *boolRel // full po
	rf, co, fr    *boolRel
	rfe, coe, fre *boolRel
	rmw           *boolRel
}

func (x *Execution) relations() *rels { return x.relationsInto(nil) }

// relationsInto computes the relation set, reusing buf's matrices when it
// was built for the same event skeleton (same size and same backing events,
// as during one streamed enumeration). The program-order and rmw relations
// depend only on the skeleton, so a reused buffer keeps them as-is.
func (x *Execution) relationsInto(buf *rels) *rels {
	n := x.n
	var r *rels
	reuse := buf != nil && buf.n == n && len(buf.events) == len(x.Events) &&
		len(x.Events) > 0 && buf.events[0] == x.Events[0]
	if reuse {
		r = buf
		for _, m := range []*boolRel{r.rf, r.co, r.fr, r.rfe, r.coe, r.fre} {
			m.clear()
		}
	} else {
		r = &rels{
			n: n, events: x.Events,
			poR: newBoolRel(n), rf: newBoolRel(n), co: newBoolRel(n), fr: newBoolRel(n),
			rfe: newBoolRel(n), coe: newBoolRel(n), fre: newBoolRel(n), rmw: newBoolRel(n),
		}
	}
	byID := x.Events // events are stored in dense ID order
	if !reuse {
		for _, a := range x.Events {
			for _, b := range x.Events {
				if a.ID != b.ID && x.po(a, b) {
					r.poR.set(a.ID, b.ID)
				}
			}
		}
		for _, e := range x.Events {
			if e.Kind == EvR && e.RMW >= 0 {
				r.rmw.set(e.ID, e.RMW)
			}
		}
	}
	for rID, wID := range x.RF {
		r.rf.set(wID, rID)
		if !x.po(byID[wID], byID[rID]) && !x.po(byID[rID], byID[wID]) {
			r.rfe.set(wID, rID)
		}
	}
	for _, order := range x.CO {
		for i := 0; i < len(order); i++ {
			for j := i + 1; j < len(order); j++ {
				r.co.set(order[i], order[j])
				a, b := byID[order[i]], byID[order[j]]
				if !x.po(a, b) && !x.po(b, a) {
					r.coe.set(order[i], order[j])
				}
			}
		}
	}
	for _, a := range x.Events {
		if a.Kind != EvR {
			continue
		}
		for _, b := range x.Events {
			if b.Kind == EvW && a.Loc == b.Loc && x.fr(a, b) {
				r.fr.set(a.ID, b.ID)
				if !x.po(a, b) && !x.po(b, a) {
					r.fre.set(a.ID, b.ID)
				}
			}
		}
	}
	return r
}

// refScPerLoc checks SC-per-location: (po|loc ∪ rf ∪ co ∪ fr) is acyclic.
// Both x86 and Arm satisfy it, and LIMM requires it (§6.2).
func refScPerLoc(x *Execution, r *rels) bool {
	rel := newBoolRel(r.n)
	for _, a := range r.events {
		for _, b := range r.events {
			if a.ID == b.ID {
				continue
			}
			if r.poR.has(a.ID, b.ID) && a.Kind != EvF && b.Kind != EvF && a.Loc == b.Loc {
				rel.set(a.ID, b.ID)
			}
		}
	}
	rel.union(r.rf)
	rel.union(r.co)
	rel.union(r.fr)
	rel.transitiveClosure()
	return rel.irreflexive()
}

// refAtomicity checks rmw ∩ (fre;coe) = ∅ (§6.2).
func refAtomicity(x *Execution, r *rels) bool {
	for _, a := range r.events {
		if a.Kind != EvR || a.RMW < 0 {
			continue
		}
		w := a.RMW
		// Exists w' with fre(a, w') and coe(w', w)?
		for _, wp := range r.events {
			if wp.Kind == EvW && r.fre.has(a.ID, wp.ID) && r.coe.has(wp.ID, w) {
				return false
			}
		}
	}
	return true
}

// refX86 is the original (GHB) axiom implementation of Fig. 6.
func refX86(x *Execution, r *rels) bool {
	hb := newBoolRel(r.n)
	isAt := func(e *Event) bool { return e.RMW >= 0 }
	for _, a := range r.events {
		for _, b := range r.events {
			if a.ID == b.ID || !r.poR.has(a.ID, b.ID) {
				continue
			}
			// ppo.
			switch {
			case a.Kind == EvW && b.Kind == EvW,
				a.Kind == EvR && b.Kind == EvW,
				a.Kind == EvR && b.Kind == EvR:
				hb.set(a.ID, b.ID)
			}
			// implid: ordering through fences and atomics.
			aF := a.Kind == EvF && a.Fen == MFENCE
			bF := b.Kind == EvF && b.Fen == MFENCE
			if isAt(b) || bF || isAt(a) || aF {
				hb.set(a.ID, b.ID)
			}
		}
	}
	hb.union(r.rfe)
	hb.union(r.fr)
	hb.union(r.co)
	hb.transitiveClosure()
	return hb.irreflexive()
}

// refArm is the original (external) axiom implementation of Fig. 6.
func refArm(x *Execution, r *rels) bool {
	ob := newBoolRel(r.n)
	ob.union(r.rfe)
	ob.union(r.coe)
	ob.union(r.fre)
	ob.union(r.rmw)
	// Release/acquire half-fence ordering (Appendix A).
	for _, a := range r.events {
		for _, b := range r.events {
			if a.ID == b.ID || !r.poR.has(a.ID, b.ID) || a.Tid != b.Tid {
				continue
			}
			if a.Kind == EvR && a.Acq {
				ob.set(a.ID, b.ID)
			}
			if b.Kind == EvW && b.Rel {
				ob.set(a.ID, b.ID)
			}
		}
	}
	// bob.
	for _, f := range r.events {
		if f.Kind != EvF {
			continue
		}
		for _, a := range r.events {
			if !r.poR.has(a.ID, f.ID) || a.Tid != f.Tid {
				continue
			}
			for _, b := range r.events {
				if !r.poR.has(f.ID, b.ID) || b.Tid != f.Tid {
					continue
				}
				switch f.Fen {
				case DMBFF:
					if a.Kind != EvF && b.Kind != EvF {
						ob.set(a.ID, b.ID)
					}
				case DMBLD:
					if a.Kind == EvR && b.Kind != EvF {
						ob.set(a.ID, b.ID)
					}
				case DMBST:
					if a.Kind == EvW && b.Kind == EvW {
						ob.set(a.ID, b.ID)
					}
				}
			}
		}
	}
	ob.transitiveClosure()
	return ob.irreflexive()
}

// refLIMM is the original (GOrd) axiom implementation of Fig. 7.
func refLIMM(x *Execution, r *rels) bool {
	ghb := newBoolRel(r.n)
	ghb.union(r.rfe)
	ghb.union(r.coe)
	ghb.union(r.fre)

	isRsc := func(e *Event) bool { return e.Kind == EvR && e.SC }
	isWsc := func(e *Event) bool { return e.Kind == EvW && e.SC }
	rmwR := func(e *Event) bool { return e.Kind == EvR && e.RMW >= 0 }
	rmwW := func(e *Event) bool { return e.Kind == EvW && e.RMW >= 0 }

	// ord1/ord2: fence-mediated ordering between same-thread accesses.
	for _, f := range r.events {
		if f.Kind != EvF {
			continue
		}
		for _, a := range r.events {
			if !r.poR.has(a.ID, f.ID) || a.Tid != f.Tid {
				continue
			}
			for _, b := range r.events {
				if !r.poR.has(f.ID, b.ID) || b.Tid != f.Tid {
					continue
				}
				switch f.Fen {
				case Frm:
					if a.Kind == EvR && (b.Kind == EvR || b.Kind == EvW) {
						ghb.set(a.ID, b.ID)
					}
				case Fww:
					if a.Kind == EvW && b.Kind == EvW {
						ghb.set(a.ID, b.ID)
					}
				}
			}
		}
	}
	// ord3/ord4.
	for _, a := range r.events {
		for _, b := range r.events {
			if a.ID == b.ID || !r.poR.has(a.ID, b.ID) {
				continue
			}
			aFsc := a.Kind == EvF && a.Fen == Fsc
			bFsc := b.Kind == EvF && b.Fen == Fsc
			if aFsc || isRsc(a) || rmwW(a) { // ord3
				ghb.set(a.ID, b.ID)
			}
			if bFsc || isWsc(b) || rmwR(b) { // ord4
				ghb.set(a.ID, b.ID)
			}
		}
	}
	ghb.transitiveClosure()
	return ghb.irreflexive()
}

// refSC is the original sequential-consistency predicate.
func refSC(x *Execution, r *rels) bool {
	hb := newBoolRel(r.n)
	hb.union(r.poR)
	hb.union(r.rf)
	hb.union(r.co)
	hb.union(r.fr)
	hb.transitiveClosure()
	return hb.irreflexive()
}

// referenceConsistent is the original per-model axiom over the reference
// relation set. It must agree with evaluator.consistent on every execution —
// the differential oracle test enforces that.
func referenceConsistent(m Model, x *Execution, r *rels) bool {
	switch m.Name {
	case "x86":
		return refX86(x, r)
	case "arm":
		return refArm(x, r)
	case "limm":
		return refLIMM(x, r)
	case "sc":
		return refSC(x, r)
	}
	panic("memmodel: unknown model " + m.Name)
}

// po reports program order (see poBefore).
func (x *Execution) po(a, b *Event) bool { return poBefore(a, b) }

// coIndex returns the position of a write in its location's coherence
// order, with init first. Enumerated executions answer from the dense coPos
// index maintained by the walker; hand-built executions fall back to the
// linear scan.
func (x *Execution) coIndex(w *Event) int {
	if x.coPos != nil {
		return int(x.coPos[w.ID])
	}
	for i, id := range x.CO[w.Loc] {
		if id == w.ID {
			return i
		}
	}
	return -1
}

// fr reports from-read: r reads from a write co-before w'.
func (x *Execution) fr(r, w *Event) bool {
	if r.Kind != EvR || w.Kind != EvW || r.Loc != w.Loc {
		return false
	}
	src, ok := x.RF[r.ID]
	if !ok {
		return false
	}
	return x.coIndex(x.Events[src]) < x.coIndex(w)
}

// referenceBehavior is the original behavior extraction from the exported
// RF/CO maps, for executions built without an enumeration walker and as
// the oracle the differential tests compare behaviorOf with.
func (x *Execution) referenceBehavior() Behavior {
	byID := x.Events
	var locs []string
	for l := range x.CO {
		locs = append(locs, l)
	}
	sort.Strings(locs)
	var fin []string
	for _, l := range locs {
		order := x.CO[l]
		last := byID[order[len(order)-1]]
		fin = append(fin, fmt.Sprintf("%s=%d", l, last.Val))
	}
	var reads []*Event
	for _, e := range x.Events {
		if e.Kind == EvR {
			reads = append(reads, e)
		}
	}
	sort.Slice(reads, func(i, j int) bool {
		if reads[i].Tid != reads[j].Tid {
			return reads[i].Tid < reads[j].Tid
		}
		return reads[i].Idx < reads[j].Idx
	})
	rd := map[string]int{}
	occ := map[string]int{}
	for _, e := range reads {
		ok := fmt.Sprintf("t%d.%s", e.Tid, e.Loc)
		k := occ[ok]
		occ[ok]++
		rd[fmt.Sprintf("%s.%d", ok, k)] = e.Val
	}
	return Behavior{Finals: strings.Join(fin, ";"), Reads: rd}
}
