package memmodel

// Model is a consistency predicate over executions, factored for the bitset
// engine: `static` builds the skeleton-invariant part of the model's
// ordering relation (everything derivable from po, event kinds, fences and
// rmw pairs — computed once per program by the enumeration drivers), and the
// ext* flags say whether the execution-varying rf/co/fr edges enter the
// order restricted to external pairs (rfe/coe/fre) or in full. The axiom
// itself is uniform: static ∪ dynamic edges must be acyclic (see
// evaluator.consistent in eval.go). The original per-execution closures are
// retained in reference_test.go as referenceConsistent.
type Model struct {
	Name string
	// static builds the skeleton-invariant ordering edges on k. The arena
	// may be nil (plain allocation); when non-nil the relation is drawn from
	// it and lives until the arena's next reset.
	static func(k *statics, a *arena) *relation
	// extRF/extCO/extFR: true means only external (cross-thread) rf/co/fr
	// edges enter the order; false means all of them do.
	extRF, extCO, extFR bool
}

// X86 implements the (GHB) axiom of Fig. 6:
//
//	ppo     = ((W×W) ∪ (R×W) ∪ (R×R)) ∩ po
//	implid  = po;[At ∪ F] ∪ [At ∪ F];po      At = dom(rmw) ∪ codom(rmw)
//	hb      = ppo ∪ implid ∪ rfe ∪ fr ∪ co
//	axiom: hb+ irreflexive
//
// ppo and implid depend only on the skeleton, so they are hoisted; rfe, fr
// and co are ORed in per execution.
var X86 = Model{Name: "x86", extRF: true, static: func(k *statics, a *arena) *relation {
	hb := a.newRel(k.n)
	isAt := func(e *Event) bool { return e.RMW >= 0 }
	for _, a := range k.events {
		for _, b := range k.events {
			if a.ID == b.ID || !k.po.has(a.ID, b.ID) {
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
	return hb
}}

// Arm implements the (external) axiom of Fig. 6 following Pulte et al.:
//
//	obs = rfe ∪ coe ∪ fre
//	aob = rmw
//	bob = po;[DMBFF];po ∪ [R];po;[DMBLD];po ∪ [W];po;[DMBST];po;[W]
//	ob  = (obs ∪ aob ∪ dob ∪ bob)+ irreflexive
//
// Dependency ordering (dob) is omitted: our litmus programs carry no
// address/data/control dependencies, and dropping dob only *weakens* the
// target model, making the mapping-correctness check stricter (§6.2).
// aob, bob and the Appendix A half-fence edges are all skeleton-static.
var Arm = Model{Name: "arm", extRF: true, extCO: true, extFR: true, static: func(k *statics, a *arena) *relation {
	ob := a.newRel(k.n)
	for _, p := range k.rmws {
		ob.set(p.r, p.w) // aob
	}
	// Release/acquire half-fence ordering (Appendix A, following Pulte et
	// al.): an acquire read orders before everything po-after it; a
	// release write orders after everything po-before it.
	for _, a := range k.events {
		for _, b := range k.events {
			if a.ID == b.ID || !k.po.has(a.ID, b.ID) || a.Tid != b.Tid {
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
	for _, f := range k.events {
		if f.Kind != EvF {
			continue
		}
		for _, a := range k.events {
			if !k.po.has(a.ID, f.ID) || a.Tid != f.Tid {
				continue
			}
			for _, b := range k.events {
				if !k.po.has(f.ID, b.ID) || b.Tid != f.Tid {
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
	return ob
}}

// LIMM implements the (GOrd) axiom of Fig. 7:
//
//	ord1 = [R];po;[Frm];po;[R∪W]
//	ord2 = [W];po;[Fww];po;[W]
//	ord3 = [Fsc ∪ Rsc ∪ codom(rmw)];po
//	ord4 = po;[Fsc ∪ Wsc ∪ dom(rmw)]
//	ghb  = (ord ∪ rfe ∪ coe ∪ fre)+ irreflexive
//
// ord1–ord4 are skeleton-static and hoisted.
var LIMM = Model{Name: "limm", extRF: true, extCO: true, extFR: true, static: func(k *statics, a *arena) *relation {
	ghb := a.newRel(k.n)

	isRsc := func(e *Event) bool { return e.Kind == EvR && e.SC }
	isWsc := func(e *Event) bool { return e.Kind == EvW && e.SC }
	rmwR := func(e *Event) bool { return e.Kind == EvR && e.RMW >= 0 }
	rmwW := func(e *Event) bool { return e.Kind == EvW && e.RMW >= 0 }

	// ord1/ord2: fence-mediated ordering between same-thread accesses.
	for _, f := range k.events {
		if f.Kind != EvF {
			continue
		}
		for _, a := range k.events {
			if !k.po.has(a.ID, f.ID) || a.Tid != f.Tid {
				continue
			}
			for _, b := range k.events {
				if !k.po.has(f.ID, b.ID) || b.Tid != f.Tid {
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
	for _, a := range k.events {
		for _, b := range k.events {
			if a.ID == b.ID || !k.po.has(a.ID, b.ID) {
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
	return ghb
}}

// SC is the sequential-consistency reference model (interleaving only),
// used as an oracle in tests: hb = po ∪ rf ∪ co ∪ fr acyclic. Its static
// part is po itself.
var SC = Model{Name: "sc", static: func(k *statics, a *arena) *relation {
	hb := a.newRel(k.n)
	hb.copyFrom(k.po)
	return hb
}}
