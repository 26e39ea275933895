package memmodel

import (
	"fmt"
	"strings"
	"sync"
)

// Cat is one row/column category of the Fig. 11a reordering table.
type Cat int

const (
	CatRna Cat = iota
	CatWna
	CatRsc // a failed RMWsc: a standalone seq_cst read
	CatRMW // a successful RMWsc: the Rsc·Wsc pair
	CatFrm
	CatFww
	CatFsc
	NumCats
)

var catNames = [NumCats]string{"Rna", "Wna", "Rsc", "Rsc·Wsc", "Frm", "Fww", "Fsc"}

func (c Cat) String() string { return catNames[c] }

// IsFence reports whether the category is a fence.
func (c Cat) IsFence() bool { return c >= CatFrm }

// inst instantiates a category on a location (fences ignore it).
func (c Cat) inst(loc string, val int) Op {
	switch c {
	case CatRna:
		return Ld(loc)
	case CatWna:
		return St(loc, val)
	case CatRsc:
		return LdSC(loc)
	case CatRMW:
		return RMW(loc, val)
	case CatFrm:
		return Fn(Frm)
	case CatFww:
		return Fn(Fww)
	case CatFsc:
		return Fn(Fsc)
	}
	panic("bad category")
}

// Verdict is one cell of the reordering table.
type Verdict int

const (
	Unsafe Verdict = iota // ✗
	Safe                  // ✓
	Equal                 // = (identical fences: reordering is the identity)
)

func (v Verdict) String() string {
	switch v {
	case Safe:
		return "✓"
	case Unsafe:
		return "✗"
	}
	return "="
}

// contexts enumerates observer threads used by the bounded transformation
// checker: single accesses, access pairs and fence-separated access pairs
// over the two locations touched by the transformed thread. The set is
// static, so it is built once and shared (callers must not mutate it).
func contexts() [][]Op {
	ctxOnce.Do(func() { ctxCache = buildContexts() })
	return ctxCache
}

var (
	ctxOnce  sync.Once
	ctxCache [][]Op
)

func buildContexts() [][]Op {
	accesses := []Op{
		Ld("X"), Ld("Y"),
		St("X", 2), St("Y", 2),
		RMW("X", 3), RMW("Y", 3),
	}
	seps := []Op{{Kind: OpFence, Fence: FenceNone}, Fn(Frm), Fn(Fww), Fn(Fsc)}
	var out [][]Op
	for _, a := range accesses {
		out = append(out, []Op{a})
	}
	for _, a := range accesses {
		for _, b := range accesses {
			for _, s := range seps {
				if s.Fence == FenceNone {
					out = append(out, []Op{a, b})
				} else {
					out = append(out, []Op{a, s, b})
				}
			}
		}
	}
	return out
}

// inclusionScratch checks Behav(tgt) ⊆ Behav(src) under the model (with
// reads), all per-check scratch drawn from sc. The transformed programs
// share their access layout with the originals, so the check normally
// compares interned behavior keys; a witness string is materialized only
// for a failing cell. One arena reset cycle covers both folds: the two
// behavior sets stay alive together until compared, per the arena's
// lifetime contract.
func inclusionScratch(src, tgt *Program, m Model, sc *CheckScratch) (string, bool) {
	sc.a.reset()
	srcS, _ := foldBehaviorsArena(src, m, true, 1, Budget{}, &sc.a) // unbounded: cannot fail
	tgtS, _ := foldBehaviorsArena(tgt, m, true, 1, Budget{}, &sc.a)
	if srcS.comparable(tgtS) {
		for key := range tgtS.interned {
			if _, ok := srcS.interned[key]; !ok {
				return tgtS.keyString(key), false
			}
		}
		return "", true
	}
	srcB, tgtB := srcS.result(), tgtS.result()
	for k := range tgtB {
		if _, ok := srcB[k]; !ok {
			return k, false
		}
	}
	return "", true
}

// reorderScratch bundles everything one bounded-transformation worker
// reuses across checks: the enumeration scratch plus source/target program
// shells and thread buffers, so steady-state cell checking allocates
// nothing per context.
type reorderScratch struct {
	sc         CheckScratch
	src, tgt   Program
	srcThreads [2][]Op
	tgtThreads [2][]Op
	t0src      []Op
	t0tgt      []Op
}

var reorderScratchPool = sync.Pool{New: func() any { return &reorderScratch{} }}

// point re-aims the reusable program shells at the given thread-0 ops and
// observer context, invalidating the location cache left by the previous
// check (the shells are mutated in place, so the cache would be stale).
func (rs *reorderScratch) point(t0src, t0tgt, ctx []Op) (src, tgt *Program) {
	rs.src.Name, rs.tgt.Name = "reorder-src", "reorder-tgt"
	rs.srcThreads = [2][]Op{t0src, ctx}
	rs.tgtThreads = [2][]Op{t0tgt, ctx}
	rs.src.Threads = rs.srcThreads[:]
	rs.tgt.Threads = rs.tgtThreads[:]
	rs.src.locs.Store(nil)
	rs.tgt.locs.Store(nil)
	return &rs.src, &rs.tgt
}

// wrapInto surrounds the pair a, b with the optional pre/post neighbour
// ops, writing into dst's storage instead of allocating.
func wrapInto(dst []Op, pre, post, a, b Op) []Op {
	dst = dst[:0]
	if realOp(pre) {
		dst = append(dst, pre)
	}
	dst = append(dst, a, b)
	if realOp(post) {
		dst = append(dst, post)
	}
	return dst
}

// neighborOps are the same-thread instructions wrapped around a transformed
// pattern. A fence's ordering effect is only observable relative to other
// accesses of its own thread, so the checker surrounds the pattern with
// every prefix/suffix choice on the location Y (kept distinct from the
// pattern's primary location X).
var neighborOps = []Op{{Kind: OpFence, Fence: FenceNone}, Ld("Y"), St("Y", 5)}

// CheckReorder decides one Fig. 11a cell by bounded exhaustive search:
// thread0 executes prefix·a(X)·b(Y)·suffix in the source and the pair
// swapped in the target, against every generated observer context. It
// returns Safe and an empty witness, or Unsafe with a counterexample (the
// same one the serial search would find first).
func CheckReorder(a, b Cat) (Verdict, string) {
	return checkReorder(a, b, DefaultParallelism)
}

func checkReorder(a, b Cat, workers int) (Verdict, string) {
	if a.IsFence() && b.IsFence() && a == b {
		return Equal, ""
	}
	// Accesses take locations X then Y in order of appearance; the
	// neighbour ops occupy Y, so a lone access in a fence-access pair goes
	// on X to stay independent of its neighbours.
	locA, locB := "X", "Y"
	if a.IsFence() {
		locB = "X"
	}
	opA := a.inst(locA, 1)
	opB := b.inst(locB, 1)
	ctxs := contexts()
	nc := len(ctxs)
	n := len(neighborOps) * len(neighborOps) * nc
	err := firstFailure(n, workers, func(i int) error {
		pre := neighborOps[i/(len(neighborOps)*nc)]
		post := neighborOps[(i/nc)%len(neighborOps)]
		ctx := ctxs[i%nc]
		rs := reorderScratchPool.Get().(*reorderScratch)
		defer reorderScratchPool.Put(rs)
		rs.t0src = wrapInto(rs.t0src, pre, post, opA, opB)
		rs.t0tgt = wrapInto(rs.t0tgt, pre, post, opB, opA)
		src, tgt := rs.point(rs.t0src, rs.t0tgt, ctx)
		if witness, ok := inclusionScratch(src, tgt, LIMM, &rs.sc); !ok {
			return fmt.Errorf("pre=%v post=%v context %v admits %s", pre, post, ctx, witness)
		}
		return nil
	})
	if err != nil {
		return Unsafe, err.Error()
	}
	return Safe, ""
}

// realOp reports whether o is an actual instruction (FenceNone is the "no
// neighbour / no separator" placeholder).
func realOp(o Op) bool { return !(o.Kind == OpFence && o.Fence == FenceNone) }

// ReorderTable computes the full Fig. 11a table, checking the 49 cells
// across DefaultParallelism workers. Each cell's verdict is independent, so
// the table does not depend on the worker count.
func ReorderTable() [NumCats][NumCats]Verdict {
	var t [NumCats][NumCats]Verdict
	n := int(NumCats) * int(NumCats)
	parallelFor(n, DefaultParallelism, func(i int) {
		a, b := Cat(i/int(NumCats)), Cat(i%int(NumCats))
		v, _ := checkReorder(a, b, 1)
		t[a][b] = v
	})
	return t
}

// PaperReorderTable is Fig. 11a as printed in the paper (row a, column b
// for the reordering a·b ↝ b·a).
func PaperReorderTable() [NumCats][NumCats]Verdict {
	o, x, e := Safe, Unsafe, Equal
	return [NumCats][NumCats]Verdict{
		//            Rna Wna Rsc RMW Frm Fww Fsc
		/* Rna     */ {o, o, o, x, x, o, x},
		/* Wna     */ {o, o, o, x, o, x, x},
		/* Rsc     */ {x, x, x, x, o, o, o},
		/* Rsc·Wsc */ {x, x, x, x, o, o, o},
		/* Frm     */ {x, x, x, o, e, o, o},
		/* Fww     */ {o, x, o, o, o, e, o},
		/* Fsc     */ {x, x, x, o, o, o, e},
	}
}

// FormatTable renders a verdict table like Fig. 11a.
func FormatTable(t [NumCats][NumCats]Verdict) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-9s", "a\\b")
	for b := Cat(0); b < NumCats; b++ {
		fmt.Fprintf(&sb, "%-9s", b)
	}
	sb.WriteString("\n")
	for a := Cat(0); a < NumCats; a++ {
		fmt.Fprintf(&sb, "%-9s", a)
		for b := Cat(0); b < NumCats; b++ {
			fmt.Fprintf(&sb, "%-9s", t[a][b])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
