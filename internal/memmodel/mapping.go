package memmodel

import (
	"fmt"
	"sort"
	"strings"
)

// A Scheme is one mapping scheme of Fig. 8 or Appendix B written as what it
// is: a per-op rewrite. Rule appends the image of one source op to dst;
// Suffix is what the mapped program's name gains ("→IR"). Because every
// scheme maps op by op and keeps the thread structure, schemes compose per
// op (Then) and can write a whole mapped program into reused storage
// (CheckSchemeScratch) as well as into a fresh one (Map).
type Scheme struct {
	Suffix string
	Rule   func(dst []Op, o Op) []Op
}

// The four mapping schemes of the paper.
var (
	X86ToIR = Scheme{"→IR", x86ToIR}
	IRToArm = Scheme{"→Arm", irToArm}
	IRToX86 = Scheme{"→x86", irToX86}
	ArmToIR = Scheme{"→IR", armToIR}
)

// x86ToIR is the Fig. 8a mapping scheme:
//
//	ld     -> ld.na ; Frm
//	st     -> Fww ; st.na
//	RMW    -> RMWsc
//	MFENCE -> Fsc
func x86ToIR(dst []Op, o Op) []Op {
	switch o.Kind {
	case OpLoad:
		return append(dst, Ld(o.Loc), Fn(Frm))
	case OpStore:
		return append(dst, Fn(Fww), St(o.Loc, o.Val))
	case OpRMW:
		return append(dst, o) // RMW -> RMWsc (expectation preserved)
	case OpFence:
		return append(dst, Fn(Fsc))
	}
	return dst
}

// irToArm is the Fig. 8b mapping scheme:
//
//	ld.na  -> ld
//	st.na  -> st
//	RMWsc  -> DMBFF ; RMW ; DMBFF
//	Frm    -> DMBLD
//	Fww    -> DMBST
//	Fsc    -> DMBFF
func irToArm(dst []Op, o Op) []Op {
	switch o.Kind {
	case OpLoad:
		return append(dst, Ld(o.Loc))
	case OpStore:
		return append(dst, St(o.Loc, o.Val))
	case OpRMW:
		return append(dst, Fn(DMBFF), o, Fn(DMBFF))
	case OpFence:
		switch o.Fence {
		case Frm:
			return append(dst, Fn(DMBLD))
		case Fww:
			return append(dst, Fn(DMBST))
		default:
			return append(dst, Fn(DMBFF))
		}
	}
	return dst
}

// irToX86 is the Appendix B mapping (IR back to x86, used for the Arm-to-x86
// direction): non-atomic accesses need no fences under TSO, Fsc becomes
// MFENCE, Frm/Fww vanish.
func irToX86(dst []Op, o Op) []Op {
	switch o.Kind {
	case OpLoad:
		return append(dst, Ld(o.Loc))
	case OpStore:
		return append(dst, St(o.Loc, o.Val))
	case OpRMW:
		return append(dst, o)
	case OpFence:
		if o.Fence == Fsc {
			return append(dst, Fn(MFENCE))
		}
		// Frm/Fww: x86 loads and stores are already ordered.
	}
	return dst
}

// armToIR lifts Arm programs into the IR (Appendix B direction).
func armToIR(dst []Op, o Op) []Op {
	switch o.Kind {
	case OpLoad:
		return append(dst, Ld(o.Loc))
	case OpStore:
		return append(dst, St(o.Loc, o.Val))
	case OpRMW:
		return append(dst, o)
	case OpFence:
		switch o.Fence {
		case DMBLD:
			return append(dst, Fn(Frm))
		case DMBST:
			return append(dst, Fn(Fww))
		default:
			return append(dst, Fn(Fsc))
		}
	}
	return dst
}

// Then is s followed by t, composed per op: the image of o under s is
// appended to dst, then each of its ops is mapped by t in dst's spare
// capacity and moved down over it. No intermediate program is built, and
// once dst has room the composed rule allocates nothing.
func (s Scheme) Then(t Scheme) Scheme {
	return Scheme{Suffix: s.Suffix + t.Suffix, Rule: func(dst []Op, o Op) []Op {
		n := len(dst)
		dst = s.Rule(dst, o)
		m := len(dst)
		for i := n; i < m; i++ {
			dst = t.Rule(dst, dst[i])
		}
		return append(dst[:n], dst[m:]...)
	}}
}

// Map applies s to every op of p, building a fresh program.
func (s Scheme) Map(p *Program) *Program {
	out := &Program{Name: p.Name + s.Suffix, Init: p.Init}
	for _, th := range p.Threads {
		var t []Op
		for _, o := range th {
			t = s.Rule(t, o)
		}
		out.Threads = append(out.Threads, t)
	}
	return out
}

// MapX86ToIR applies the Fig. 8a mapping scheme (X86ToIR).
func MapX86ToIR(p *Program) *Program { return X86ToIR.Map(p) }

// MapIRToArm applies the Fig. 8b mapping scheme (IRToArm).
func MapIRToArm(p *Program) *Program { return IRToArm.Map(p) }

// MapIRToX86 applies the Appendix B mapping from the IR back to x86
// (IRToX86).
func MapIRToX86(p *Program) *Program { return IRToX86.Map(p) }

// MapArmToIR lifts Arm programs into the IR (ArmToIR).
func MapArmToIR(p *Program) *Program { return ArmToIR.Map(p) }

// CheckMapping verifies Theorem 7.1 on one program: every behavior of the
// target program under the target model is a behavior of the source program
// under the source model. Loads map 1:1 across our mapping schemes, so
// behaviors are compared including read values.
func CheckMapping(src *Program, srcModel Model, mapFn func(*Program) *Program, tgtModel Model) error {
	return CheckMappingBudget(src, srcModel, mapFn, tgtModel, Budget{}) // unbounded: cannot cut off
}

// compareFolds is the inclusion check behind CheckMapping: every target
// behavior must already be a source behavior. Our mapping schemes preserve
// accesses 1:1 (they only insert fences), so the two folds almost always
// have identical observation layouts and the check compares interned keys
// directly; the string maps are only materialized on layout mismatch or
// when a counterexample must be reported.
func compareFolds(src *Program, srcModel, tgtModel Model, srcS, tgtS *behaviorSet) error {
	if !srcS.comparable(tgtS) {
		return compareBehaviors(src, srcModel, tgtModel, srcS.result(), tgtS.result())
	}
	var extra []string
	for key := range tgtS.interned {
		if _, ok := srcS.interned[key]; !ok {
			extra = append(extra, tgtS.keyString(key))
		}
	}
	return unsoundErr(src, srcModel, tgtModel, extra)
}

// compareBehaviors is the string-keyed fallback of compareFolds, also used
// by callers holding plain behavior maps.
func compareBehaviors(src *Program, srcModel, tgtModel Model, srcB, tgtB map[string]Behavior) error {
	var extra []string
	for b := range tgtB {
		if _, ok := srcB[b]; !ok {
			extra = append(extra, b)
		}
	}
	return unsoundErr(src, srcModel, tgtModel, extra)
}

func unsoundErr(src *Program, srcModel, tgtModel Model, extra []string) error {
	if len(extra) == 0 {
		return nil
	}
	sort.Strings(extra) // map order is random; keep the message stable
	return fmt.Errorf("mapping %s -> %s unsound on %s: target-only behaviors %s",
		srcModel.Name, tgtModel.Name, src, strings.Join(extra, " | "))
}

// ClassicTests returns the named litmus programs used throughout the paper
// (Figs. 1, 9, 10) plus the standard shapes LB, 2+2W and IRIW.
func ClassicTests() []*Program {
	return []*Program{
		{Name: "SB", Threads: [][]Op{
			{St("X", 1), Ld("Y")},
			{St("Y", 1), Ld("X")},
		}},
		{Name: "MP", Threads: [][]Op{
			{St("X", 1), St("Y", 1)},
			{Ld("Y"), Ld("X")},
		}},
		{Name: "LB", Threads: [][]Op{
			{Ld("X"), St("Y", 1)},
			{Ld("Y"), St("X", 1)},
		}},
		{Name: "2+2W", Threads: [][]Op{
			{St("X", 1), St("Y", 2)},
			{St("Y", 1), St("X", 2)},
		}},
		{Name: "R", Threads: [][]Op{
			{St("X", 1), St("Y", 1)},
			{St("Y", 2), Ld("X")},
		}},
		{Name: "MP+mfence", Threads: [][]Op{
			{St("X", 1), Fn(MFENCE), St("Y", 1)},
			{Ld("Y"), Fn(MFENCE), Ld("X")},
		}},
		{Name: "SB+mfence", Threads: [][]Op{
			{St("X", 1), Fn(MFENCE), Ld("Y")},
			{St("Y", 1), Fn(MFENCE), Ld("X")},
		}},
		{Name: "Fig10a", Threads: [][]Op{
			{St("X", 1), RMW("Y", 2)},
			{St("Y", 1), RMW("X", 2)},
		}},
		{Name: "Fig10b", Threads: [][]Op{
			{RMW("X", 2), Ld("Y")},
			{RMW("Y", 2), Ld("X")},
		}},
		{Name: "RMW-MP", Threads: [][]Op{
			{St("X", 1), RMW("Y", 1)},
			{Ld("Y"), Ld("X")},
		}},
	}
}

// X86ThreadSkeletons enumerates the nonempty per-thread instruction
// sequences — up to maxOps operations over the fixed two-location x86 op
// alphabet — underlying GenerateX86Programs. The campaign engine shards
// generation by thread-skeleton pair instead of materializing the whole
// program family, so bound-4 campaigns stream in flat memory.
func X86ThreadSkeletons(maxOps int) [][]Op {
	ops := []Op{
		Ld("X"), Ld("Y"),
		St("X", 1), St("Y", 1),
		RMW("X", 2), RMW("Y", 2),
		Fn(MFENCE),
	}
	var threads [][]Op
	var gen func(cur []Op)
	gen = func(cur []Op) {
		if len(cur) > 0 {
			threads = append(threads, append([]Op(nil), cur...))
		}
		if len(cur) == maxOps {
			return
		}
		for _, o := range ops {
			gen(append(cur, o))
		}
	}
	gen(nil)
	return threads
}

// GenerateX86Programs enumerates small x86-level litmus programs: two
// threads, up to maxOps operations each, over two locations. This is the
// exhaustive family backing the bounded mapping proofs. Prefer the campaign
// engine (internal/campaign) for large bounds — it pairs the skeletons
// lazily instead of materializing every program up front.
func GenerateX86Programs(maxOps int) []*Program {
	threads := X86ThreadSkeletons(maxOps)
	var out []*Program
	for i, t0 := range threads {
		for j := i; j < len(threads); j++ { // j < i is symmetric
			out = append(out, &Program{
				Name:    fmt.Sprintf("gen_%d_%d", i, j),
				Threads: [][]Op{t0, threads[j]},
			})
		}
	}
	return out
}
