package ir

import (
	"fmt"
	"strings"
)

// String renders the module in an LLVM-like textual form.
func (m *Module) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "; module %s\n", m.Name)
	for _, g := range m.Globals {
		fmt.Fprintf(&b, "@%s = global %s", g.Name, g.Elem)
		if len(g.Init) > 0 {
			fmt.Fprintf(&b, " <%d init bytes>", len(g.Init))
		} else {
			b.WriteString(" zeroinitializer")
		}
		b.WriteString("\n")
	}
	if len(m.Globals) > 0 {
		b.WriteString("\n")
	}
	for _, f := range m.Funcs {
		b.WriteString(f.String())
		b.WriteString("\n")
	}
	return b.String()
}

// String renders the function in an LLVM-like textual form.
func (f *Func) String() string {
	var b strings.Builder
	kw := "define"
	if f.External {
		kw = "declare"
	}
	fmt.Fprintf(&b, "%s %s @%s(", kw, f.Sig.Ret, f.Name)
	for i, p := range f.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %%%s", p.Ty, p.Nam)
	}
	if f.Sig.Variadic {
		if len(f.Params) > 0 {
			b.WriteString(", ")
		}
		b.WriteString("...")
	}
	b.WriteString(")")
	if f.External {
		b.WriteString("\n")
		return b.String()
	}
	b.WriteString(" {\n")
	for _, blk := range f.Blocks {
		fmt.Fprintf(&b, "%s:\n", blk.Name)
		for _, in := range blk.Instrs {
			b.WriteString("  ")
			b.WriteString(in.String())
			b.WriteString("\n")
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// String renders one instruction.
func (i *Instr) String() string {
	arg := func(k int) Value {
		if k < len(i.Args) && i.Args[k] != nil {
			return i.Args[k]
		}
		return missing{}
	}
	succ := func(k int) string {
		if k < len(i.Blocks) && i.Blocks[k] != nil {
			return i.Blocks[k].Name
		}
		return missing{}.Ref()
	}
	var b strings.Builder
	if !IsVoid(i.Ty) {
		fmt.Fprintf(&b, "%s = ", i.Ref())
	}
	switch i.Op {
	case OpAlloca:
		fmt.Fprintf(&b, "alloca %s", i.Elem)
		if len(i.Args) == 1 {
			fmt.Fprintf(&b, ", %s %s", arg(0).Type(), arg(0).Ref())
		}
	case OpLoad:
		if i.Order != NotAtomic {
			fmt.Fprintf(&b, "load atomic %s, %s %s %s", i.Ty, arg(0).Type(), arg(0).Ref(), i.Order)
		} else {
			fmt.Fprintf(&b, "load %s, %s %s", i.Ty, arg(0).Type(), arg(0).Ref())
		}
	case OpStore:
		if i.Order != NotAtomic {
			fmt.Fprintf(&b, "store atomic %s %s, %s %s %s",
				arg(0).Type(), arg(0).Ref(), arg(1).Type(), arg(1).Ref(), i.Order)
		} else {
			fmt.Fprintf(&b, "store %s %s, %s %s",
				arg(0).Type(), arg(0).Ref(), arg(1).Type(), arg(1).Ref())
		}
	case OpFence:
		fmt.Fprintf(&b, "fence.%s", fenceSuffix(i.Fence))
	case OpRMW:
		fmt.Fprintf(&b, "atomicrmw %s %s %s, %s %s seq_cst",
			i.RMWOp, arg(0).Type(), arg(0).Ref(), arg(1).Type(), arg(1).Ref())
	case OpCmpXchg:
		fmt.Fprintf(&b, "cmpxchg %s %s, %s %s, %s %s seq_cst",
			arg(0).Type(), arg(0).Ref(),
			arg(1).Type(), arg(1).Ref(),
			arg(2).Type(), arg(2).Ref())
	case OpGEP:
		fmt.Fprintf(&b, "getelementptr %s, %s %s", i.Elem, arg(0).Type(), arg(0).Ref())
		for k := 1; k < len(i.Args); k++ {
			fmt.Fprintf(&b, ", %s %s", arg(k).Type(), arg(k).Ref())
		}
	case OpICmp, OpFCmp:
		fmt.Fprintf(&b, "%s %s %s %s, %s", i.Op, i.Pred, arg(0).Type(), arg(0).Ref(), arg(1).Ref())
	case OpSelect:
		fmt.Fprintf(&b, "select i1 %s, %s %s, %s %s",
			arg(0).Ref(), arg(1).Type(), arg(1).Ref(), arg(2).Type(), arg(2).Ref())
	case OpPhi:
		fmt.Fprintf(&b, "phi %s ", i.Ty)
		for k := range i.Args {
			if k > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "[ %s, %%%s ]", arg(k).Ref(), succ(k))
		}
	case OpCall:
		fmt.Fprintf(&b, "call %s %s(", i.Ty, arg(0).Ref())
		for k := 1; k < len(i.Args); k++ {
			if k > 1 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s %s", arg(k).Type(), arg(k).Ref())
		}
		b.WriteString(")")
	case OpRet:
		if len(i.Args) == 0 {
			b.WriteString("ret void")
		} else {
			fmt.Fprintf(&b, "ret %s %s", arg(0).Type(), arg(0).Ref())
		}
	case OpBr:
		fmt.Fprintf(&b, "br label %%%s", succ(0))
	case OpCondBr:
		fmt.Fprintf(&b, "br i1 %s, label %%%s, label %%%s", arg(0).Ref(), succ(0), succ(1))
	case OpUnreachable:
		b.WriteString("unreachable")
	case OpExtractElement:
		fmt.Fprintf(&b, "extractelement %s %s, %s %s",
			arg(0).Type(), arg(0).Ref(), arg(1).Type(), arg(1).Ref())
	case OpInsertElement:
		fmt.Fprintf(&b, "insertelement %s %s, %s %s, %s %s",
			arg(0).Type(), arg(0).Ref(), arg(1).Type(), arg(1).Ref(),
			arg(2).Type(), arg(2).Ref())
	default:
		if IsBinaryOp(i.Op) {
			fmt.Fprintf(&b, "%s %s %s, %s", i.Op, arg(0).Type(), arg(0).Ref(), arg(1).Ref())
		} else if IsCast(i.Op) {
			fmt.Fprintf(&b, "%s %s %s to %s", i.Op, arg(0).Type(), arg(0).Ref(), i.Ty)
		} else {
			fmt.Fprintf(&b, "%s", i.Op)
			for k := range i.Args {
				if k > 0 {
					b.WriteString(",")
				}
				fmt.Fprintf(&b, " %s", arg(k).Ref())
			}
		}
	}
	return b.String()
}

func fenceSuffix(f FenceKind) string {
	switch f {
	case FenceRM:
		return "rm"
	case FenceWW:
		return "ww"
	case FenceSC:
		return "sc"
	}
	return "?"
}

// missing stands in for an operand or successor that a malformed
// instruction lacks, so the verifier can print the instruction it reports.
type missing struct{}

func (missing) Type() Type      { return missing{} }
func (missing) Ref() string     { return "<missing>" }
func (missing) String() string  { return "?" }
func (missing) Size() int       { return 0 }
func (missing) Equal(Type) bool { return false }
