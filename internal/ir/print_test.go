package ir

import (
	"strings"
	"testing"
)

// TestPrintMissingOperands prints every opcode with neither operands nor
// successors: none may panic, and each one that needs an operand or a
// successor spells it as <missing>.
func TestPrintMissingOperands(t *testing.T) {
	for op := OpAlloca; op <= OpUnreachable; op++ {
		in := &Instr{Op: op, Ty: I64, Elem: I64}
		if op == OpStore || op == OpFence || op == OpBr || op == OpCondBr || op == OpRet || op == OpUnreachable {
			in.Ty = Void
		}
		var got string
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s with no operands: String panicked: %v", op, r)
				}
			}()
			got = in.String()
		}()
		needs := !(op == OpAlloca || op == OpFence || op == OpPhi || op == OpRet || op == OpUnreachable)
		if needs != strings.Contains(got, "<missing>") {
			t.Errorf("%s with no operands prints %q", op, got)
		}
	}
}

// TestVerifyMessagePrintsOperandlessCast: the verifier's report of a cast
// without its operand shows the instruction, not a recovered printer panic.
func TestVerifyMessagePrintsOperandlessCast(t *testing.T) {
	_, f, entry := mkFunc(t)
	entry.InsertBefore(&Instr{Op: OpTrunc, Ty: I32}, entry.Terminator())
	err := VerifyFunc(f)
	if err == nil {
		t.Fatal("operand-less trunc verified")
	}
	if msg := err.Error(); strings.Contains(msg, "PANIC=") || !strings.Contains(msg, "trunc ? <missing> to i32") {
		t.Fatalf("verifier message %q, want the instruction printed with <missing>", msg)
	}
}
