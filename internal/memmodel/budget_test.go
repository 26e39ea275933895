package memmodel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"lasagne/internal/diag"
)

// iriw is large enough that every budget in these tests trips mid-walk.
func iriw() *Program {
	return &Program{Name: "IRIW", Threads: [][]Op{
		{St("X", 1)},
		{St("Y", 1)},
		{Ld("X"), Ld("Y")},
		{Ld("Y"), Ld("X")},
	}}
}

func TestBudgetMaxVisits(t *testing.T) {
	lim := newLimiter(Budget{MaxVisits: 5})
	taken := 0
	for lim.take() {
		taken++
	}
	if !errors.Is(lim.err(), diag.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", lim.err())
	}
	if taken != 5 {
		t.Fatalf("admitted %d budget units, want exactly 5", taken)
	}
	if _, err := foldBehaviorsBudget(iriw(), Arm, true, 1, Budget{MaxVisits: 5}); !errors.Is(err, diag.ErrBudgetExceeded) {
		t.Fatalf("fold err = %v, want ErrBudgetExceeded", err)
	}
}

func TestBudgetExpiredContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := BehaviorsOfBudget(iriw(), Arm, true, Budget{Ctx: ctx})
	if !errors.Is(err, diag.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if len(got) != 0 {
		t.Fatalf("folded %d behaviors under a dead context, want 0", len(got))
	}
}

func TestBudgetUnboundedMatchesUnbudgeted(t *testing.T) {
	p := iriw()
	want := BehaviorsOf(p, Arm, true)
	got, err := BehaviorsOfBudget(p, Arm, true, Budget{})
	if err != nil {
		t.Fatalf("unbounded budget failed: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("behaviors %d != %d", len(got), len(want))
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Fatalf("missing behavior %s", k)
		}
	}
}

func TestBudgetPartialIsSubset(t *testing.T) {
	p := iriw()
	full := BehaviorsOf(p, X86, true)
	part, err := BehaviorsOfBudget(p, X86, true, Budget{MaxVisits: 6})
	if !errors.Is(err, diag.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	for k := range part {
		if _, ok := full[k]; !ok {
			t.Fatalf("partial result %s not in the full behavior set", k)
		}
	}
}

func TestBudgetParallelSharedAcrossWorkers(t *testing.T) {
	// The cap is shared: the limiter admits exactly MaxVisits units in
	// total no matter how many workers draw from it.
	lim := newLimiter(Budget{MaxVisits: 7})
	var taken atomic.Int64
	runTasks(4, 4, func(int) func(int) bool {
		return func(int) bool {
			for lim.take() {
				taken.Add(1)
			}
			return false
		}
	})
	if !errors.Is(lim.err(), diag.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", lim.err())
	}
	if n := taken.Load(); n != 7 {
		t.Fatalf("admitted %d budget units across workers, want exactly 7", n)
	}
	if _, err := foldBehaviorsBudget(iriw(), Arm, true, 4, Budget{MaxVisits: 7}); !errors.Is(err, diag.ErrBudgetExceeded) {
		t.Fatalf("parallel fold err = %v, want ErrBudgetExceeded", err)
	}
}

func TestBudgetParallelUnboundedMatchesSerial(t *testing.T) {
	p := iriw()
	want := BehaviorsOf(p, LIMM, true)
	acc, err := foldBehaviorsBudget(p, LIMM, true, 4, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if got := acc.result(); len(got) != len(want) {
		t.Fatalf("behaviors %d != %d", len(got), len(want))
	}
}

func TestCheckMappingBudgetDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	time.Sleep(2 * time.Millisecond) // guarantee expiry regardless of scheduling
	err := CheckMappingBudget(iriw(), X86, MapX86ToIR, LIMM, Budget{Ctx: ctx})
	if !errors.Is(err, diag.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

func TestCheckMappingBudgetUnbounded(t *testing.T) {
	if err := CheckMappingBudget(iriw(), X86, MapX86ToIR, LIMM, Budget{}); err != nil {
		t.Fatalf("mapping check failed: %v", err)
	}
}
