package memmodel

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// bruteForceBehaviors is an independent reference implementation of
// BehaviorsOf: it materializes every rf choice × every coherence permutation
// with no pruning, evaluates consistency with the retained map/[]bool
// reference engine, and filters afterwards. The streaming bitset enumerator
// must produce exactly the same behavior sets.
func bruteForceBehaviors(p *Program, m Model, withReads bool) map[string]Behavior {
	evs := buildEvents(p, p.Locs(), nil)
	var reads []*Event
	writesAt := map[string][]*Event{}
	for _, e := range evs {
		switch e.Kind {
		case EvR:
			reads = append(reads, e)
		case EvW:
			writesAt[e.Loc] = append(writesAt[e.Loc], e)
		}
	}
	locs := p.Locs()

	// All permutations of each location's non-init writes, init first.
	perms := make([][][]int, len(locs))
	for i, loc := range locs {
		var initID int
		var rest []int
		for _, w := range writesAt[loc] {
			if w.Tid == -1 {
				initID = w.ID
			} else {
				rest = append(rest, w.ID)
			}
		}
		var rec func(cur, remaining []int)
		rec = func(cur, remaining []int) {
			if len(remaining) == 0 {
				perms[i] = append(perms[i], append([]int(nil), cur...))
				return
			}
			for k, id := range remaining {
				next := append(append([]int(nil), remaining[:k]...), remaining[k+1:]...)
				rec(append(cur, id), next)
			}
		}
		rec([]int{initID}, rest)
	}

	out := map[string]Behavior{}
	var walkRF func(ri int, x *Execution)
	walkCO := func(x *Execution) {
		var rec func(ci int)
		rec = func(ci int) {
			if ci == len(locs) {
				r := x.relations()
				if refScPerLoc(x, r) && refAtomicity(x, r) && referenceConsistent(m, x, r) {
					b := x.referenceBehavior()
					out[b.Key(withReads)] = b
				}
				return
			}
			for k := range perms[ci] {
				x.CO[locs[ci]] = perms[ci][k]
				rec(ci + 1)
			}
		}
		rec(0)
	}
	walkRF = func(ri int, x *Execution) {
		if ri == len(reads) {
			walkCO(x)
			return
		}
		r := reads[ri]
		for _, w := range writesAt[r.Loc] {
			if w.RMW == r.ID {
				continue
			}
			// Expected-value RMWs whose rf cannot match are inconsistent in
			// every model; the reference drops them like the enumerator does.
			if r.HasExp && w.Val != r.Exp {
				continue
			}
			x.RF[r.ID] = w.ID
			x.Events[r.ID].Val = w.Val
			walkRF(ri+1, x)
		}
	}
	x := &Execution{
		Events: evs,
		RF:     map[int]int{},
		CO:     map[string][]int{},
		n:      len(evs),
	}
	walkRF(0, x)
	return out
}

func behaviorKeysEqual(a, b map[string]Behavior) string {
	for k := range a {
		if _, ok := b[k]; !ok {
			return fmt.Sprintf("only in first: %s", k)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			return fmt.Sprintf("only in second: %s", k)
		}
	}
	return ""
}

// TestStreamingMatchesBruteForce cross-checks the pruned streaming
// enumerator against the unpruned reference on the classic litmus shapes
// under every model.
func TestStreamingMatchesBruteForce(t *testing.T) {
	progs := append(ClassicTests(),
		&Program{Name: "RMWE", Threads: [][]Op{
			{RMWE("X", 0, 1), Ld("Y")},
			{RMWE("X", 0, 2), St("Y", 1)},
		}},
		&Program{Name: "3W", Threads: [][]Op{
			{St("X", 1), St("X", 2)},
			{St("X", 3), Ld("X")},
		}},
	)
	for _, p := range progs {
		for _, m := range []Model{SC, X86, Arm, LIMM} {
			got := BehaviorsOf(p, m, true)
			want := bruteForceBehaviors(p, m, true)
			if diff := behaviorKeysEqual(got, want); diff != "" {
				t.Errorf("%s under %s: %s", p.Name, m.Name, diff)
			}
		}
	}
}

// parallelBehaviors is BehaviorsOf with the fold split across workers.
func parallelBehaviors(p *Program, m Model, workers int) map[string]Behavior {
	acc, _ := foldBehaviorsBudget(p, m, true, workers, Budget{}) // unbounded: cannot fail
	return acc.result()
}

// TestParallelBehaviorsMatchSerial checks that the worker-pool fold
// computes exactly the serial behavior sets.
func TestParallelBehaviorsMatchSerial(t *testing.T) {
	for _, p := range ClassicTests() {
		for _, m := range []Model{SC, X86, Arm, LIMM} {
			serial := BehaviorsOf(p, m, true)
			for _, workers := range []int{2, 4, 8} {
				parallel := parallelBehaviors(p, m, workers)
				if diff := behaviorKeysEqual(serial, parallel); diff != "" {
					t.Errorf("%s under %s with %d workers: %s", p.Name, m.Name, workers, diff)
				}
			}
		}
	}
}

// TestParallelVisitCountsMatch checks that the subtree roots the parallel
// fold hands out, walked by 4 workers, cover exactly the candidates of the
// serial walk.
func TestParallelVisitCountsMatch(t *testing.T) {
	for _, p := range ClassicTests() {
		serial := 0
		VisitExecutions(p, func(*Execution) { serial++ })
		s := newEnumSpace(p)
		tasks := s.tasks()
		var count atomic.Int64
		runTasks(len(tasks), 4, func(int) func(int) bool {
			w := s.newWalker(false)
			return func(ti int) bool {
				w.walkReads(w.enter(tasks[ti]), func(*Execution) { count.Add(1) })
				return true
			}
		})
		if int(count.Load()) != serial {
			t.Errorf("%s: parallel visited %d candidates, serial %d", p.Name, count.Load(), serial)
		}
	}
}

// TestFirstFailureDeterministic checks the parallel error selection always
// reports the lowest-index failure, matching a serial scan.
func TestFirstFailureDeterministic(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		err := firstFailure(100, 8, func(i int) error {
			if i == 3 || i == 7 || i == 95 {
				return fmt.Errorf("fail at %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail at 3" {
			t.Fatalf("trial %d: got %v, want fail at 3", trial, err)
		}
	}
	if err := firstFailure(10, 4, func(int) error { return nil }); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestParallelReorderTableMatchesSerial recomputes Fig. 11a with and
// without the worker pool and requires identical tables.
func TestParallelReorderTableMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("recomputes the full Fig. 11a table twice")
	}
	par := ReorderTable()
	ser := ReorderTableSerial()
	if par != ser {
		t.Fatalf("parallel table differs from serial:\nparallel:\n%s\nserial:\n%s",
			FormatTable(par), FormatTable(ser))
	}
}
