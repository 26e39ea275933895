package memmodel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"lasagne/internal/par"
)

// DefaultParallelism is the worker count used by the parallel enumeration
// driver and the bounded checkers. Commands override it via their -parallel
// flag; 1 disables concurrency entirely.
var DefaultParallelism = runtime.GOMAXPROCS(0)

// parallelFor and firstFailure are package-local shorthands for the shared
// worker-pool primitives.
func parallelFor(n, workers int, fn func(i int)) { par.For(n, workers, fn) }

func firstFailure(n, workers int, fn func(i int) error) error {
	return par.FirstErr(n, workers, fn)
}

// enumTask fixes one subtree root of the enumeration: a choice of coherence
// order per location plus, when the program has reads, the rf source of the
// first read.
type enumTask struct {
	coSel []int // index into coChoices per location
	rf0   int   // index into rfChoices[0]; -1 when the program has no reads
}

// VisitExecutionsParallel streams the candidate executions of p like
// VisitExecutions, but splits the enumeration across up to workers
// goroutines: each task fixes the coherence orders and the first read's rf
// choice, and a worker enumerates the remaining rf subtree. visit may be
// called concurrently from multiple goroutines, each with its own scratch
// Execution.
func VisitExecutionsParallel(p *Program, workers int, visit func(*Execution)) {
	VisitExecutionsParallelBudget(p, workers, Budget{}, visit) // unbounded: cannot fail
}

// VisitExecutionsParallelBudget is VisitExecutionsParallel under a Budget.
// All workers draw from one shared limiter, so MaxVisits caps the total
// candidates visited across goroutines; once any worker trips the budget
// the others stop at their next candidate or task boundary.
func VisitExecutionsParallelBudget(p *Program, workers int, b Budget, visit func(*Execution)) error {
	if workers <= 1 {
		return VisitExecutionsBudget(p, b, visit)
	}
	lim := newLimiter(b)
	if lim.expired() {
		return lim.err()
	}
	s := newEnumSpace(p)
	tasks := s.tasks()
	if workers = min(workers, len(tasks)); workers <= 1 {
		w := s.newWalker(false)
		w.lim = lim
		w.walkCo(0, visit)
		return lim.err()
	}
	runTasks(len(tasks), workers, func(int) func(int) bool {
		w := s.newWalker(false)
		w.lim = lim
		return func(ti int) bool { return w.walkReads(w.enter(tasks[ti]), visit) }
	})
	return lim.err()
}

// tasks materializes the subtree roots the parallel drivers hand out.
// Materializing them is cheap: the co cross product is small (few writes
// per location) and only the first read's choices multiply it.
func (s *enumSpace) tasks() []enumTask {
	var tasks []enumTask
	sel := make([]int, len(s.locs))
	var gen func(ci int)
	gen = func(ci int) {
		if ci == len(s.locs) {
			if len(s.reads) == 0 {
				tasks = append(tasks, enumTask{coSel: append([]int(nil), sel...), rf0: -1})
				return
			}
			for k := range s.rfChoices[0] {
				tasks = append(tasks, enumTask{coSel: append([]int(nil), sel...), rf0: k})
			}
			return
		}
		for k := range s.coChoices[ci] {
			sel[ci] = k
			gen(ci + 1)
		}
	}
	gen(0)
	return tasks
}

// enter positions the walker on task t's subtree root — the task's
// coherence orders and, when the program has reads, the first read's rf
// source — and returns the index of the first read left to enumerate.
func (w *walker) enter(t enumTask) int {
	for ci, k := range t.coSel {
		w.setCo(ci, w.s.coChoices[ci][k])
	}
	if t.rf0 < 0 {
		return 0
	}
	w.assign(0, w.s.rfChoices[0][t.rf0])
	return 1
}

// runTasks hands the task indexes [0, n) to workers goroutines. Each
// goroutine calls newWorker once with its own index g to build its private
// state, then runs the returned function on task after task until the tasks
// run out or it returns false (the shared budget tripped).
func runTasks(n, workers int, newWorker func(g int) func(ti int) bool) {
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for g := 0; g < workers; g++ {
		go func() {
			defer wg.Done()
			run := newWorker(g)
			for {
				ti := int(next.Add(1)) - 1
				if ti >= n || !run(ti) {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BehaviorsOfParallel computes BehaviorsOf using the parallel enumeration
// driver: each worker folds behaviors into a private set, and the sets are
// merged at the end. The result is identical to BehaviorsOf.
func BehaviorsOfParallel(p *Program, m Model, withReads bool, workers int) map[string]Behavior {
	out, _ := BehaviorsOfParallelBudget(p, m, withReads, workers, Budget{}) // unbounded: cannot fail
	return out
}

// BehaviorsOfParallelBudget is BehaviorsOfParallel under a Budget. On
// cutoff the returned map holds the behaviors folded before the budget
// tripped (a sound underapproximation) alongside the budget error.
func BehaviorsOfParallelBudget(p *Program, m Model, withReads bool, workers int, b Budget) (map[string]Behavior, error) {
	acc, err := foldBehaviorsBudget(p, m, withReads, workers, b)
	return acc.result(), err
}

// foldBehaviorsBudget is the engine behind every behavior-set entry point:
// it enumerates p's executions (serially, or split across workers) and
// folds the consistent ones into one interned behaviorSet. The inclusion
// checkers consume the set directly — comparing packed keys — and only the
// public map-returning wrappers pay for string materialization.
func foldBehaviorsBudget(p *Program, m Model, withReads bool, workers int, b Budget) (*behaviorSet, error) {
	return foldBehaviorsArena(p, m, withReads, workers, b, nil)
}

// foldBehaviorsArena is foldBehaviorsBudget with the serial path's scratch
// structures drawn from the arena (nil falls back to plain allocation). The
// parallel path ignores the arena — each worker builds its own walker,
// evaluator and behavior set, and must not share a single-threaded arena.
func foldBehaviorsArena(p *Program, m Model, withReads bool, workers int, b Budget, a *arena) (*behaviorSet, error) {
	lim := newLimiter(b)
	if lim.expired() {
		return newBehaviorSet(nil, withReads), lim.err()
	}
	if workers > 1 {
		a = nil
	}
	s := newEnumSpaceIn(p, a)
	ms := m.static(s.stat, a) // hoisted once, shared read-only by every worker
	acc := a.behaviorSet(s.stat, withReads)
	var tasks []enumTask
	if workers > 1 {
		tasks = s.tasks()
		workers = min(workers, len(tasks))
	}
	if workers <= 1 {
		w := s.newAliasWalkerIn(a)
		w.lim = lim
		f := folder{w: w, ev: newEvaluatorIn(s, m, ms, a), acc: acc}
		f.foldCo(0)
		return acc, lim.err()
	}
	folders := make([]*folder, workers)
	runTasks(len(tasks), workers, func(g int) func(int) bool {
		w := s.newWalker(true)
		w.lim = lim
		f := &folder{w: w, ev: newEvaluatorShared(s, m, ms), acc: newBehaviorSet(s.stat, withReads)}
		folders[g] = f
		return func(ti int) bool { return f.node(w.enter(tasks[ti]), true) }
	})
	for _, f := range folders {
		acc.merge(f.acc)
	}
	return acc, lim.err()
}

// folder is one behavior-fold worker. It walks the same rf×co tree as
// walker.walkCo, but checks consistency on partial executions — once the
// coherence orders are fixed, then after each read's rf source is assigned —
// and skips a subtree the moment its root fails the check.
//
// The pruning is exact. Every model's axiom is acyclicity of static ∪
// rf/co/fr edges, next to SC-per-location acyclicity and atomicity, and all
// three only gain edges as reads are assigned: the evaluator ignores reads
// whose rfOf is still -1, and a read's rf and fr edges depend on nothing but
// its own source and the fixed coherence orders. A cycle in a partial
// execution therefore survives in every completion of it, so the leaves the
// walk reaches are exactly the consistent candidates.
type folder struct {
	w   *walker
	ev  *evaluator
	acc *behaviorSet
}

// foldCo enumerates coherence orders for locs[ci:], then checks each
// co-only execution and descends into rf. Like walkCo, false means the
// budget stopped the walk early.
func (f *folder) foldCo(ci int) bool {
	s := f.w.s
	if ci == len(s.locs) {
		return f.node(0, true)
	}
	for _, order := range s.coChoices[ci] {
		f.w.setCo(ci, order)
		if !f.foldCo(ci + 1) {
			return false
		}
	}
	return true
}

// node checks the walker's current execution, in which reads[:ri] have rf
// sources and the rest have none, and folds or explores it only if it is
// consistent. A subtree root (root) is checked from scratch; any other node
// extends its parent's check by read ri-1. Every check draws one unit from
// the budget. A complete execution whose behavior is already in the set is
// not checked at all: it could add nothing.
func (f *folder) node(ri int, root bool) bool {
	x := f.w.x
	leaf := ri == len(f.w.s.reads)
	var key ikey
	var packed bool
	if leaf {
		if key, packed = f.acc.pack(x); packed && f.acc.hasKey(key) {
			return true
		}
	}
	if !f.w.lim.take() {
		return false
	}
	var ok bool
	if root {
		ok = f.ev.check(x, ri)
	} else {
		ok = f.ev.extend(x, ri)
	}
	switch {
	case !ok:
	case leaf:
		f.acc.insert(x, key, packed)
	default:
		return f.foldReads(ri)
	}
	return true
}

// foldReads tries every rf source of reads[ri] below the current node, then
// clears the read again: the from-scratch check of the next subtree root (a
// new co choice, or the next parallel task) must see it unassigned.
func (f *folder) foldReads(ri int) bool {
	w := f.w
	for _, src := range w.s.rfChoices[ri] {
		w.assign(ri, src)
		if !f.node(ri+1, false) {
			return false
		}
	}
	w.x.rfOf[w.s.reads[ri].ID] = -1
	return true
}
