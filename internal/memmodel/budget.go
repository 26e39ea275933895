package memmodel

import (
	"context"
	"fmt"
	"sync/atomic"

	"lasagne/internal/diag"
)

// Budget bounds an enumeration. The zero value is unbounded — the behavior
// of the non-Budget entry points. A bounded enumeration that runs out
// returns an error wrapping diag.ErrBudgetExceeded and whatever partial
// results were folded before the cutoff.
type Budget struct {
	// Ctx aborts the enumeration when it is done. Nil means no deadline.
	Ctx context.Context
	// MaxVisits caps the enumeration work across all workers. Zero means
	// unlimited. The behavior folds (BehaviorsOf*, CheckMapping*) count
	// enumeration nodes checked, partial or complete, since they prune
	// whole subtrees and reach few complete candidates.
	MaxVisits int64
}

// ctxPollInterval is how many budget units pass between context polls; a
// visit or check is sub-microsecond, so polling each one would dominate the
// walk.
const ctxPollInterval = 256

// limiter enforces one Budget across the (possibly parallel) enumeration
// workers. A nil limiter is the unbounded fast path: one nil check per
// budget unit.
type limiter struct {
	ctx       context.Context
	maxVisits int64
	visits    atomic.Int64
	stopped   atomic.Bool
	cause     atomic.Value // error
}

func newLimiter(b Budget) *limiter {
	if b.Ctx == nil && b.MaxVisits <= 0 {
		return nil
	}
	return &limiter{ctx: b.Ctx, maxVisits: b.MaxVisits}
}

// take consumes one budget unit, a node check inside a fold; false means
// the walk must stop.
func (l *limiter) take() bool {
	if l == nil {
		return true
	}
	if l.stopped.Load() {
		return false
	}
	n := l.visits.Add(1)
	if l.maxVisits > 0 && n > l.maxVisits {
		l.stop(fmt.Errorf("memmodel: enumeration cut off after %d steps: %w",
			l.maxVisits, diag.ErrBudgetExceeded))
		return false
	}
	if l.ctx != nil && n%ctxPollInterval == 0 {
		if err := l.ctx.Err(); err != nil {
			l.stop(fmt.Errorf("memmodel: enumeration interrupted after %d steps: %w (%v)",
				n, diag.ErrBudgetExceeded, err))
			return false
		}
	}
	return true
}

func (l *limiter) stop(err error) {
	if l.stopped.CompareAndSwap(false, true) {
		l.cause.Store(err)
	}
}

// err returns the budget violation, or nil when the walk ran to completion.
func (l *limiter) err() error {
	if l == nil || !l.stopped.Load() {
		return nil
	}
	if e, ok := l.cause.Load().(error); ok {
		return e
	}
	return diag.ErrBudgetExceeded
}

// expired pre-checks a context so an already-dead deadline fails before any
// enumeration work happens.
func (l *limiter) expired() bool {
	if l == nil || l.ctx == nil {
		return false
	}
	if err := l.ctx.Err(); err != nil {
		l.stop(fmt.Errorf("memmodel: enumeration not started: %w (%v)", diag.ErrBudgetExceeded, err))
		return true
	}
	return false
}

// BehaviorsOfBudget is BehaviorsOf under a Budget. On cutoff the returned
// map holds the behaviors of the candidates visited so far — a sound
// underapproximation — together with the budget error.
//
// The fold runs on the bitset engine: the model's skeleton-static order is
// hoisted once, the walker's scratch arena (relation buffers, dense co
// index, interned behavior keys) is reused across candidates, and the
// steady-state per-candidate path performs zero heap allocations.
func BehaviorsOfBudget(p *Program, m Model, withReads bool, b Budget) (map[string]Behavior, error) {
	acc, err := foldBehaviorsBudget(p, m, withReads, 1, b)
	return acc.result(), err
}

// CheckMappingBudget verifies Theorem 7.1 on one program under a Budget.
// A cutoff yields the budget error, never a verdict: behavior-set inclusion
// over partial sets proves nothing in either direction.
func CheckMappingBudget(src *Program, srcModel Model, mapFn func(*Program) *Program, tgtModel Model, b Budget) error {
	tgt := mapFn(src)
	srcS, err := foldBehaviorsBudget(src, srcModel, true, DefaultParallelism, b)
	if err != nil {
		return fmt.Errorf("checking %s under %s: %w", src.Name, srcModel.Name, err)
	}
	tgtS, err := foldBehaviorsBudget(tgt, tgtModel, true, DefaultParallelism, b)
	if err != nil {
		return fmt.Errorf("checking %s under %s: %w", tgt.Name, tgtModel.Name, err)
	}
	return compareFolds(src, srcModel, tgtModel, srcS, tgtS)
}

// CheckMappingScratch is CheckMappingBudget with every per-check structure
// drawn from sc and both folds run serially on the calling goroutine. It is
// the campaign engine's inner loop: a sweep checking many small programs
// holds one scratch per worker, and once the scratch is warm each additional
// check allocates nothing beyond the mapped program itself. A nil scratch
// falls back to plain allocation.
func CheckMappingScratch(src *Program, srcModel Model, mapFn func(*Program) *Program, tgtModel Model, b Budget, sc *CheckScratch) error {
	var a *arena
	if sc != nil {
		a = &sc.a
		a.reset()
	}
	tgt := mapFn(src)
	srcS, err := foldBehaviorsArena(src, srcModel, true, 1, b, a)
	if err != nil {
		return fmt.Errorf("checking %s under %s: %w", src.Name, srcModel.Name, err)
	}
	tgtS, err := foldBehaviorsArena(tgt, tgtModel, true, 1, b, a)
	if err != nil {
		return fmt.Errorf("checking %s under %s: %w", tgt.Name, tgtModel.Name, err)
	}
	return compareFolds(src, srcModel, tgtModel, srcS, tgtS)
}
