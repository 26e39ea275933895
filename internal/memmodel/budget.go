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
	cause     atomic.Pointer[error]
}

func newLimiter(b Budget) *limiter {
	if b.Ctx == nil && b.MaxVisits <= 0 {
		return nil
	}
	return &limiter{ctx: b.Ctx, maxVisits: b.MaxVisits}
}

// reset re-arms l for a fresh enumeration under b, as newLimiter would
// build it, and returns it (nil when b is unbounded).
func (l *limiter) reset(b Budget) *limiter {
	if b.Ctx == nil && b.MaxVisits <= 0 {
		return nil
	}
	l.ctx, l.maxVisits = b.Ctx, b.MaxVisits
	l.visits.Store(0)
	l.stopped.Store(false)
	l.cause.Store(nil)
	return l
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
		l.cause.Store(&err)
	}
}

// err returns the budget violation, or nil when the walk ran to completion.
func (l *limiter) err() error {
	if l == nil || !l.stopped.Load() {
		return nil
	}
	if e := l.cause.Load(); e != nil {
		return *e
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
	return checkInclusion(src, srcModel, mapFn(src), "", tgtModel, DefaultParallelism, b, nil)
}

// CheckMappingScratch is CheckMappingBudget with every per-check structure
// drawn from sc and both folds run serially on the calling goroutine. Only
// the mapped program is built fresh, by mapFn; CheckSchemeScratch writes it
// into sc as well. A nil scratch falls back to plain allocation.
func CheckMappingScratch(src *Program, srcModel Model, mapFn func(*Program) *Program, tgtModel Model, b Budget, sc *CheckScratch) error {
	var a *arena
	if sc != nil {
		a = &sc.a
	}
	return checkInclusion(src, srcModel, mapFn(src), "", tgtModel, 1, b, a)
}

// CheckSchemeScratch is CheckMappingScratch for a mapping written as a
// Scheme: the target is written into sc's reusable program instead of a
// fresh one, so once sc is warm the whole check — mapping, both folds and
// the comparison — allocates nothing. It is the campaign engine's inner
// loop; a sweep holds one scratch per worker. sc must not be nil.
func CheckSchemeScratch(src *Program, srcModel Model, s Scheme, tgtModel Model, b Budget, sc *CheckScratch) error {
	return checkInclusion(src, srcModel, sc.mapped(src, s), s.Suffix, tgtModel, 1, b, &sc.a)
}

// checkInclusion is the core of every CheckMapping* entry point: fold src
// and tgt, then require every target behavior to be a source behavior. The
// arena (nil for plain allocation) is reset first and covers both folds. A
// budget error names the target tgt.Name+tgtSuffix: the scratch target
// carries its source's name and gains the scheme's suffix only when a
// message needs it.
func checkInclusion(src *Program, srcModel Model, tgt *Program, tgtSuffix string, tgtModel Model, workers int, b Budget, a *arena) error {
	a.reset()
	srcS, err := foldBehaviorsArena(src, srcModel, true, workers, b, a)
	if err != nil {
		return fmt.Errorf("checking %s under %s: %w", src.Name, srcModel.Name, err)
	}
	tgtS, err := foldBehaviorsArena(tgt, tgtModel, true, workers, b, a)
	if err != nil {
		return fmt.Errorf("checking %s%s under %s: %w", tgt.Name, tgtSuffix, tgtModel.Name, err)
	}
	return compareFolds(src, srcModel, tgtModel, srcS, tgtS)
}
