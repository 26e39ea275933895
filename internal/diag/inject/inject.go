// Package inject is the fault-injection harness for the translation
// pipeline. The pipeline calls Hit at each stage boundary with a point name
// of the form "<stage>:<function>" (e.g. "refine:main", "fences:worker",
// "opt:module"); tests arm points to force an error, a panic, or a stall at
// exactly that boundary and then assert that the pipeline degrades instead
// of crashing.
//
// When no point is armed — the production state — Hit is a single atomic
// load.
package inject

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Mode selects what an armed point does.
type Mode int

const (
	// Off disarms the point.
	Off Mode = iota
	// Fail makes Hit return a typed *Error.
	Fail
	// Panic makes Hit panic with a typed *Error, exercising the pipeline's
	// recover boundaries.
	Panic
	// Stall makes Hit block for StallDuration, or until the context passed
	// to HitContext is done if that comes first, exercising the pipeline's
	// time budgets.
	Stall
	// Corrupt marks a point at which the caller should apply a deterministic
	// silent corruption (a simulated miscompile). Hit returns nil for
	// Corrupt points — the mutation is the caller's job, queried through
	// ModeOf — so the failure is only discoverable by downstream validation
	// (checkpoints, the differential oracle), exactly like a real pass bug.
	Corrupt
)

func (m Mode) String() string {
	switch m {
	case Off:
		return "off"
	case Fail:
		return "fail"
	case Panic:
		return "panic"
	case Stall:
		return "stall"
	case Corrupt:
		return "corrupt"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// StallDuration is the longest a Stall-armed point blocks.
var StallDuration = 25 * time.Millisecond

// Error is the typed failure injected at an armed point.
type Error struct {
	Point string
	Mode  Mode
}

func (e *Error) Error() string {
	return fmt.Sprintf("inject: forced %s at %q", e.Mode, e.Point)
}

// armedPoint is one armed failpoint: its mode and, when remaining >= 0, how
// many more Hits it fires for before auto-disarming (-1 = unlimited).
type armedPoint struct {
	mode      Mode
	remaining int
}

var (
	armed  atomic.Int32 // number of armed points; the production fast path
	mu     sync.Mutex
	points = map[string]*armedPoint{}
)

// Arm sets the mode of a point. Arm(point, Off) is equivalent to Disarm.
func Arm(point string, m Mode) {
	armN(point, m, -1)
}

// ArmN arms a point for exactly n Hits: after firing n times the point
// disarms itself. This is the "kill once, then recover" shape chaos tests
// want — a transient fault the subject must absorb and then proceed past.
// n <= 0 is equivalent to Disarm.
func ArmN(point string, m Mode, n int) {
	if n <= 0 {
		Disarm(point)
		return
	}
	armN(point, m, n)
}

func armN(point string, m Mode, n int) {
	mu.Lock()
	defer mu.Unlock()
	_, was := points[point]
	if m == Off {
		if was {
			delete(points, point)
			armed.Add(-1)
		}
		return
	}
	points[point] = &armedPoint{mode: m, remaining: n}
	if !was {
		armed.Add(1)
	}
}

// Disarm removes a point.
func Disarm(point string) { Arm(point, Off) }

// Reset disarms every point.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	for p := range points {
		delete(points, p)
	}
	armed.Store(0)
}

// ModeOf returns the armed mode of a point (Off when disarmed). With
// nothing armed anywhere it costs one atomic load. ModeOf does not consume
// a count-limited arming; only Hit does.
func ModeOf(point string) Mode {
	if armed.Load() == 0 {
		return Off
	}
	mu.Lock()
	defer mu.Unlock()
	if p, ok := points[point]; ok {
		return p.mode
	}
	return Off
}

// Hit is called by the pipeline at a stage boundary. With nothing armed it
// costs one atomic load and returns nil. A Stall blocks for StallDuration.
func Hit(point string) error { return HitContext(context.Background(), point) }

// HitContext is Hit for a boundary that runs under a context, such as a
// function's time budget: a Stall blocks until ctx is done or StallDuration
// has passed, whichever comes first, so a stall under a budget shorter than
// StallDuration ends when the budget does.
func HitContext(ctx context.Context, point string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	m := Off
	if p, ok := points[point]; ok {
		m = p.mode
		if p.remaining > 0 {
			p.remaining--
			if p.remaining == 0 {
				delete(points, point)
				armed.Add(-1)
			}
		}
	}
	mu.Unlock()
	switch m {
	case Fail:
		return &Error{Point: point, Mode: Fail}
	case Panic:
		panic(&Error{Point: point, Mode: Panic})
	case Stall:
		t := time.NewTimer(StallDuration)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
		}
	}
	return nil
}
