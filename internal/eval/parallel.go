package eval

import (
	"runtime"

	"lasagne/internal/obj"
	"lasagne/internal/sim"
)

// Parallelism bounds the worker pool used by BuildAll, RunAllContext,
// RunSuiteContext and the figure helpers. Commands override it via their
// -parallel flag; setting it to 1 makes the whole pipeline sequential.
// Results are independent of the value: every fan-out writes to
// index-fixed slots and error selection is lowest-index deterministic.
var Parallelism = runtime.GOMAXPROCS(0)

// MaxSimSteps caps the instructions executed by each simulation the
// evaluation runs. Zero keeps the simulator default (sim.DefaultMaxSteps).
// Commands override it via their -max-steps flag; a simulation that hits
// the cap fails with an error wrapping diag.ErrBudgetExceeded.
var MaxSimSteps int64

// newMachine builds a simulator for o with MaxSimSteps applied.
func newMachine(o *obj.File) (*sim.Machine, error) {
	mach, err := sim.NewMachine(o)
	if err != nil {
		return nil, err
	}
	if MaxSimSteps > 0 {
		mach.MaxSteps = MaxSimSteps
	}
	return mach, nil
}
