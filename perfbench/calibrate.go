package main

import (
	"crypto/sha256"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Speed calibration. On the reference machine (a 2-vCPU x86-64 container)
// the host's load changes how fast the same code runs: one Phoenix suite
// translation measured 157 ms in one minute and 340 ms some minutes later,
// while a register-only loop kept its speed. The slowdown is in the memory
// system, so it hits allocation- and pointer-heavy code. The benchmark
// therefore runs a fixed reference workload of that kind — independent of
// the repository's code — next to every measured operation, and reports each
// operation's time scaled to what it would have been at nominal speed:
//
//	reported = measured × calNominal / calibration
//
// A change to the program moves the measured time and not the calibration,
// so it shows in the reported time; a change in the machine's speed moves
// both and cancels. Reports keep the raw (unscaled) medians too.

// calNominal is the reference workload's wall time on the reference machine
// when it is quiet; it only sets the scale of reported times.
const calNominal = 6 * time.Millisecond

type calNode struct {
	next *calNode
	v    [6]uint64
}

var calSink atomic.Uint64

// calibrate runs the reference workload — small allocations chained
// through a map, a sort, and a SHA-256 over 64 KiB — and returns its wall
// time. Fresh allocation is part of the workload on purpose: a variant that
// reused its memory tracked the machine's slowdowns worse.
func calibrate() time.Duration {
	start := time.Now()
	m := make(map[uint64]*calNode, 1024)
	x := uint64(88172645463325252)
	keys := make([]uint64, 0, 20000)
	for i := 0; i < 20000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x % 50000
		m[k] = &calNode{next: m[k], v: [6]uint64{x}}
		keys = append(keys, k)
	}
	slices.Sort(keys)
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(keys[i%len(keys)])
	}
	h := sha256.Sum256(buf)
	calSink.Add(uint64(h[0]) + uint64(len(m)))
	return time.Since(start)
}

// calAllocMB is what one calibration allocates. The workload is
// deterministic, so this is a constant, which timed subtracts for every
// calibration that ran inside a measured operation.
var calAllocMB = sync.OnceValue(func() float64 {
	ms := make([]float64, 3)
	for i := range ms {
		ms[i] = allocMB(func() { calibrate() })
	}
	return median(ms)
})

// scaled converts a measured duration to nominal speed given the
// calibration measured next to it.
func scaled(d, cal time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(calNominal) / float64(cal))
}

// calibrateMedian is the median of n calibrations.
func calibrateMedian(n int) time.Duration {
	ds := make(Samples, n)
	for i := range ds {
		ds[i] = calibrate()
	}
	d, _ := ds.Percentile(0.5)
	return d
}

// calEvery is how often a long operation is interrupted for a calibration,
// so that a speed change in the middle of a multi-second operation is seen.
const calEvery = 500 * time.Millisecond

// timed runs op between two calibrations, with more every calEvery while it
// runs, and returns its raw wall time, that time scaled by the median
// calibration, and the MB op allocated (the calibrations' own allocations
// subtracted). The process runs on one P, so a calibration runs alone and
// times the machine, not the wait for a turn.
func timed(op func()) (raw, norm time.Duration, mb float64) {
	calMB := calAllocMB()
	cals := Samples{calibrate()}
	stop := make(chan struct{})
	var during Samples
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(calEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				during = append(during, calibrate())
			}
		}
	}()
	mb = allocMB(func() {
		start := time.Now()
		op()
		raw = time.Since(start)
		close(stop)
		wg.Wait()
	})
	mb -= float64(len(during)) * calMB
	cals = append(append(cals, during...), calibrate())
	c, _ := cals.Percentile(0.5)
	return raw, scaled(raw, c), mb
}
