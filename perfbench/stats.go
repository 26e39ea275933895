package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie strictly beyond a tail percentile
// before it is reported: a p90 needs 100 samples, a p99 needs 1000.
const minBeyond = 10

// Samples is a list of operation durations.
type Samples []time.Duration

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Percentile returns the q-quantile (0 < q < 1) by nearest rank. A tail
// percentile (q > 0.5) is refused — ok is false — unless at least minBeyond
// samples lie beyond it, i.e. len(s) >= minBeyond/(1-q).
func (s Samples) Percentile(q float64) (d time.Duration, ok bool) {
	n := len(s)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	if q > 0.5 && float64(n)*(1-q) < minBeyond-1e-9 {
		return 0, false
	}
	sorted := append(Samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx], true
}

// MedianMs is the p50 in milliseconds (0 for no samples).
func (s Samples) MedianMs() float64 {
	d, _ := s.Percentile(0.5)
	return ms(d)
}

// Sum is the total duration.
func (s Samples) Sum() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

// TailMs reports the q-percentile in milliseconds, or nil when the
// percentile rule refuses it (so the report shows null, never a number
// drawn from too few samples).
func (s Samples) TailMs(q float64) any {
	d, ok := s.Percentile(q)
	if !ok {
		return nil
	}
	return ms(d)
}

// Failure classes counted into error_rate.
const (
	FailError     = "error"     // the operation returned an error
	FailIncorrect = "incorrect" // it returned, but its output failed a gate
	FailRefused   = "refused"   // 429 or 503: the daemon declined the work
	FailServer    = "server"    // any other non-200 status
	FailTransport = "transport" // connection or read error
	FailMalformed = "malformed" // a response or stream frame did not parse
)

// Tally counts attempted operations and failures by class. error_rate is
// Failed/Attempted.
type Tally struct {
	Attempted int
	Failed    int
	ByClass   map[string]int
	// Notes keeps the first few failure descriptions for the report.
	Notes []string
}

// OK records one successful operation.
func (t *Tally) OK() { t.Attempted++ }

// Fail records one failed operation of the given class.
func (t *Tally) Fail(class, format string, args ...any) {
	t.Attempted++
	t.Failed++
	if t.ByClass == nil {
		t.ByClass = map[string]int{}
	}
	t.ByClass[class]++
	if len(t.Notes) < 8 {
		t.Notes = append(t.Notes, class+": "+fmt.Sprintf(format, args...))
	}
}

// Gate records a check that is not itself an operation (a correctness gate
// over the whole run): it counts as one attempted operation, failed unless
// ok.
func (t *Tally) Gate(ok bool, format string, args ...any) {
	if ok {
		t.OK()
		return
	}
	t.Fail(FailIncorrect, format, args...)
}

// ErrorRate is Failed/Attempted (0 when nothing was attempted).
func (t *Tally) ErrorRate() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed) / float64(t.Attempted)
}

// median returns the median of xs (mean of the middle pair for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
