package main

import (
	"testing"
	"time"
)

func ramp(n int) Samples {
	s := make(Samples, n)
	for i := range s {
		s[i] = time.Duration(n-i) * time.Millisecond // descending: Percentile must sort
	}
	return s
}

// A tail percentile needs at least ten samples beyond it: a p90 from 100
// samples, a p99 from 1000, and nothing from fewer.
func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		ok   bool
		want time.Duration
	}{
		{1, 0.5, true, 1 * time.Millisecond},
		{99, 0.90, false, 0},
		{100, 0.90, true, 90 * time.Millisecond},
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990 * time.Millisecond},
		{0, 0.5, false, 0},
	}
	for _, c := range cases {
		got, ok := ramp(c.n).Percentile(c.q)
		if ok != c.ok || got != c.want {
			t.Errorf("p%g of %d samples = %v, %v; want %v, %v", 100*c.q, c.n, got, ok, c.want, c.ok)
		}
	}
	if v := ramp(999).TailMs(0.99); v != nil {
		t.Errorf("TailMs(0.99) of 999 samples = %v, want nil (refused)", v)
	}
	if v := ramp(4).MedianMs(); v != 2 {
		t.Errorf("median of 1..4 ms = %v, want 2 (nearest rank)", v)
	}
}

// Every failure class counts once into error_rate, and gates count as
// operations.
func TestErrorRateAccounting(t *testing.T) {
	var a Tally
	for i := 0; i < 4; i++ {
		a.OK()
	}
	classes := []string{FailError, FailIncorrect, FailRefused, FailServer, FailTransport, FailMalformed}
	for _, c := range classes {
		a.Fail(c, "injected %s", c)
	}
	a.Gate(true, "passes")
	a.Gate(false, "fails")
	if a.Attempted != 4+len(classes)+2 || a.Failed != len(classes)+1 {
		t.Fatalf("attempted/failed = %d/%d, want %d/%d", a.Attempted, a.Failed, 4+len(classes)+2, len(classes)+1)
	}
	for _, c := range classes {
		want := 1
		if c == FailIncorrect {
			want = 2 // the failed gate
		}
		if a.ByClass[c] != want {
			t.Errorf("class %s counted %d times, want %d", c, a.ByClass[c], want)
		}
	}
	if got, want := a.ErrorRate(), 7.0/12.0; got != want {
		t.Errorf("error rate %v, want %v", got, want)
	}
	var empty Tally
	if empty.ErrorRate() != 0 {
		t.Errorf("empty tally error rate %v", empty.ErrorRate())
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := NewTracer()
	tr.Begin("root")
	tr.Do("child", func() { time.Sleep(2 * time.Millisecond) })
	tr.End()
	ls := tr.Layers()
	root, child := ls["root"], ls["child"]
	if root == nil || child == nil || root.Count != 1 || child.Count != 1 {
		t.Fatalf("layers %v", ls)
	}
	if root.Self != root.Total-child.Total || child.Self != child.Total {
		t.Errorf("self times: root %v of %v, child %v of %v", root.Self, root.Total, child.Self, child.Total)
	}
	var nilTracer *Tracer
	nilTracer.Do("ignored", func() {}) // a nil tracer records nothing
}
