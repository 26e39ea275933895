// Unit tests of the self-healing client against synthetic servers: a
// flapping server exercises the retry budget and circuit breaker, a
// garbage server proves protocol violations are loud and never retried.
package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"lasagne/internal/serve"
)

// flappingHandler fails the first n requests with the given status, then
// answers every request with the canned body (on /translate/stream, with
// a complete stream for module "m").
type flappingHandler struct {
	failures int32
	status   int
	calls    atomic.Int32
	body     string
}

const streamOK = `{"type":"module","seq":0,"module":"m","status":200}` + "\n" +
	`{"type":"done","seq":1,"modules":1}` + "\n"

func (h *flappingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := h.calls.Add(1)
	if n <= atomic.LoadInt32(&h.failures) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(h.status)
		fmt.Fprintf(w, `{"error":"synthetic failure %d"}`, n)
		return
	}
	if r.URL.Path == "/translate/stream" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprint(w, streamOK)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprint(w, h.body)
}

// retryCalls are the two logical calls that share the attempt loop; the retry
// and breaker tests run against both.
var retryCalls = []struct {
	name string
	do   func(*Client, context.Context) error
}{
	{"Translate", func(cl *Client, ctx context.Context) error {
		_, err := cl.Translate(ctx, []byte("x"), false, nil)
		return err
	}},
	{"TranslateStream", func(cl *Client, ctx context.Context) error {
		_, err := cl.TranslateStream(ctx, []serve.ModuleRequest{{Name: "m", Module: "AAAA"}}, nil)
		return err
	}},
}

// A server that sheds a few times and then recovers: the client retries
// through the flap, every attempt is accounted for, and the total stays
// within the configured budget.
func TestRetryThroughFlappingServer(t *testing.T) {
	h := &flappingHandler{failures: 3, status: http.StatusTooManyRequests,
		body: `{"object":"","stats":{}}`}
	ts := httptest.NewServer(h)
	defer ts.Close()

	cl := New(Options{
		BaseURL:          ts.URL,
		MaxAttempts:      8,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       5 * time.Millisecond,
		BreakerThreshold: 10, // out of the way: this test is about retries
	})
	resp, err := cl.Translate(context.Background(), []byte("ignored"), false, nil)
	if err != nil {
		t.Fatalf("Translate through flap: %v", err)
	}
	if resp == nil {
		t.Fatal("nil response")
	}
	if got := cl.Attempts(); got != 4 {
		t.Errorf("attempts = %d, want 4 (3 sheds + 1 success)", got)
	}
	if cl.BreakerOpens() != 0 {
		t.Errorf("breaker tripped below threshold: %d opens", cl.BreakerOpens())
	}
}

// Exhausting the attempt budget against a server that never recovers: the
// error wraps the last failure and the attempt count equals the budget.
func TestAttemptBudgetExhausted(t *testing.T) {
	for _, call := range retryCalls {
		t.Run(call.name, func(t *testing.T) {
			h := &flappingHandler{failures: 1 << 30, status: http.StatusInternalServerError}
			ts := httptest.NewServer(h)
			defer ts.Close()

			cl := New(Options{
				BaseURL:          ts.URL,
				MaxAttempts:      3,
				BaseBackoff:      time.Millisecond,
				MaxBackoff:       2 * time.Millisecond,
				BreakerThreshold: 10,
			})
			err := call.do(cl, context.Background())
			if err == nil {
				t.Fatal("want error after budget exhausted")
			}
			var se *StatusError
			if !errors.As(err, &se) || se.Code != http.StatusInternalServerError {
				t.Errorf("error %v does not wrap the final 500", err)
			}
			if got := cl.Attempts(); got != 3 {
				t.Errorf("attempts = %d, want exactly the budget of 3", got)
			}
		})
	}
}

// The breaker trips after BreakerThreshold consecutive failures, fails
// fast while open (no network attempts), lets a half-open probe through
// after the cooldown, and recovers when the server does.
func TestBreakerTripsAndRecovers(t *testing.T) {
	for _, call := range retryCalls {
		t.Run(call.name, func(t *testing.T) {
			h := &flappingHandler{failures: 1 << 30, status: http.StatusServiceUnavailable,
				body: `{"object":"","stats":{}}`}
			ts := httptest.NewServer(h)
			defer ts.Close()

			cl := New(Options{
				BaseURL:          ts.URL,
				MaxAttempts:      2,
				BaseBackoff:      time.Millisecond,
				MaxBackoff:       2 * time.Millisecond,
				BreakerThreshold: 2,
				BreakerCooldown:  50 * time.Millisecond,
			})

			// First call: 2 attempts, both fail, breaker trips at the threshold.
			if err := call.do(cl, context.Background()); err == nil {
				t.Fatal("want failure")
			}
			if cl.BreakerOpens() != 1 {
				t.Fatalf("breaker opens = %d, want 1", cl.BreakerOpens())
			}

			// While open, calls fail fast without touching the network. A
			// short context ends the call inside the open window.
			before := cl.Attempts()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			defer cancel()
			err := call.do(cl, ctx)
			if err == nil || !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("open-breaker call: %v, want ctx deadline while waiting for probe", err)
			}
			if got := cl.Attempts(); got != before {
				t.Errorf("open breaker sent %d network attempts", got-before)
			}

			// Server recovers; after the cooldown the half-open probe
			// succeeds and the breaker closes again.
			atomic.StoreInt32(&h.failures, 0)
			time.Sleep(60 * time.Millisecond)
			if err := call.do(cl, context.Background()); err != nil {
				t.Fatalf("recovery call: %v", err)
			}
			if got := cl.Attempts(); got != before+1 {
				t.Errorf("recovery took %d attempts, want 1 probe", got-before)
			}
		})
	}
}

// A half-open probe that fails re-opens the breaker immediately.
func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	for _, call := range retryCalls {
		t.Run(call.name, func(t *testing.T) {
			h := &flappingHandler{failures: 1 << 30, status: http.StatusBadGateway}
			ts := httptest.NewServer(h)
			defer ts.Close()

			cl := New(Options{
				BaseURL:          ts.URL,
				MaxAttempts:      1,
				BaseBackoff:      time.Millisecond,
				MaxBackoff:       2 * time.Millisecond,
				BreakerThreshold: 1,
				BreakerCooldown:  20 * time.Millisecond,
			})
			for i := 0; i < 3; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
				_ = call.do(cl, ctx)
				cancel()
				time.Sleep(25 * time.Millisecond) // let the cooldown lapse
			}
			if got := cl.BreakerOpens(); got < 2 {
				t.Errorf("breaker opens = %d, want >= 2 (failed probes re-open)", got)
			}
		})
	}
}

// While one caller holds the half-open probe, another caller waits for the
// probe's outcome: it sends nothing before the probe reports and burns no
// CPU meanwhile, then goes through on the closed breaker.
func TestBreakerWaitersWaitForProbe(t *testing.T) {
	const hold = 200 * time.Millisecond
	var (
		calls     atomic.Int32
		probeIn   = make(chan struct{})
		probeOut  atomic.Int64 // when the probe was answered (UnixNano)
		sentEarly atomic.Bool
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch calls.Add(1) {
		case 1: // trips the breaker
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"synthetic failure"}`)
			return
		case 2: // the half-open probe, held open
			close(probeIn)
			time.Sleep(hold)
			probeOut.Store(time.Now().UnixNano())
		default:
			if probeOut.Load() == 0 {
				sentEarly.Store(true)
			}
		}
		fmt.Fprint(w, `{"object":"","stats":{}}`)
	}))
	defer ts.Close()

	cl := New(Options{
		BaseURL:          ts.URL,
		MaxAttempts:      1,
		BreakerThreshold: 1,
		BreakerCooldown:  20 * time.Millisecond,
	})
	ctx := context.Background()
	if _, err := cl.Translate(ctx, []byte("x"), false, nil); err == nil {
		t.Fatal("want the tripping failure")
	}
	time.Sleep(30 * time.Millisecond) // let the cooldown lapse

	probeErr := make(chan error, 1)
	go func() {
		_, err := cl.Translate(ctx, []byte("x"), false, nil)
		probeErr <- err
	}()
	<-probeIn
	cpu0 := cpuTime(t)
	waiterErr := make(chan error, 1)
	go func() {
		_, err := cl.Translate(ctx, []byte("x"), false, nil)
		waiterErr <- err
	}()
	if err := <-probeErr; err != nil {
		t.Fatalf("probe: %v", err)
	}
	spent := cpuTime(t) - cpu0
	if err := <-waiterErr; err != nil {
		t.Fatalf("waiter: %v", err)
	}
	if sentEarly.Load() {
		t.Error("waiter sent a request before the probe reported")
	}
	// A spinning waiter burns about one CPU for the whole hold.
	if spent > hold/2 {
		t.Errorf("process used %v CPU while the probe was held for %v: the waiter spins", spent, hold)
	}
	if got := cl.Attempts(); got != 3 {
		t.Errorf("attempts = %d, want 3 (trip, probe, waiter)", got)
	}
}

// cpuTime is the user plus system CPU time this process has used.
func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Protocol violations are terminal: a complete-but-unparsable frame line
// surfaces ErrMalformedStream on the first attempt and is never retried.
func TestMalformedStreamNotRetried(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprint(w, "this is not json\n")
	}))
	defer ts.Close()

	cl := New(Options{BaseURL: ts.URL, BaseBackoff: time.Millisecond})
	_, err := cl.TranslateStream(context.Background(),
		[]serve.ModuleRequest{{Name: "m", Module: "AAAA"}}, nil)
	if !errors.Is(err, ErrMalformedStream) {
		t.Fatalf("err = %v, want ErrMalformedStream", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d requests, want 1 (protocol violations never retry)", got)
	}
}

// A sequence gap in an otherwise well-formed stream is the same class of
// violation.
func TestSequenceGapNotRetried(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprint(w, `{"type":"func","seq":0,"module":"m","func":"f"}`+"\n")
		fmt.Fprint(w, `{"type":"done","seq":5}`+"\n") // gap: 1..4 missing
	}))
	defer ts.Close()

	cl := New(Options{BaseURL: ts.URL, BaseBackoff: time.Millisecond})
	_, err := cl.TranslateStream(context.Background(),
		[]serve.ModuleRequest{{Name: "m", Module: "AAAA"}}, nil)
	if !errors.Is(err, ErrMalformedStream) {
		t.Fatalf("err = %v, want ErrMalformedStream on sequence gap", err)
	}
	if got := cl.Attempts(); got != 1 {
		t.Errorf("attempts = %d, want 1", got)
	}
}

// Deadline/budget propagation: the context deadline and the configured
// function budget ride to the server as headers.
func TestDeadlineBudgetHeaders(t *testing.T) {
	var gotDeadline, gotBudget atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotDeadline.Store(r.Header.Get("X-Lasagne-Deadline-Ms"))
		gotBudget.Store(r.Header.Get("X-Lasagne-Func-Budget-Ms"))
		fmt.Fprint(w, `{"object":"","stats":{}}`)
	}))
	defer ts.Close()

	cl := New(Options{BaseURL: ts.URL, FuncBudget: 1500 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := cl.Translate(ctx, []byte("x"), false, nil); err != nil {
		t.Fatal(err)
	}
	if d, _ := gotDeadline.Load().(string); d == "" {
		t.Error("X-Lasagne-Deadline-Ms not propagated")
	}
	if b, _ := gotBudget.Load().(string); b != "1500" {
		t.Errorf("X-Lasagne-Func-Budget-Ms = %q, want 1500", b)
	}

	// A budget under one millisecond rounds up: "0" would be refused with a
	// 400 that is never retried.
	cl = New(Options{BaseURL: ts.URL, FuncBudget: 500 * time.Microsecond})
	if _, err := cl.Translate(ctx, []byte("x"), false, nil); err != nil {
		t.Fatal(err)
	}
	if b, _ := gotBudget.Load().(string); b != "1" {
		t.Errorf("X-Lasagne-Func-Budget-Ms for 500µs = %q, want 1", b)
	}
}
