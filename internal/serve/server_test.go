package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lasagne/internal/backend"
	"lasagne/internal/core"
	"lasagne/internal/core/cache"
	"lasagne/internal/diag/inject"
	"lasagne/internal/minic"
	"lasagne/internal/obj"
	"lasagne/internal/opt"
)

const concurrentSrc = `
int shared[64];
int total;
void worker(int tid) {
  int i;
  for (i = tid; i < 64; i = i + 4) {
    shared[i] = i * i;
    atomic_add(&total, shared[i]);
  }
}
int main() {
  int t;
  for (t = 0; t < 4; t = t + 1) spawn(worker, t);
  join();
  print_int(total);
  print_int(shared[10]);
  return 0;
}
`

// buildObj compiles a minic source to an x86-64 object the way the batch
// tests do.
func buildObj(t *testing.T, name, src string) *obj.File {
	t.Helper()
	m, err := minic.Compile(name, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Optimize(m); err != nil {
		t.Fatal(err)
	}
	bin, err := backend.Compile(m, "x86-64")
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// startServer builds a Server plus an httptest front end and tears both
// down with the test.
func startServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, ts
}

// post sends one translate request and decodes the JSON reply; hdrs is
// name/value pairs.
func post(t *testing.T, url string, req Request, hdrs ...string) (int, *Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/translate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(hdrs); i += 2 {
		hreq.Header.Set(hdrs[i], hdrs[i+1])
	}
	hres, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	var resp Response
	if err := json.NewDecoder(hres.Body).Decode(&resp); err != nil {
		t.Fatalf("response is not well-formed JSON (status %d): %v", hres.StatusCode, err)
	}
	return hres.StatusCode, &resp
}

func moduleB64(bin *obj.File) string {
	return base64.StdEncoding.EncodeToString(bin.Marshal())
}

func TestTranslateMatchesBatch(t *testing.T) {
	bin := buildObj(t, "t", concurrentSrc)
	want, _, _, err := core.Translate(bin, core.Default())
	if err != nil {
		t.Fatal(err)
	}

	_, ts := startServer(t, Options{Cache: cache.New(0)})
	status, resp := post(t, ts.URL, Request{Module: moduleB64(bin)})
	if status != http.StatusOK {
		t.Fatalf("status %d, error %q", status, resp.Error)
	}
	if len(resp.Degraded) != 0 {
		t.Fatalf("clean module degraded: %v", resp.Degraded)
	}
	got, err := base64.StdEncoding.DecodeString(resp.Object)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Marshal()) {
		t.Error("daemon output is not byte-identical to the batch pipeline")
	}
	if resp.Stats == nil || resp.Stats.FencesFinal == 0 {
		t.Errorf("stats missing or empty: %+v", resp.Stats)
	}

	// Second identical request: served from the shared cache, still
	// byte-identical.
	status, resp2 := post(t, ts.URL, Request{Module: moduleB64(bin)})
	if status != http.StatusOK {
		t.Fatalf("warm status %d", status)
	}
	if resp2.Object != resp.Object {
		t.Error("warm response differs from cold response")
	}
	if resp2.Stats.CacheHits == 0 {
		t.Error("warm request did not hit the shared cache")
	}
}

func TestReverseDirection(t *testing.T) {
	m, err := minic.Compile("t", concurrentSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Optimize(m); err != nil {
		t.Fatal(err)
	}
	armBin, err := backend.Compile(m, "arm64")
	if err != nil {
		t.Fatal(err)
	}
	want, _, _, err := core.TranslateArmToX86(armBin, core.Default())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startServer(t, Options{})
	status, resp := post(t, ts.URL, Request{Module: moduleB64(armBin), Reverse: true})
	if status != http.StatusOK {
		t.Fatalf("status %d, error %q", status, resp.Error)
	}
	got, err := base64.StdEncoding.DecodeString(resp.Object)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Marshal()) {
		t.Error("reverse daemon output differs from batch")
	}
}

func TestBadRequestsAreTyped(t *testing.T) {
	bin := buildObj(t, "t", concurrentSrc)
	_, ts := startServer(t, Options{})

	cases := []struct {
		name string
		do   func() (int, *Response)
		want int
	}{
		{"bad json", func() (int, *Response) {
			hres, err := http.Post(ts.URL+"/translate", "application/json", strings.NewReader("{"))
			if err != nil {
				t.Fatal(err)
			}
			defer hres.Body.Close()
			var r Response
			if err := json.NewDecoder(hres.Body).Decode(&r); err != nil {
				t.Fatalf("malformed error response: %v", err)
			}
			return hres.StatusCode, &r
		}, http.StatusBadRequest},
		{"bad base64", func() (int, *Response) {
			return post(t, ts.URL, Request{Module: "!!!not-base64!!!"})
		}, http.StatusBadRequest},
		{"bad object", func() (int, *Response) {
			return post(t, ts.URL, Request{Module: base64.StdEncoding.EncodeToString([]byte("junk"))})
		}, http.StatusBadRequest},
		{"wrong arch", func() (int, *Response) {
			m, _ := minic.Compile("t", "int main() { return 0; }")
			armObj, err := backend.Compile(m, "arm64")
			if err != nil {
				t.Fatal(err)
			}
			return post(t, ts.URL, Request{Module: moduleB64(armObj)})
		}, http.StatusUnprocessableEntity},
		{"bad deadline header", func() (int, *Response) {
			return post(t, ts.URL, Request{Module: moduleB64(bin)}, "X-Lasagne-Deadline-Ms", "soon")
		}, http.StatusBadRequest},
		{"bad budget header", func() (int, *Response) {
			return post(t, ts.URL, Request{Module: moduleB64(bin)}, "X-Lasagne-Func-Budget-Ms", "-5")
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		status, resp := tc.do()
		if status != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, status, tc.want)
		}
		if resp.Error == "" {
			t.Errorf("%s: error field empty", tc.name)
		}
		if resp.Object != "" {
			t.Errorf("%s: error response carries an object", tc.name)
		}
	}

	// GET on /translate.
	hres, err := http.Get(ts.URL + "/translate")
	if err != nil {
		t.Fatal(err)
	}
	hres.Body.Close()
	if hres.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /translate: status %d, want 405", hres.StatusCode)
	}
}

// waitCond polls until cond holds or the deadline passes.
func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestAdmissionSheddingAndRecovery(t *testing.T) {
	defer inject.Reset()
	old := inject.StallDuration
	inject.StallDuration = 300 * time.Millisecond
	defer func() { inject.StallDuration = old }()

	bin := buildObj(t, "t", concurrentSrc)
	s, ts := startServer(t, Options{Workers: 1, QueueDepth: 1})
	inject.Arm("refine:main", inject.Stall)

	type res struct {
		status int
		resp   *Response
	}
	results := make(chan res, 2)
	send := func() {
		status, resp := post(t, ts.URL, Request{Module: moduleB64(bin)})
		results <- res{status, resp}
	}
	// A occupies the single worker (stalled in refine)...
	go send()
	waitCond(t, "worker busy", func() bool { return s.Inflight() == 1 })
	// ...B fills the queue...
	go send()
	waitCond(t, "queue full", func() bool { return s.Queued() == 1 })

	// ...so C is shed with 429 + Retry-After, and readyz reports saturated.
	body, _ := json.Marshal(Request{Module: moduleB64(bin)})
	hres, err := http.Post(ts.URL+"/translate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	if hres.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status %d, want 429", hres.StatusCode)
	}
	if hres.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	rz, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while saturated: %d, want 503", rz.StatusCode)
	}

	// A and B complete fine; after recovery a new request is admitted.
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Errorf("queued request finished with %d (%s)", r.status, r.resp.Error)
		}
	}
	inject.Reset()
	status, resp := post(t, ts.URL, Request{Module: moduleB64(bin)})
	if status != http.StatusOK {
		t.Errorf("post-recovery status %d (%s)", status, resp.Error)
	}
	if s.healthBody().Shed != 1 {
		t.Errorf("shed counter = %d, want 1", s.healthBody().Shed)
	}
}

func TestPanicIsolation(t *testing.T) {
	defer inject.Reset()
	bin := buildObj(t, "t", concurrentSrc)
	s, ts := startServer(t, Options{Workers: 1})

	inject.ArmN("serve:request", inject.Panic, 1)
	status, resp := post(t, ts.URL, Request{Module: moduleB64(bin)})
	if status != http.StatusInternalServerError {
		t.Fatalf("panicked request: status %d, want 500", status)
	}
	if resp.Error == "" || len(resp.Diagnostics) == 0 {
		t.Error("panic response missing error/diagnostics")
	}
	found := false
	for _, d := range resp.Diagnostics {
		if d.Stage == "serve" && d.Severity == "error" {
			found = true
		}
	}
	if !found {
		t.Errorf("no serve-stage error diagnostic in %+v", resp.Diagnostics)
	}

	// The process — and the single worker — survived.
	status, resp = post(t, ts.URL, Request{Module: moduleB64(bin)})
	if status != http.StatusOK {
		t.Fatalf("request after panic: status %d (%s) — worker died?", status, resp.Error)
	}
	if got := s.healthBody().Panics; got != 1 {
		t.Errorf("panics counter = %d, want 1", got)
	}
}

func TestDeadlineHeaderPropagates(t *testing.T) {
	defer inject.Reset()
	old := inject.StallDuration
	inject.StallDuration = 200 * time.Millisecond
	defer func() { inject.StallDuration = old }()
	inject.Arm("refine:main", inject.Stall)

	bin := buildObj(t, "t", concurrentSrc)
	_, ts := startServer(t, Options{})
	status, resp := post(t, ts.URL, Request{Module: moduleB64(bin)},
		"X-Lasagne-Deadline-Ms", "30")
	if status != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: status %d (%s), want 504", status, resp.Error)
	}
	if !strings.Contains(resp.Error, "budget") && !strings.Contains(resp.Error, "interrupted") {
		t.Errorf("timeout error does not name the budget: %q", resp.Error)
	}

	// Counts beyond the time.Duration range saturate: the deadline clamps
	// to MaxDeadline and the budget is effectively unbounded, instead of
	// wrapping negative into an expired context or no budget at all.
	inject.Reset()
	for _, v := range []string{"10000000000000", "99999999999999999999"} {
		for _, h := range []string{"X-Lasagne-Deadline-Ms", "X-Lasagne-Func-Budget-Ms"} {
			status, resp := post(t, ts.URL, Request{Module: moduleB64(bin)}, h, v)
			if status != http.StatusOK || len(resp.Degraded) != 0 {
				t.Errorf("%s: %s: status %d (%s), degraded %v; want a clean 200",
					h, v, status, resp.Error, resp.Degraded)
			}
		}
	}
}

func TestFuncBudgetHeaderPropagates(t *testing.T) {
	defer inject.Reset()
	old := inject.StallDuration
	inject.StallDuration = 200 * time.Millisecond
	defer func() { inject.StallDuration = old }()
	inject.Arm("fences:worker", inject.Stall)

	bin := buildObj(t, "t", concurrentSrc)
	_, ts := startServer(t, Options{})
	status, resp := post(t, ts.URL, Request{Module: moduleB64(bin)},
		"X-Lasagne-Func-Budget-Ms", "30")
	if status != http.StatusOK {
		t.Fatalf("status %d (%s), want 200 with degradation", status, resp.Error)
	}
	deg := false
	for _, fn := range resp.Degraded {
		if fn == "worker" {
			deg = true
		}
	}
	if !deg {
		t.Errorf("worker did not degrade under a 30ms function budget (degraded: %v)", resp.Degraded)
	}
}

func TestDrainRefusesNewFinishesOld(t *testing.T) {
	defer inject.Reset()
	old := inject.StallDuration
	inject.StallDuration = 300 * time.Millisecond
	defer func() { inject.StallDuration = old }()
	inject.Arm("refine:main", inject.Stall)

	bin := buildObj(t, "t", concurrentSrc)
	s, ts := startServer(t, Options{Workers: 1})

	done := make(chan int, 1)
	go func() {
		status, _ := post(t, ts.URL, Request{Module: moduleB64(bin)})
		done <- status
	}()
	waitCond(t, "request in flight", func() bool { return s.Inflight() == 1 })

	s.BeginDrain()
	status, resp := post(t, ts.URL, Request{Module: moduleB64(bin)})
	if status != http.StatusServiceUnavailable {
		t.Errorf("request during drain: status %d (%s), want 503", status, resp.Error)
	}
	rz, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain: %d, want 503", rz.StatusCode)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("healthz during drain: %d, want 200 (process is alive)", hz.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain did not complete: %v", err)
	}
	if got := <-done; got != http.StatusOK {
		t.Errorf("in-flight request during drain finished with %d, want 200", got)
	}
}

func TestDrainDeadlineExpires(t *testing.T) {
	defer inject.Reset()
	old := inject.StallDuration
	inject.StallDuration = 500 * time.Millisecond
	defer func() { inject.StallDuration = old }()
	inject.Arm("refine:main", inject.Stall)

	bin := buildObj(t, "t", concurrentSrc)
	s, ts := startServer(t, Options{Workers: 1})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		post(t, ts.URL, Request{Module: moduleB64(bin)})
	}()
	waitCond(t, "request in flight", func() bool { return s.Inflight() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Error("Drain returned nil despite work still in flight at the deadline")
	} else if !strings.Contains(err.Error(), "drain deadline") {
		t.Errorf("unexpected drain error: %v", err)
	}
	// The abandoned request still drains through its worker; wait for it so
	// the deferred injection restores don't race with it.
	<-finished
}

func TestHealthzCounters(t *testing.T) {
	bin := buildObj(t, "t", concurrentSrc)
	c := cache.New(0)
	_, ts := startServer(t, Options{Cache: c})
	for i := 0; i < 2; i++ {
		if status, resp := post(t, ts.URL, Request{Module: moduleB64(bin)}); status != 200 {
			t.Fatalf("status %d (%s)", status, resp.Error)
		}
	}
	hres, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	var h HealthBody
	if err := json.NewDecoder(hres.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Served != 2 {
		t.Errorf("served = %d, want 2", h.Served)
	}
	if h.Cache == nil || h.Cache.Hits == 0 || h.Cache.Misses == 0 {
		t.Errorf("cache health missing or empty: %+v", h.Cache)
	}
	if h.Workers <= 0 || h.QueueCapacity <= 0 {
		t.Errorf("static sizing missing: %+v", h)
	}
}

// Per-request config overrides change the output the way the matching batch
// config does.
func TestConfigOverride(t *testing.T) {
	bin := buildObj(t, "t", concurrentSrc)
	noWeak := core.Default()
	noWeak.WeakFences = false
	want, _, _, err := core.Translate(bin, noWeak)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startServer(t, Options{})
	f := false
	status, resp := post(t, ts.URL, Request{Module: moduleB64(bin),
		Config: &ConfigJSON{WeakFences: &f}})
	if status != http.StatusOK {
		t.Fatalf("status %d (%s)", status, resp.Error)
	}
	got, err := base64.StdEncoding.DecodeString(resp.Object)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Marshal()) {
		t.Error("weak_fences=false override does not match the batch -weak-fences=false output")
	}
	if resp.Stats.AcquireLoads != 0 || resp.Stats.ReleaseStores != 0 {
		t.Errorf("weak lowering ran despite the override: %+v", resp.Stats)
	}
}

// Queued and Inflight expose the live queue counters.
func (s *Server) Queued() int64   { return s.queued.Load() }
func (s *Server) Inflight() int64 { return s.inflight.Load() }
