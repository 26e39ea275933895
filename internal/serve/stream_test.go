// Functional tests of the streaming endpoint and the client, in an
// external test package: internal/serve/client imports serve, so any test
// that exercises the real client against the real server must sit outside
// package serve to avoid an import cycle.
package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
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
	"lasagne/internal/phoenix"
	"lasagne/internal/serve"
	"lasagne/internal/serve/client"
)

const concurrentSrcX = `
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

func buildObjX(t *testing.T, name, src string) *obj.File {
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

func startServerX(t *testing.T, opts serve.Options) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, ts
}

func moduleB64X(bin *obj.File) string {
	return base64.StdEncoding.EncodeToString(bin.Marshal())
}

func waitCondX(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// health fetches and decodes /healthz.
func health(t *testing.T, url string) serve.HealthBody {
	t.Helper()
	res, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var h serve.HealthBody
	if err := json.NewDecoder(res.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// parseFrames reads a stream body to its end, enforcing the framing
// invariants: every complete line parses, sequence numbers are contiguous,
// nothing follows the done frame. A final line without a trailing newline
// is the torn tail of a dropped connection — returned, not fatal, because
// chaos tests provoke it on purpose.
func parseFrames(t *testing.T, r io.Reader) (frames []serve.Frame, torn bool) {
	t.Helper()
	br := bufio.NewReaderSize(r, 256<<10)
	seq := 0
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return frames, line != ""
		}
		var fr serve.Frame
		if err := json.Unmarshal([]byte(line), &fr); err != nil {
			t.Fatalf("malformed frame %q: %v", line, err)
		}
		if fr.Seq != seq {
			t.Fatalf("sequence gap: got %d, want %d", fr.Seq, seq)
		}
		seq++
		frames = append(frames, fr)
		if fr.Type == serve.FrameDone {
			if extra, _ := io.ReadAll(br); len(extra) != 0 {
				t.Fatalf("%d bytes after the done frame", len(extra))
			}
			return frames, false
		}
	}
}

// streamFrames POSTs a stream request and parses the whole reply.
func streamFrames(t *testing.T, url string, req serve.StreamRequest) (int, []serve.Frame) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(url+"/translate/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return res.StatusCode, nil
	}
	frames, torn := parseFrames(t, res.Body)
	if torn {
		t.Fatal("clean stream ended in a torn frame")
	}
	return res.StatusCode, frames
}

// definedBodies computes the per-function canonical encodings of the final
// translated IR — the reference every streamed func frame must match.
func definedBodies(t *testing.T, bin *obj.File) map[string][]byte {
	t.Helper()
	refIR, _, _, err := core.TranslateToIR(bin, core.Default())
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[string][]byte{}
	for _, f := range refIR.Funcs {
		if f.External || len(f.Blocks) == 0 {
			continue
		}
		bodies[f.Name] = cache.EncodeBody(f)
	}
	return bodies
}

// The acceptance pin: over the Phoenix suite, the streamed result, the
// resumed result, and the batch POST /translate result are all
// byte-identical to the offline pipeline — per module, and per function
// against the final IR's canonical encodings. A warm batch, replayed from
// the module cache tier, repeats the cold batch's frames, and a partly-acked
// resume suppresses exactly the acked ones.
func TestStreamThreePathIdentityPhoenix(t *testing.T) {
	type ref struct {
		objBytes []byte
		bodies   map[string][]byte
	}
	refs := map[string]ref{}
	var mods []serve.ModuleRequest
	for _, b := range phoenix.All() {
		bin := buildObjX(t, b.Name, b.Source)
		want, _, _, err := core.Translate(bin, core.Default())
		if err != nil {
			t.Fatalf("%s: offline: %v", b.Name, err)
		}
		refs[b.Name] = ref{objBytes: want.Marshal(), bodies: definedBodies(t, bin)}
		mods = append(mods, serve.ModuleRequest{Name: b.Name, Module: moduleB64X(bin)})
	}

	_, ts := startServerX(t, serve.Options{Workers: 4, Cache: cache.New(0)})

	// Path 1: the full suite as one cold streamed batch, via the client.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cl := client.New(client.Options{BaseURL: ts.URL})
	results, err := cl.TranslateStream(ctx, mods, nil)
	if err != nil {
		t.Fatal(err)
	}
	allKeys := []string{}
	for _, b := range phoenix.All() {
		mr := results[b.Name]
		if mr == nil || mr.Status != http.StatusOK {
			t.Fatalf("%s: missing or failed module result: %+v", b.Name, mr)
		}
		if !bytes.Equal(mr.Object, refs[b.Name].objBytes) {
			t.Errorf("%s: streamed object differs from offline pipeline", b.Name)
		}
		if len(mr.Funcs) != len(refs[b.Name].bodies) {
			t.Errorf("%s: %d func frames for %d defined functions",
				b.Name, len(mr.Funcs), len(refs[b.Name].bodies))
		}
		seen := map[string]bool{}
		for _, f := range mr.Funcs {
			if seen[f.Func] {
				t.Errorf("%s: duplicate func frame for %s", b.Name, f.Func)
			}
			seen[f.Func] = true
			wantBody, ok := refs[b.Name].bodies[f.Func]
			if !ok {
				t.Errorf("%s: frame for unknown function %s", b.Name, f.Func)
				continue
			}
			if !bytes.Equal(f.Body, wantBody) {
				t.Errorf("%s/%s: streamed body differs from the final IR encoding", b.Name, f.Func)
			}
			if f.Key == "" {
				t.Errorf("%s/%s: clean function frame carries no resume key", b.Name, f.Func)
			}
			allKeys = append(allKeys, f.Key)
		}
	}

	// Path 1b: the same batch again, now a module-tier hit per module. The
	// replayed func frames carry the cold batch's keys, bodies and fence
	// counts, and each module frame equals the cold one up to its cache
	// counters (every function now a hit).
	status, warmFrames := streamFrames(t, ts.URL, serve.StreamRequest{Modules: mods})
	if status != http.StatusOK {
		t.Fatalf("warm batch status %d", status)
	}
	warmFuncs := map[string]int{}
	for i := range warmFrames {
		fr := &warmFrames[i]
		cold := results[fr.Module]
		switch fr.Type {
		case serve.FrameFunc:
			warmFuncs[fr.Module]++
			var cf *client.FuncResult
			for j := range cold.Funcs {
				if cold.Funcs[j].Func == fr.Func {
					cf = &cold.Funcs[j]
				}
			}
			body, err := base64.StdEncoding.DecodeString(fr.Body)
			if cf == nil || err != nil {
				t.Errorf("%s/%s: warm frame for a function the cold batch never sent", fr.Module, fr.Func)
				continue
			}
			if fr.Key != cf.Key || !bytes.Equal(body, cf.Body) || fr.Placed != cf.Placed ||
				fr.Merged != cf.Merged || fr.FuncDegraded || !fr.CacheHit {
				t.Errorf("%s/%s: warm func frame differs from the cold one", fr.Module, fr.Func)
			}
		case serve.FrameModule:
			got, err := base64.StdEncoding.DecodeString(fr.Object)
			if err != nil {
				t.Fatal(err)
			}
			if fr.Status != cold.Status || !bytes.Equal(got, cold.Object) ||
				len(fr.Diagnostics) != 0 || len(fr.Degraded) != 0 {
				t.Errorf("%s: warm module frame differs from the cold one", fr.Module)
			}
			if fr.Stats == nil || fr.Stats.CacheMisses != 0 ||
				fr.Stats.CacheHits != cold.Stats.CacheHits+cold.Stats.CacheMisses {
				t.Errorf("%s: warm module frame stats %+v, want every function a hit", fr.Module, fr.Stats)
				continue
			}
			ws, cs := *fr.Stats, *cold.Stats
			ws.CacheHits, ws.CacheMisses, cs.CacheHits, cs.CacheMisses = 0, 0, 0, 0
			if ws != cs {
				t.Errorf("%s: warm module stats %+v differ from cold %+v", fr.Module, ws, cs)
			}
		}
	}
	for _, b := range phoenix.All() {
		if warmFuncs[b.Name] != len(results[b.Name].Funcs) {
			t.Errorf("%s: warm batch sent %d func frames, cold sent %d",
				b.Name, warmFuncs[b.Name], len(results[b.Name].Funcs))
		}
	}

	// Path 2: unary batch POST per module (warm cache, same bytes).
	for _, b := range phoenix.All() {
		body, _ := json.Marshal(serve.Request{Module: mods2b64(mods, b.Name)})
		res, err := http.Post(ts.URL+"/translate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var resp serve.Response
		if err := json.NewDecoder(res.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("%s: batch POST status %d (%s)", b.Name, res.StatusCode, resp.Error)
		}
		got, err := base64.StdEncoding.DecodeString(resp.Object)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, refs[b.Name].objBytes) {
			t.Errorf("%s: batch POST object differs from offline pipeline", b.Name)
		}
	}

	// Path 3: a fully-acked resume of the same batch — every function is
	// suppressed from the wire, nothing is recomputed (zero cache misses),
	// and the module objects are still byte-identical.
	status, frames := streamFrames(t, ts.URL, serve.StreamRequest{Modules: mods, Acked: allKeys})
	if status != http.StatusOK {
		t.Fatalf("resume status %d", status)
	}
	var done *serve.Frame
	for i := range frames {
		fr := &frames[i]
		switch fr.Type {
		case serve.FrameFunc:
			t.Errorf("fully-acked resume re-sent func frame %s/%s", fr.Module, fr.Func)
		case serve.FrameModule:
			if fr.Status != http.StatusOK {
				t.Errorf("%s: resumed module status %d (%s)", fr.Module, fr.Status, fr.Error)
				continue
			}
			got, err := base64.StdEncoding.DecodeString(fr.Object)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, refs[fr.Module].objBytes) {
				t.Errorf("%s: resumed object differs from offline pipeline", fr.Module)
			}
			if fr.Stats == nil || fr.Stats.CacheMisses != 0 {
				t.Errorf("%s: resume recomputed work: stats %+v", fr.Module, fr.Stats)
			}
		case serve.FrameDone:
			done = fr
		}
	}
	if done == nil {
		t.Fatal("no done frame")
	}
	if done.Skipped != len(allKeys) {
		t.Errorf("done frame skipped %d, want %d acked functions", done.Skipped, len(allKeys))
	}
	if h := health(t, ts.URL); h.ResumedJobs == 0 {
		t.Errorf("healthz resumed_jobs = 0 after a resume: %+v", h)
	}

	// Path 4: a partly-acked warm resume suppresses exactly the acked
	// functions: every other function's frame is still sent.
	acked := map[string]bool{}
	for i, k := range allKeys {
		if i%2 == 0 {
			acked[k] = true
		}
	}
	var ackList []string
	for k := range acked {
		ackList = append(ackList, k)
	}
	status, frames = streamFrames(t, ts.URL, serve.StreamRequest{Modules: mods, Acked: ackList})
	if status != http.StatusOK {
		t.Fatalf("partial resume status %d", status)
	}
	sent := map[string]bool{}
	done = nil
	for i := range frames {
		fr := &frames[i]
		switch fr.Type {
		case serve.FrameFunc:
			if acked[fr.Key] {
				t.Errorf("partial resume re-sent acked func frame %s/%s", fr.Module, fr.Func)
			}
			sent[fr.Key] = true
		case serve.FrameDone:
			done = fr
		}
	}
	for _, k := range allKeys {
		if !acked[k] && !sent[k] {
			t.Errorf("partial resume suppressed the un-acked key %s", k)
		}
	}
	if done == nil || done.Skipped != len(allKeys)-len(sent) {
		t.Errorf("partial resume done frame %+v, want %d skipped", done, len(allKeys)-len(sent))
	}
}

func mods2b64(mods []serve.ModuleRequest, name string) string {
	for _, m := range mods {
		if m.Name == name {
			return m.Module
		}
	}
	return ""
}

// One bad module degrades only its own stream entry: the wrong-architecture
// module fails with the unary endpoint's 422 shape while its batch peer
// translates byte-identically.
func TestStreamBatchModuleIsolation(t *testing.T) {
	good := buildObjX(t, "good", concurrentSrcX)
	want, _, _, err := core.Translate(good, core.Default())
	if err != nil {
		t.Fatal(err)
	}
	m, err := minic.Compile("bad", concurrentSrcX)
	if err != nil {
		t.Fatal(err)
	}
	armBin, err := backend.Compile(m, "arm64") // wrong arch for the x86 lifter
	if err != nil {
		t.Fatal(err)
	}

	_, ts := startServerX(t, serve.Options{Workers: 2})
	status, frames := streamFrames(t, ts.URL, serve.StreamRequest{Modules: []serve.ModuleRequest{
		{Name: "good", Module: moduleB64X(good)},
		{Name: "bad", Module: moduleB64X(armBin)},
	}})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	var goodFr, badFr *serve.Frame
	for i := range frames {
		if frames[i].Type == serve.FrameModule {
			switch frames[i].Module {
			case "good":
				goodFr = &frames[i]
			case "bad":
				badFr = &frames[i]
			}
		}
	}
	if goodFr == nil || badFr == nil {
		t.Fatalf("missing module frames (good=%v bad=%v)", goodFr != nil, badFr != nil)
	}
	if goodFr.Status != http.StatusOK {
		t.Fatalf("good module status %d (%s)", goodFr.Status, goodFr.Error)
	}
	got, err := base64.StdEncoding.DecodeString(goodFr.Object)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Marshal()) {
		t.Error("good module's object differs from offline pipeline")
	}
	if badFr.Status != http.StatusUnprocessableEntity || badFr.Error == "" {
		t.Errorf("bad module status %d (%q), want 422 with an error", badFr.Status, badFr.Error)
	}
}

// The drain satellite: SIGTERM (BeginDrain) racing an in-flight stream must
// let the stream finish cleanly — complete frames through the done frame,
// never a dangling half-frame — while new work is refused.
func TestStreamDrainRacesInFlight(t *testing.T) {
	defer inject.Reset()
	old := inject.StallDuration
	inject.StallDuration = 150 * time.Millisecond
	defer func() { inject.StallDuration = old }()
	inject.Arm("fences:worker", inject.Stall)

	bin := buildObjX(t, "t", concurrentSrcX)
	s, ts := startServerX(t, serve.Options{Workers: 1})

	body, _ := json.Marshal(serve.StreamRequest{Modules: []serve.ModuleRequest{
		{Name: "t", Module: moduleB64X(bin)},
	}})
	res, err := http.Post(ts.URL+"/translate/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}

	// Read the first frame, then drain mid-stream.
	br := bufio.NewReaderSize(res.Body, 256<<10)
	first, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("first frame: %v", err)
	}
	var fr serve.Frame
	if err := json.Unmarshal([]byte(first), &fr); err != nil {
		t.Fatalf("malformed first frame: %v", err)
	}
	s.BeginDrain()

	// New work is refused...
	nstatus, _ := streamFrames(t, ts.URL, serve.StreamRequest{Modules: []serve.ModuleRequest{
		{Name: "n", Module: moduleB64X(bin)},
	}})
	if nstatus != http.StatusServiceUnavailable {
		t.Errorf("stream during drain: status %d, want 503", nstatus)
	}

	// ...while the in-flight stream runs to a clean done frame.
	frames := []serve.Frame{fr}
	seq := 1
	for frames[len(frames)-1].Type != serve.FrameDone {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream torn during drain (read %d frames): %v", len(frames), err)
		}
		var f serve.Frame
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("half-frame during drain: %v (%q)", err, line)
		}
		if f.Seq != seq {
			t.Fatalf("sequence gap during drain: got %d, want %d", f.Seq, seq)
		}
		seq++
		frames = append(frames, f)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain did not complete after the stream finished: %v", err)
	}
}

// The -max-body-bytes satellite: oversized bodies get 413 on both
// endpoints before any translation work is admitted.
func TestMaxBodyBytes(t *testing.T) {
	_, ts := startServerX(t, serve.Options{MaxRequestBytes: 512})
	big := strings.Repeat("x", 2048)
	for _, path := range []string{"/translate", "/translate/stream"} {
		res, err := http.Post(ts.URL+path, "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		var resp serve.Response
		if err := json.NewDecoder(res.Body).Decode(&resp); err != nil {
			t.Fatalf("%s: 413 response not JSON: %v", path, err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", path, res.StatusCode)
		}
		if resp.Error == "" {
			t.Errorf("%s: 413 without an error body", path)
		}
	}
}

// Batches above MaxBatchModules are refused whole.
func TestBatchTooLarge(t *testing.T) {
	bin := buildObjX(t, "t", concurrentSrcX)
	_, ts := startServerX(t, serve.Options{MaxBatchModules: 2})
	mods := []serve.ModuleRequest{
		{Name: "a", Module: moduleB64X(bin)},
		{Name: "b", Module: moduleB64X(bin)},
		{Name: "c", Module: moduleB64X(bin)},
	}
	status, _ := streamFrames(t, ts.URL, serve.StreamRequest{Modules: mods})
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: status %d, want 413", status)
	}
}

// The Retry-After jitter satellite: shed responses spread their retry hint
// over [1, 1+jitter] seconds instead of synchronizing every client on "1".
func TestRetryAfterJitter(t *testing.T) {
	// Registered before startServerX so the restore runs after its cleanup
	// has drained the workers that read these globals.
	old := inject.StallDuration
	t.Cleanup(func() { inject.Reset(); inject.StallDuration = old })
	inject.StallDuration = 700 * time.Millisecond
	inject.Arm("refine:main", inject.Stall)

	bin := buildObjX(t, "t", concurrentSrcX)
	s, ts := startServerX(t, serve.Options{Workers: 1, QueueDepth: 1, RetryAfterJitterS: 2})

	reqBody, _ := json.Marshal(serve.Request{Module: moduleB64X(bin)})
	// Saturate: one in flight, one queued.
	for i := 0; i < 2; i++ {
		go func() {
			res, err := http.Post(ts.URL+"/translate", "application/json", bytes.NewReader(reqBody))
			if err == nil {
				io.Copy(io.Discard, res.Body)
				res.Body.Close()
			}
		}()
	}
	waitCondX(t, "saturation", 5*time.Second, func() bool {
		return s.Inflight() == 1 && s.Queued() == 1
	})

	seen := map[int]int{}
	for i := 0; i < 40; i++ {
		res, err := http.Post(ts.URL+"/translate", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("request %d not shed: status %d", i, res.StatusCode)
		}
		ra, err := strconv.Atoi(res.Header.Get("Retry-After"))
		if err != nil {
			t.Fatalf("unparsable Retry-After %q", res.Header.Get("Retry-After"))
		}
		if ra < 1 || ra > 3 {
			t.Fatalf("Retry-After %d outside [1,3]", ra)
		}
		seen[ra]++
	}
	if len(seen) < 2 {
		t.Errorf("40 shed responses produced a single Retry-After value %v — no jitter", seen)
	}
}

// Streaming health surfaces in healthz: the gauge rises while a stream is
// open and falls back when it completes.
func TestStreamHealthGauge(t *testing.T) {
	// Registered before startServerX so the restore runs after the drain.
	old := inject.StallDuration
	t.Cleanup(func() { inject.Reset(); inject.StallDuration = old })
	inject.StallDuration = 500 * time.Millisecond
	// Stall the function processed last, so the stream stays open after
	// its first frame (which is what unblocks http.Post) reaches us.
	inject.Arm("fences:main", inject.Stall)

	bin := buildObjX(t, "t", concurrentSrcX)
	_, ts := startServerX(t, serve.Options{Workers: 2})

	body, _ := json.Marshal(serve.StreamRequest{Modules: []serve.ModuleRequest{
		{Name: "t", Module: moduleB64X(bin)},
	}})
	res, err := http.Post(ts.URL+"/translate/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	waitCondX(t, "active stream gauge", 5*time.Second, func() bool {
		return health(t, ts.URL).ActiveStreams == 1
	})
	if frames, torn := parseFrames(t, res.Body); torn || len(frames) == 0 {
		t.Fatalf("stream did not complete cleanly (%d frames, torn=%v)", len(frames), torn)
	}
	waitCondX(t, "gauge release", 5*time.Second, func() bool {
		return health(t, ts.URL).ActiveStreams == 0
	})
}
