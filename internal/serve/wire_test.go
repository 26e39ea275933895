package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lasagne/internal/backend"
	"lasagne/internal/diag/inject"
	"lasagne/internal/minic"
)

var updateWire = flag.Bool("update-wire", false, "rewrite testdata/wire.golden from the current server")

// wireCase is one request whose status, Content-Type and body bytes the
// wire golden pins.
type wireCase struct {
	name   string
	method string
	path   string
	body   string
	hdrs   []string // name/value pairs
}

// TestWireGolden pins the daemon's wire format on both endpoints: every
// refusal (405, the 400s, the 413s, 422, 429, 503), one clean unary 200
// and one clean two-module stream. For each request it records the status,
// the Content-Type header and the body bytes; for a 429 only that
// Retry-After is present and lies in 1..1+RetryAfterJitterS, because its
// value is random. Regenerate with -update-wire only for a deliberate
// change of the wire format.
func TestWireGolden(t *testing.T) {
	const jitter = 2
	s, ts := startServer(t, Options{Workers: 1, QueueDepth: 1, Jobs: 1,
		MaxRequestBytes: 1 << 16, MaxBatchModules: 2, RetryAfterJitterS: jitter})

	small := func(name, src string) string {
		return moduleB64(buildObj(t, name, src))
	}
	modA := small("a", "int g; int main() { g = 1; print_int(g); return 0; }")
	modB := small("b", `int h;
void put(int v) { h = v; }
int main() { spawn(put, 2); join(); print_int(h); return 0; }`)
	m, err := minic.Compile("arm", "int main() { return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	armObj, err := backend.Compile(m, "arm64")
	if err != nil {
		t.Fatal(err)
	}
	armB64 := moduleB64(armObj)
	junk := base64.StdEncoding.EncodeToString([]byte("junk"))

	unary := func(mod string) string {
		b, _ := json.Marshal(Request{Module: mod})
		return string(b)
	}
	batch := func(mods ...string) string {
		req := StreamRequest{Modules: []ModuleRequest{}}
		for i := 0; i+1 < len(mods); i += 2 {
			req.Modules = append(req.Modules, ModuleRequest{Name: mods[i], Module: mods[i+1]})
		}
		b, _ := json.Marshal(req)
		return string(b)
	}
	tooBig := strings.Repeat("x", 1<<16+1)

	var out bytes.Buffer
	record := func(c wireCase) {
		t.Helper()
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < len(c.hdrs); i += 2 {
			req.Header.Set(c.hdrs[i], c.hdrs[i+1])
		}
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		body, err := io.ReadAll(res.Body)
		res.Body.Close()
		if err != nil {
			t.Fatalf("%s: reading body: %v", c.name, err)
		}
		fmt.Fprintf(&out, "== %s\n%s %s\nstatus: %d\ncontent-type: %s\n",
			c.name, c.method, c.path, res.StatusCode, res.Header.Get("Content-Type"))
		if res.StatusCode == http.StatusTooManyRequests {
			ra := res.Header.Get("Retry-After")
			if n, err := strconv.Atoi(ra); err == nil && n >= 1 && n <= 1+jitter {
				ra = fmt.Sprintf("1..%d", 1+jitter)
			}
			fmt.Fprintf(&out, "retry-after: %s\n", ra)
		}
		fmt.Fprintf(&out, "body:\n%s", body)
	}

	for _, ep := range []struct {
		path string
		mod  func(name, b64 string) string
	}{
		{"/translate", func(_, b64 string) string { return unary(b64) }},
		{"/translate/stream", func(name, b64 string) string { return batch(name, b64) }},
	} {
		p := ep.path
		for _, c := range []wireCase{
			{"method not allowed", http.MethodGet, p, "", nil},
			{"bad json", http.MethodPost, p, "{", nil},
			{"bad base64", http.MethodPost, p, ep.mod("a", "!!!not-base64!!!"), nil},
			{"bad object", http.MethodPost, p, ep.mod("a", junk), nil},
			{"bad deadline header", http.MethodPost, p, ep.mod("a", modA),
				[]string{"X-Lasagne-Deadline-Ms", "soon"}},
			{"zero deadline header", http.MethodPost, p, ep.mod("a", modA),
				[]string{"X-Lasagne-Deadline-Ms", "0"}},
			{"bad budget header", http.MethodPost, p, ep.mod("a", modA),
				[]string{"X-Lasagne-Func-Budget-Ms", "-5"}},
			{"body too large", http.MethodPost, p, tooBig, nil},
			{"wrong architecture", http.MethodPost, p, ep.mod("a", armB64), nil},
		} {
			c.name = p + " " + c.name
			record(c)
		}
	}
	sp := "/translate/stream"
	record(wireCase{sp + " empty batch", http.MethodPost, sp, batch(), nil})
	record(wireCase{sp + " batch too large", http.MethodPost, sp, batch("a", modA, "b", modA, "c", modA), nil})
	record(wireCase{sp + " duplicate names", http.MethodPost, sp, batch("a", modA, "a", modB), nil})
	record(wireCase{sp + " unnamed bad module", http.MethodPost, sp,
		`{"modules":[{"module":"` + modA + `"},{"module":"!"}]}`, nil})

	// Clean translations, no cache, one pipeline job per request.
	record(wireCase{"/translate clean", http.MethodPost, "/translate", unary(modA), nil})
	// One worker runs the batch's modules in order. The stall at the serve
	// boundary holds module b's first function frame until the handler has
	// written module a's frame, so the frame order is fixed.
	oldStall := inject.StallDuration
	defer func() { inject.Reset(); inject.StallDuration = oldStall }()
	inject.StallDuration = 150 * time.Millisecond
	inject.ArmN("serve:request", inject.Stall, 2)
	record(wireCase{sp + " clean", http.MethodPost, sp, batch("a", modA, "b", modB), nil})
	inject.Reset()

	// 429: one request stalled in the worker and one queued fill the server.
	inject.StallDuration = 500 * time.Millisecond
	inject.Arm("refine:main", inject.Stall)
	var bg sync.WaitGroup
	for i := 0; i < 2; i++ {
		bg.Add(1)
		go func() {
			defer bg.Done()
			res, err := http.Post(ts.URL+"/translate", "application/json", strings.NewReader(unary(modA)))
			if err == nil {
				io.Copy(io.Discard, res.Body)
				res.Body.Close()
			}
		}()
		waitCond(t, "saturation", func() bool { return s.Inflight()+s.Queued() == int64(i+1) })
	}
	record(wireCase{"/translate shed", http.MethodPost, "/translate", unary(modA), nil})
	record(wireCase{sp + " shed", http.MethodPost, sp, batch("a", modA), nil})
	bg.Wait()
	inject.Reset()

	// 503 while draining.
	s.BeginDrain()
	record(wireCase{"/translate draining", http.MethodPost, "/translate", unary(modA), nil})
	record(wireCase{sp + " draining", http.MethodPost, sp, batch("a", modA), nil})

	golden := filepath.Join("testdata", "wire.golden")
	if *updateWire {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-wire to record it)", err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	got, exp := strings.Split(out.String(), "\n== "), strings.Split(string(want), "\n== ")
	for i := 0; i < len(got) || i < len(exp); i++ {
		var g, e string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			e = exp[i]
		}
		if g != e {
			t.Errorf("wire format changed:\n--- got\n%s\n--- want\n%s", g, e)
		}
	}
}
