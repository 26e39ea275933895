package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// Span is one timed call into a layer. Parent is the index of the
// enclosing span (-1 for a root); Req groups the spans of one daemon
// request (0 outside serve-mixed).
type Span struct {
	Name       string
	Start, End time.Duration // since the tracer's epoch
	Parent     int
	Req        int64
}

// Tracer keeps spans in memory and writes them out when the run ends. Every
// span is timed around a call into a public function of the layer; nothing
// is patched into the program.
//
// Serial code nests spans with Begin/End, which track the current parent.
// Concurrent code (the daemon's handlers) uses Open/Close with an explicit
// parent. A nil *Tracer records nothing, so the untraced paths pay one nil
// check per span.
type Tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []Span
	cur   int // innermost open span of the serial Begin/End stack, or -1
}

// NewTracer starts an empty trace.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now(), cur: -1} }

// Begin opens a span nested in the current serial span and makes it current.
func (t *Tracer) Begin(name string) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: now, Parent: t.cur})
	t.cur = len(t.spans) - 1
	t.mu.Unlock()
}

// End closes the current serial span.
func (t *Tracer) End() {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	s := &t.spans[t.cur]
	s.End = now
	t.cur = s.Parent
	t.mu.Unlock()
}

// Do runs fn inside a serial span.
func (t *Tracer) Do(name string, fn func()) {
	t.Begin(name)
	fn()
	t.End()
}

// Open starts a span with an explicit parent and request id, for code that
// runs on several goroutines at once; it returns the span's id for Close.
func (t *Tracer) Open(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Start: now, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// Close ends a span started with Open.
func (t *Tracer) Close(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// Layer is the aggregate of every span with one name.
type Layer struct {
	Count int
	Total time.Duration // summed span durations
	Self  time.Duration // Total minus the time covered by child spans
}

// Layers aggregates self time per span name. A span's self time is its
// duration minus the durations of its direct children.
func (t *Tracer) Layers() map[string]*Layer {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]*Layer{}
	for i, s := range t.spans {
		l := out[s.Name]
		if l == nil {
			l = &Layer{}
			out[s.Name] = l
		}
		l.Count++
		l.Total += s.End - s.Start
		l.Self += self[i]
	}
	return out
}

// Len is the number of recorded spans.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// WriteChrome writes at most max spans as Chrome trace-event JSON (opens in
// Perfetto or about:tracing); the span id, parent and request id ride in
// each event's args.
func (t *Tracer) WriteChrome(path string, max int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"spans\":%d,\"written\":%d},\"traceEvents\":[\n",
		len(t.spans), min(len(t.spans), max))
	for i, s := range t.spans {
		if i >= max {
			break
		}
		name, _ := json.Marshal(s.Name)
		if i > 0 {
			w.WriteString(",\n")
		}
		fmt.Fprintf(w, `{"name":%s,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"req":%d}}`,
			name, s.Req, float64(s.Start)/1e3, float64(s.End-s.Start)/1e3, i, s.Parent, s.Req)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
