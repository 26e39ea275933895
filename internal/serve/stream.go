// Streaming responses: POST /translate/stream accepts a batch of modules
// and answers with NDJSON frames — one per finished function, one per
// finished module, one terminal done frame — while the pipeline runs.
//
// The robustness chain, end to end:
//
//	pipeline worker → core.Config.FuncDone → stream.emit → bounded frame
//	buffer → writer goroutine → http connection (write deadline)
//
// A slow reader stops draining the connection; the writer blocks until its
// write deadline; the frame buffer fills; emit blocks the pipeline worker
// (that pause is the backpressure) for at most the same timeout, then
// evicts the connection. Eviction cancels the request context, the FuncDone
// hook returns an error, and the pipeline aborts — a stalled reader can
// delay a worker by one timeout, never pin it.
package serve

import (
	"context"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"lasagne/internal/core"
	"lasagne/internal/diag/inject"
)

// InjectFrame is the chaos failpoint inside the frame writer: an armed
// failure tears the current frame mid-line (a deliberate partial write) and
// drops the connection, exercising the client's torn-tail discard path.
const InjectFrame = "serve:frame"

var errStreamDead = errors.New("serve: stream reader gone or evicted")

// stream is one /translate/stream connection: a bounded frame buffer, the
// writer goroutine draining it, and the eviction latch shared by both.
type stream struct {
	s      *Server
	frames chan []byte
	stall  time.Duration

	// dead is closed exactly once when the connection is lost or evicted;
	// cancel tears down every job of the request at the same moment.
	dead     chan struct{}
	deadOnce sync.Once
	cancel   context.CancelFunc
	acked    map[string]bool // func keys the client already holds

	// mu serializes emit so Seq order and channel order agree.
	mu  sync.Mutex
	seq int

	funcs   atomic.Int64 // func frames emitted
	skipped atomic.Int64 // func frames suppressed because the client acked them
	wg      sync.WaitGroup
}

// newStream builds the stream; admit sets its cancel and acked keys before
// any job can emit.
func newStream(s *Server) *stream {
	return &stream{
		s:      s,
		frames: make(chan []byte, s.opts.StreamBuffer),
		stall:  s.opts.StreamWriteTimeout,
		dead:   make(chan struct{}),
	}
}

// alive reports the eviction latch as an error.
func (st *stream) alive() error {
	select {
	case <-st.dead:
		return errStreamDead
	default:
		return nil
	}
}

// evictSlow latches the stream dead because the reader could not keep up;
// dropConn latches it dead for any other connection loss. Both cancel the
// request context so in-flight pipeline work aborts promptly.
func (st *stream) evictSlow() {
	st.deadOnce.Do(func() {
		st.s.evictedSlow.Add(1)
		st.cancel()
		close(st.dead)
	})
}

func (st *stream) dropConn() {
	st.deadOnce.Do(func() {
		st.cancel()
		close(st.dead)
	})
}

// emit serializes one frame and hands it to the writer. When the buffer is
// full the calling goroutine — for func frames, the pipeline worker that
// produced the result — blocks: that pause is the connection-level
// backpressure. The block is bounded by the write timeout; on expiry the
// reader is evicted and the error propagates back through FuncDone into the
// pipeline, aborting the translation.
func (st *stream) emit(f *Frame) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.alive(); err != nil {
		return err
	}
	f.Seq = st.seq
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	t := time.NewTimer(st.stall)
	defer t.Stop()
	select {
	case st.frames <- b:
		st.seq++
		if f.Type == FrameFunc {
			st.funcs.Add(1)
		}
		return nil
	case <-st.dead:
		return errStreamDead
	case <-t.C:
		st.evictSlow()
		return errStreamDead
	}
}

// start launches the writer goroutine: it drains the frame buffer onto the
// connection under a per-write deadline and flushes after every frame, so
// each complete line reaches a live reader promptly and a dead one is
// detected within one timeout.
func (st *stream) start(w http.ResponseWriter) {
	rc := http.NewResponseController(w)
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		for b := range st.frames {
			if err := inject.Hit(InjectFrame); err != nil {
				// Chaos: tear the frame mid-line, then drop the connection.
				// Readers must treat the unterminated tail as garbage.
				_, _ = w.Write(b[:len(b)/2])
				_ = rc.Flush()
				st.dropConn()
				return
			}
			_ = rc.SetWriteDeadline(time.Now().Add(st.stall))
			_, err := w.Write(b)
			if err == nil {
				// The deadline error can surface in the flush rather than the
				// write when the frame fit the connection's internal buffer —
				// classify both the same way.
				err = rc.Flush()
			}
			if err != nil {
				if errors.Is(err, os.ErrDeadlineExceeded) {
					st.evictSlow()
				} else {
					st.dropConn()
				}
				return
			}
		}
	}()
}

// finish closes the frame buffer and waits for the writer. Callers must
// guarantee no emit can still be in flight — either every producer has
// completed, or the dead latch is closed (which unblocks any emit).
func (st *stream) finish() {
	st.mu.Lock()
	close(st.frames)
	st.mu.Unlock()
	st.wg.Wait()
}

// funcDone is the FuncDone hook of the batch's module name: it streams one
// func frame per finished function.
func (st *stream) funcDone(name string) func(core.FuncEvent) error {
	return func(ev core.FuncEvent) error {
		if ev.Keyed && st.acked[hex.EncodeToString(ev.Key[:])] {
			// The client already holds this result from the interrupted
			// stream; with the shared cache the work behind it was a hit,
			// so nothing is recomputed and nothing is re-sent.
			st.skipped.Add(1)
			return st.alive()
		}
		return st.emit(funcFrame(name, ev))
	}
}

func funcFrame(module string, ev core.FuncEvent) *Frame {
	f := &Frame{
		Type:         FrameFunc,
		Module:       module,
		Func:         ev.Func,
		Body:         base64.StdEncoding.EncodeToString(ev.Body),
		Placed:       ev.Placed,
		Merged:       ev.Merged,
		FuncDegraded: ev.Degraded,
		CacheHit:     ev.CacheHit,
	}
	if ev.Keyed {
		f.Key = hex.EncodeToString(ev.Key[:])
	}
	return f
}

// decodeStream decodes a /translate/stream body: a batch of uniquely named
// modules, at most MaxBatchModules of them.
func (s *Server) decodeStream(body []byte) (*request, int, error) {
	var req StreamRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("bad request JSON: %v", err)
	}
	n := len(req.Modules)
	if n == 0 {
		return nil, http.StatusBadRequest, errors.New("empty batch")
	}
	if n > s.opts.MaxBatchModules {
		return nil, http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch of %d exceeds %d modules", n, s.opts.MaxBatchModules)
	}
	out := &request{jobs: make([]*job, n), config: req.Config,
		acked: make(map[string]bool, len(req.Acked))}
	names := make(map[string]bool, n)
	for i, m := range req.Modules {
		name := m.Name
		if name == "" {
			name = fmt.Sprintf("m%d", i)
		}
		if names[name] {
			return nil, http.StatusBadRequest, fmt.Errorf("duplicate module name %q", name)
		}
		names[name] = true
		j, err := decodeModule(name, m.Module, m.Reverse)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		out.jobs[i] = j
	}
	for _, k := range req.Acked {
		out.acked[k] = true
	}
	return out, 0, nil
}

func (s *Server) handleTranslateStream(w http.ResponseWriter, r *http.Request) {
	st := newStream(s)
	jobs, cancel := s.admit(w, r, s.decodeStream, st)
	if jobs == nil {
		return
	}
	defer cancel()

	// Committed: from here every outcome is frames on a 200 stream.
	s.activeStreams.Add(1)
	defer s.activeStreams.Add(-1)
	if len(st.acked) > 0 {
		s.resumed.Add(1)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	st.start(w)

	// The rest of the batch rides the same bounded queue. The batch is
	// already admitted as a request, so a full queue backpressures (a
	// bounded wait under the request deadline) instead of shedding; drain
	// still refuses, failing only the not-yet-admitted modules.
	ctx := jobs[0].ctx
	for _, j := range jobs[1:] {
		if aerr := s.admitWait(ctx, j); aerr != nil {
			code := http.StatusServiceUnavailable
			if ctx.Err() != nil {
				code = http.StatusGatewayTimeout
			}
			j.done <- &result{status: code,
				resp: errResponse("module not admitted: "+aerr.Error(), nil)}
		}
	}

	// Emit module frames in batch order as results land. On eviction the
	// jobs abort through the cancelled context and drain via the worker
	// pool; nothing waits on the dead connection.
	completed := 0
	for _, j := range jobs {
		var res *result
		select {
		case res = <-j.done:
		case <-st.dead:
		}
		if res == nil {
			break
		}
		fr := &Frame{
			Type:        FrameModule,
			Module:      j.name,
			Status:      res.status,
			Object:      res.resp.Object,
			Error:       res.resp.Error,
			Stats:       res.resp.Stats,
			Diagnostics: res.resp.Diagnostics,
			Degraded:    res.resp.Degraded,
		}
		if st.emit(fr) != nil {
			break
		}
		completed++
	}
	if completed == len(jobs) {
		_ = st.emit(&Frame{Type: FrameDone, Modules: len(jobs),
			Funcs: int(st.funcs.Load()), Skipped: int(st.skipped.Load())})
	}
	st.finish()
}
