// Package serve is the translation-as-a-service layer: a long-lived HTTP
// server wrapping the core pipeline, built so that robustness — not raw
// endpoint count — is the feature.
//
//   - One request path: /translate is a batch of one. Both endpoints differ
//     only in how they decode a body into modules and how they write the
//     finished results; admit does everything between — config, budget
//     headers, request context, one job per module, admission.
//   - Admission control: jobs enter a bounded queue drained by a fixed
//     worker pool. When the queue is full the server sheds load explicitly
//     (429 + Retry-After) instead of letting latency collapse.
//   - Deadline and budget propagation: the X-Lasagne-Deadline-Ms and
//     X-Lasagne-Func-Budget-Ms request headers become the request context
//     deadline and core.Config.FuncBudget, so a slow translation degrades
//     per the pipeline's own budget machinery instead of wedging a worker.
//   - Panic isolation: every request runs inside diag.Guard(StageServe); a
//     panic anywhere in the pipeline becomes a typed diag.Report response
//     and the worker lives on.
//   - Graceful drain: BeginDrain stops admission (readyz flips to 503, new
//     jobs are refused), Drain waits for in-flight work under the caller's
//     deadline, then the worker pool shuts down.
//   - One shared content-addressed cache across all requests: concurrent
//     identical misses dedup through the cache's single-flight layer, and
//     the crash-safe disk level persists across restarts.
package serve

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lasagne/internal/core"
	"lasagne/internal/core/cache"
	"lasagne/internal/diag"
	"lasagne/internal/diag/inject"
	"lasagne/internal/obj"
)

// Options configures a Server. The zero value is usable: one worker per
// CPU, a 64-deep queue, the full default pipeline config, no cache.
type Options struct {
	// Workers is the translation worker pool size (<= 0: one per CPU).
	Workers int
	// QueueDepth bounds the admission queue (<= 0: 64). A full queue sheds
	// load with 429 + Retry-After.
	QueueDepth int
	// MaxRequestBytes caps the request body (<= 0: 64 MiB).
	MaxRequestBytes int64
	// MaxDeadline caps the per-request deadline a client may ask for
	// (<= 0: 2 minutes). Requests that set no deadline get the cap.
	MaxDeadline time.Duration
	// Config is the baseline pipeline configuration; per-request JSON
	// fields override individual stages. Config.Cache is ignored — set
	// Options.Cache instead.
	Config core.Config
	// Jobs is the per-request worker count for the function-parallel
	// pipeline stages (<= 0: 1 — with a pool of request workers, one
	// pipeline goroutine per request keeps the box loaded without
	// oversubscribing; output is byte-identical at any value).
	Jobs int
	// Cache, when non-nil, is shared by every request.
	Cache *cache.Cache
	// StreamBuffer bounds the per-connection response frame buffer of
	// /translate/stream (<= 0: 32 frames). A full buffer blocks the
	// producing pipeline worker — that pause is the connection-level
	// backpressure — until StreamWriteTimeout evicts the reader.
	StreamBuffer int
	// StreamWriteTimeout bounds both one response write and one
	// full-buffer stall before a slow reader is evicted (<= 0: 10s).
	StreamWriteTimeout time.Duration
	// MaxBatchModules caps the module count of one streaming batch
	// (<= 0: 64; overflow is 413).
	MaxBatchModules int
	// RetryAfterJitterS is the maximum whole seconds of jitter added to
	// the 1s base Retry-After on 429 shed responses, so synchronized
	// clients spread out instead of retrying in lockstep (<= 0: 2).
	RetryAfterJitterS int
}

// Server is the daemon: an http.Handler plus the worker pool behind it.
type Server struct {
	opts  Options
	queue chan *job

	// admitMu makes drain airtight: handlers hold it shared around the
	// draining check + enqueue, BeginDrain takes it exclusively to flip the
	// flag. After BeginDrain returns, no new job can enter the queue.
	admitMu  sync.RWMutex
	draining bool

	jobs    sync.WaitGroup // admitted, not yet completed jobs
	workers sync.WaitGroup
	stop    chan struct{} // closed to park the worker pool
	stopped sync.Once

	queued   atomic.Int64
	inflight atomic.Int64
	served   atomic.Int64 // completed requests (any outcome)
	shed     atomic.Int64 // 429s
	panics   atomic.Int64 // requests that panicked and were isolated

	activeStreams atomic.Int64 // open /translate/stream connections (gauge)
	evictedSlow   atomic.Int64 // stream readers evicted for not keeping up
	resumed       atomic.Int64 // stream requests that carried acked keys
}

// job is one module of a request: /translate carries one, a streaming
// batch one per module.
type job struct {
	name string // the module's frame label; "" on /translate
	ctx  context.Context
	bin  *obj.File
	cfg  core.Config
	rev  bool
	done chan *result
}

type result struct {
	status int
	resp   *Response
}

// New builds a Server and starts its worker pool.
func New(opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.MaxRequestBytes <= 0 {
		opts.MaxRequestBytes = 64 << 20
	}
	if opts.MaxDeadline <= 0 {
		opts.MaxDeadline = 2 * time.Minute
	}
	if opts.Jobs <= 0 {
		opts.Jobs = 1
	}
	if opts.StreamBuffer <= 0 {
		opts.StreamBuffer = 32
	}
	if opts.StreamWriteTimeout <= 0 {
		opts.StreamWriteTimeout = 10 * time.Second
	}
	if opts.MaxBatchModules <= 0 {
		opts.MaxBatchModules = 64
	}
	if opts.RetryAfterJitterS <= 0 {
		opts.RetryAfterJitterS = 2
	}
	if !opts.Config.Refine && !opts.Config.Optimize &&
		!opts.Config.MergeFences && !opts.Config.WeakFences {
		// A Config with every stage off means "unset", not "skip the whole
		// pipeline": enable the full pipeline, as cmd/lasagne does, keeping
		// the caller's budget/validation knobs. Embedders that want a
		// reduced pipeline must enable at least one stage explicitly.
		opts.Config.Refine = true
		opts.Config.MergeFences = true
		opts.Config.Optimize = true
		opts.Config.WeakFences = true
	}
	s := &Server{
		opts:  opts,
		queue: make(chan *job, opts.QueueDepth),
		stop:  make(chan struct{}),
	}
	s.workers.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	return s
}

// Handler returns the HTTP mux: POST /translate, POST /translate/stream,
// GET /healthz, GET /readyz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/translate", s.handleTranslate)
	mux.HandleFunc("/translate/stream", s.handleTranslateStream)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	return mux
}

// BeginDrain stops admission: in-flight and queued jobs keep running, new
// requests are refused with 503 and readyz reports not-ready. Idempotent.
func (s *Server) BeginDrain() {
	s.admitMu.Lock()
	s.draining = true
	s.admitMu.Unlock()
}

// Drain performs the graceful shutdown: stop admitting, wait for every
// admitted job to finish (bounded by ctx), then stop the worker pool. It
// returns an error when ctx expires with work still in flight — the worker
// pool is stopped regardless, abandoning the stragglers to their request
// contexts.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	idle := make(chan struct{})
	go func() {
		s.jobs.Wait()
		close(idle)
	}()
	var derr error
	select {
	case <-idle:
	case <-ctx.Done():
		derr = fmt.Errorf("serve: drain deadline exceeded with %d queued and %d in flight",
			s.queued.Load(), s.inflight.Load())
	}
	s.stopped.Do(func() { close(s.stop) })
	if derr == nil {
		s.workers.Wait()
	}
	return derr
}

// Draining reports whether admission is closed.
func (s *Server) Draining() bool {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	return s.draining
}

func (s *Server) worker() {
	defer s.workers.Done()
	for {
		select {
		case <-s.stop:
			return
		case j := <-s.queue:
			s.queued.Add(-1)
			s.inflight.Add(1)
			res := s.process(j)
			s.inflight.Add(-1)
			// Counted before the reply is delivered (done is buffered, so
			// the send never blocks): a client holding its response sees
			// it in /healthz.
			s.served.Add(1)
			j.done <- res
			s.jobs.Done()
		}
	}
}

// process runs one job with panic isolation: whatever the pipeline does,
// the worker survives and the client gets a well-formed typed response.
func (s *Server) process(j *job) *result {
	var (
		out  *obj.File
		st   *core.Stats
		rep  *diag.Report
		terr error
	)
	gerr := diag.Guard(diag.StageServe, "", func() error {
		if err := inject.Hit("serve:request"); err != nil {
			return err
		}
		if j.rev {
			out, st, rep, terr = core.TranslateArmToX86Context(j.ctx, j.bin, j.cfg)
		} else {
			out, st, rep, terr = core.TranslateContext(j.ctx, j.bin, j.cfg)
		}
		return nil
	})
	if gerr != nil {
		// A panic (or an injected serve fault) crossed the request boundary:
		// isolate it, report it, keep the worker.
		var pe *diag.PanicError
		if errors.As(gerr, &pe) {
			s.panics.Add(1)
		}
		if rep == nil {
			rep = diag.NewReport()
		}
		rep.Add(diag.Diagnostic{Stage: diag.StageServe, Severity: diag.Error,
			Msg: "request failed inside the serve boundary", Cause: gerr})
		return &result{status: http.StatusInternalServerError,
			resp: errResponse(gerr.Error(), rep)}
	}
	if terr != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(terr, diag.ErrBudgetExceeded) || j.ctx.Err() != nil {
			status = http.StatusGatewayTimeout
		}
		return &result{status: status, resp: errResponse(terr.Error(), rep)}
	}
	resp := &Response{
		Object:      base64.StdEncoding.EncodeToString(out.Marshal()),
		Stats:       statsJSON(st),
		Diagnostics: diagsJSON(rep),
		Degraded:    rep.Degraded(),
	}
	return &result{status: http.StatusOK, resp: resp}
}

func (s *Server) handleTranslate(w http.ResponseWriter, r *http.Request) {
	jobs, cancel := s.admit(w, r, decodeUnary, nil)
	if jobs == nil {
		return
	}
	defer cancel()
	select {
	case res := <-jobs[0].done:
		writeJSON(w, res.status, res.resp)
	case <-r.Context().Done():
		// Client gone: the job still drains through the worker (its context
		// is cancelled, so it finishes fast); nothing useful to write.
	}
}

// request is a decoded body: one job per module, still without context
// and config, plus the per-request overrides and, on streams, the keys the
// client already holds.
type request struct {
	jobs   []*job
	config *ConfigJSON
	acked  map[string]bool
}

// decodeUnary decodes a /translate body: a batch of one unnamed module.
func decodeUnary(body []byte) (*request, int, error) {
	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("bad request JSON: %v", err)
	}
	j, err := decodeModule("", req.Module, req.Reverse)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	return &request{jobs: []*job{j}, config: req.Config}, 0, nil
}

// decodeModule decodes and checks one module: base64, then the object
// format. name labels the errors; "" is /translate's unnamed module.
func decodeModule(name, b64 string, rev bool) (*job, error) {
	what, object := "module", "object"
	if name != "" {
		what = fmt.Sprintf("module %q", name)
		object = what
	}
	raw, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return nil, fmt.Errorf("%s is not valid base64: %v", what, err)
	}
	bin, err := obj.Unmarshal(raw)
	if err != nil {
		return nil, fmt.Errorf("cannot parse %s: %v", object, err)
	}
	return &job{name: name, bin: bin, rev: rev}, nil
}

// admit is the request path both endpoints share, up to the first job's
// admission: the method check, the capped body, the endpoint's decode, the
// config, the deadline and budget headers, and a non-blocking admission of
// the first job. It writes every refusal itself and then returns nil jobs;
// otherwise the caller owns cancel and the jobs after the first. st is
// nil on /translate, so unary jobs keep FuncDone nil and can lead a
// module-tier flight; on /translate/stream it takes the request's cancel
// and hooks every job's FuncDone.
func (s *Server) admit(w http.ResponseWriter, r *http.Request,
	decode func([]byte) (*request, int, error), st *stream) ([]*job, context.CancelFunc) {
	refuse := func(status int, msg string) ([]*job, context.CancelFunc) {
		writeJSON(w, status, errResponse(msg, nil))
		return nil, nil
	}
	if r.Method != http.MethodPost {
		return refuse(http.StatusMethodNotAllowed, "POST required")
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.opts.MaxRequestBytes+1))
	if err != nil {
		return refuse(http.StatusBadRequest, "cannot read request body: "+err.Error())
	}
	if int64(len(body)) > s.opts.MaxRequestBytes {
		return refuse(http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", s.opts.MaxRequestBytes))
	}
	req, status, err := decode(body)
	if err != nil {
		return refuse(status, err.Error())
	}

	cfg := s.opts.Config
	cfg.Cache = s.opts.Cache
	cfg.Jobs = s.opts.Jobs
	if req.config != nil {
		req.config.apply(&cfg)
	}
	deadline, err := s.deadlineAndBudget(r, &cfg)
	if err != nil {
		return refuse(http.StatusBadRequest, err.Error())
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	if st != nil {
		st.cancel, st.acked = cancel, req.acked
	}
	// All jobs share the request context: a module's panic or budget
	// exhaustion fails only its own result (process() isolates it), while
	// losing a stream's reader cancels the whole batch.
	for _, j := range req.jobs {
		j.ctx, j.cfg, j.done = ctx, cfg, make(chan *result, 1)
		if st != nil {
			j.cfg.FuncDone = st.funcDone(j.name)
		}
	}

	admitted, draining := s.tryAdmit(req.jobs[0])
	if !admitted {
		cancel()
		if draining {
			return refuse(http.StatusServiceUnavailable, "server is draining")
		}
		s.shed.Add(1)
		w.Header().Set("Retry-After", s.retryAfter())
		return refuse(http.StatusTooManyRequests, "admission queue full")
	}
	return req.jobs, cancel
}

// deadlineAndBudget applies the per-request budget headers: the deadline
// header bounds the request context (capped by MaxDeadline), the budget
// header lands in the pipeline's own FuncBudget machinery.
func (s *Server) deadlineAndBudget(r *http.Request, cfg *core.Config) (time.Duration, error) {
	deadline := s.opts.MaxDeadline
	if d, ok, err := durationHeader(r, "X-Lasagne-Deadline-Ms"); err != nil {
		return 0, err
	} else if ok && d < deadline {
		deadline = d
	}
	if b, ok, err := durationHeader(r, "X-Lasagne-Func-Budget-Ms"); err != nil {
		return 0, err
	} else if ok {
		cfg.FuncBudget = b
	}
	return deadline, nil
}

// tryAdmit attempts non-blocking admission: shared-lock the drain flag,
// then a non-blocking send into the bounded queue. A full queue is explicit
// load shedding, never a hidden wait.
func (s *Server) tryAdmit(j *job) (admitted, draining bool) {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining {
		return false, true
	}
	// Count the job before a worker can see it, so the worker's Done and
	// queued decrement never run first (a fast job can finish before this
	// goroutine resumes after the send).
	s.jobs.Add(1)
	s.queued.Add(1)
	select {
	case s.queue <- j:
		return true, false
	default:
		s.queued.Add(-1)
		s.jobs.Done()
		return false, false
	}
}

// admitPoll is the retry interval of admitWait. Polling (rather than a
// blocking channel send) keeps the drain invariant airtight: no goroutine
// ever sits inside a send to the queue while BeginDrain flips the flag.
const admitPoll = 2 * time.Millisecond

// admitWait admits j, waiting for queue space under ctx. Streaming batches
// use it for modules after the first: the batch is already admitted as a
// request, so a full queue backpressures instead of shedding, while drain
// still refuses new work.
func (s *Server) admitWait(ctx context.Context, j *job) error {
	for {
		admitted, draining := s.tryAdmit(j)
		if admitted {
			return nil
		}
		if draining {
			return errors.New("server is draining")
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(admitPoll):
		}
	}
}

// retryAfter is the jittered Retry-After of a shed response: 1s base plus
// up to RetryAfterJitterS whole seconds.
func (s *Server) retryAfter() string {
	return strconv.Itoa(1 + rand.Intn(s.opts.RetryAfterJitterS+1))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.healthBody())
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	code := http.StatusOK
	if s.Draining() || int(s.queued.Load()) >= s.opts.QueueDepth {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, s.healthBody())
}

// HealthBody is the healthz/readyz payload: queue and cache state at a
// glance, so orchestrators and tests can see why readiness flipped.
type HealthBody struct {
	Draining      bool  `json:"draining"`
	Queued        int64 `json:"queued"`
	QueueCapacity int   `json:"queue_capacity"`
	Inflight      int64 `json:"inflight"`
	Workers       int   `json:"workers"`
	Served        int64 `json:"served"`
	Shed          int64 `json:"shed"`
	Panics        int64 `json:"panics"`
	// Streaming/backpressure state: open streams right now, readers
	// evicted for falling behind, and requests that resumed with acked
	// keys.
	ActiveStreams      int64         `json:"active_streams"`
	EvictedSlowReaders int64         `json:"evicted_slow_readers"`
	ResumedJobs        int64         `json:"resumed_jobs"`
	Cache              *cache.Health `json:"cache,omitempty"`
}

func (s *Server) healthBody() *HealthBody {
	h := &HealthBody{
		Draining:      s.Draining(),
		Queued:        s.queued.Load(),
		QueueCapacity: s.opts.QueueDepth,
		Inflight:      s.inflight.Load(),
		Workers:       s.opts.Workers,
		Served:        s.served.Load(),
		Shed:          s.shed.Load(),
		Panics:        s.panics.Load(),

		ActiveStreams:      s.activeStreams.Load(),
		EvictedSlowReaders: s.evictedSlow.Load(),
		ResumedJobs:        s.resumed.Load(),
	}
	if s.opts.Cache != nil {
		ch := s.opts.Cache.Health()
		h.Cache = &ch
	}
	return h
}

// durationHeader parses an integer-millisecond header. ok reports whether
// the header was present. Counts beyond the time.Duration range saturate
// at its maximum instead of wrapping negative.
func durationHeader(r *http.Request, name string) (time.Duration, bool, error) {
	v := r.Header.Get(name)
	if v == "" {
		return 0, false, nil
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if errors.Is(err, strconv.ErrRange) && ms > 0 {
		err = nil // ParseInt saturated at MaxInt64
	}
	if err != nil || ms <= 0 {
		return 0, false, fmt.Errorf("bad %s header %q: want a positive integer millisecond count", name, v)
	}
	if ms > int64(math.MaxInt64/time.Millisecond) {
		return math.MaxInt64, true, nil
	}
	return time.Duration(ms) * time.Millisecond, true, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
