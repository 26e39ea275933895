// Package client is the self-healing consumer of the lasagned wire
// protocol. It owns the failure modes the server deliberately surfaces —
// 429 shed, 5xx, dropped connections, torn stream tails — and turns them
// into three mechanisms, with one attempt loop (call) behind both
// Translate and TranslateStream:
//
//   - retry with exponential backoff + full jitter, bounded by a per-call
//     attempt budget and the caller's context deadline (which also rides to
//     the server as X-Lasagne-Deadline-Ms, rounded up to whole
//     milliseconds);
//   - a circuit breaker that trips on consecutive shed/5xx/transport
//     failures, fails fast while open, and recovers through a single
//     half-open probe;
//   - transparent stream resume: every acked function key is replayed to
//     the server on reconnect, so an interrupted batch recomputes nothing
//     already delivered (the server's shared cache turns acked work into
//     hits) and already-completed modules are dropped from the retry.
package client

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lasagne/internal/serve"
)

// Options configures a Client. The zero value (plus BaseURL) is usable.
type Options struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8631".
	BaseURL string
	// HTTPClient is the transport (nil: a fresh http.Client).
	HTTPClient *http.Client
	// MaxAttempts bounds HTTP attempts per logical call (<= 0: 8).
	// Breaker-open fast failures do not consume attempts.
	MaxAttempts int
	// BaseBackoff seeds the exponential backoff (<= 0: 50ms); each retry
	// sleeps a full-jitter duration in [0, min(MaxBackoff, Base·2^n)).
	BaseBackoff time.Duration
	// MaxBackoff caps one backoff sleep (<= 0: 2s).
	MaxBackoff time.Duration
	// BreakerThreshold is the consecutive retryable-failure count that
	// trips the breaker (<= 0: 5).
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before letting a
	// half-open probe through (<= 0: 5s).
	BreakerCooldown time.Duration
	// FuncBudget, when > 0, rides to the server as
	// X-Lasagne-Func-Budget-Ms on every request.
	FuncBudget time.Duration
}

// Client is safe for concurrent use; the breaker state is shared across
// calls, which is the point — one flapping server trips it for everyone.
type Client struct {
	opts Options
	hc   *http.Client

	mu        sync.Mutex
	state     breakerState
	fails     int // consecutive retryable failures while closed
	openUntil time.Time
	probeDone chan struct{} // closed when the half-open probe reports

	attempts     atomic.Int64 // HTTP attempts actually sent (all calls)
	breakerOpens atomic.Int64
}

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// ErrBreakerOpen is returned (wrapped) when the breaker rejects a call
// without attempting the network.
var ErrBreakerOpen = errors.New("client: circuit breaker open")

// ErrMalformedStream marks a protocol violation — an unparsable complete
// frame line, a sequence gap, an unknown frame type. It is never retried:
// the server is broken, not busy.
var ErrMalformedStream = errors.New("client: malformed stream")

// StatusError is a non-retryable HTTP failure (4xx other than 429).
type StatusError struct {
	Code int
	Resp *serve.Response
}

func (e *StatusError) Error() string {
	msg := ""
	if e.Resp != nil {
		msg = ": " + e.Resp.Error
	}
	return fmt.Sprintf("client: server returned %d%s", e.Code, msg)
}

// New builds a Client.
func New(opts Options) *Client {
	if opts.HTTPClient == nil {
		opts.HTTPClient = &http.Client{}
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 8
	}
	if opts.BaseBackoff <= 0 {
		opts.BaseBackoff = 50 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 2 * time.Second
	}
	if opts.BreakerThreshold <= 0 {
		opts.BreakerThreshold = 5
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = 5 * time.Second
	}
	return &Client{opts: opts, hc: opts.HTTPClient}
}

// Attempts reports the HTTP attempts sent over the client's lifetime.
func (c *Client) Attempts() int64 { return c.attempts.Load() }

// BreakerOpens reports how many times the breaker tripped open.
func (c *Client) BreakerOpens() int64 { return c.breakerOpens.Load() }

// allow asks the breaker for permission. When the cooldown has elapsed the
// first caller becomes the half-open probe; everyone else is refused until
// the probe reports.
func (c *Client) allow() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.state {
	case breakerOpen:
		if time.Now().Before(c.openUntil) {
			return ErrBreakerOpen
		}
		c.state = breakerHalfOpen
		c.probeDone = make(chan struct{})
		return nil
	case breakerHalfOpen:
		return ErrBreakerOpen
	default:
		return nil
	}
}

// report feeds one attempt's outcome to the breaker.
func (c *Client) report(ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state == breakerHalfOpen {
		// Either outcome leaves half-open: release the probe's waiters.
		close(c.probeDone)
		c.probeDone = nil
	}
	if ok {
		c.state = breakerClosed
		c.fails = 0
		return
	}
	c.fails++
	if c.state == breakerHalfOpen || c.fails >= c.opts.BreakerThreshold {
		c.state = breakerOpen
		c.openUntil = time.Now().Add(c.opts.BreakerCooldown)
		c.fails = 0
		c.breakerOpens.Add(1)
	}
}

func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code >= 500
}

// backoff sleeps the full-jitter exponential delay for retry n (0-based),
// bounded by ctx.
func (c *Client) backoff(ctx context.Context, n int) error {
	d := c.opts.BaseBackoff << uint(n)
	if d <= 0 || d > c.opts.MaxBackoff {
		d = c.opts.MaxBackoff
	}
	return sleep(ctx, time.Duration(rand.Int63n(int64(d)+1)))
}

// waitForProbe waits, bounded by ctx, until the breaker may decide
// differently: out the open window, or, while another caller holds the
// half-open probe, until that probe reports. It does not consume an
// attempt: every open window was paid for by a real attempt already.
func (c *Client) waitForProbe(ctx context.Context) error {
	c.mu.Lock()
	d, probe := time.Until(c.openUntil), c.probeDone
	c.mu.Unlock()
	if probe == nil {
		return sleep(ctx, d)
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-probe:
		return nil
	}
}

// sleep waits d (nothing when d <= 0), bounded by ctx.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// headers stamps the deadline/budget propagation headers.
func (c *Client) headers(ctx context.Context, req *http.Request) {
	if dl, ok := ctx.Deadline(); ok {
		if d := time.Until(dl); d > 0 {
			req.Header.Set("X-Lasagne-Deadline-Ms", strconv.FormatInt(ceilMs(d), 10))
		}
	}
	if c.opts.FuncBudget > 0 {
		req.Header.Set("X-Lasagne-Func-Budget-Ms", strconv.FormatInt(ceilMs(c.opts.FuncBudget), 10))
	}
	req.Header.Set("Content-Type", "application/json")
}

// ceilMs is a positive d in whole milliseconds, rounded up: a duration under
// 1ms travels as "1", not as the "0" the server refuses.
func ceilMs(d time.Duration) int64 {
	ms := d.Milliseconds()
	if d%time.Millisecond != 0 {
		ms++
	}
	return ms
}

// call is the attempt loop of every logical call. attempt runs one HTTP
// attempt; retry reports a failure worth another. An open breaker is
// waited out without using an attempt, every attempt is reported to the
// breaker, and retries back off under ctx.
func (c *Client) call(ctx context.Context, attempt func() (retry bool, err error)) error {
	var lastErr error
	for n := 0; n < c.opts.MaxAttempts; {
		if err := c.allow(); err != nil {
			lastErr = err
			if werr := c.waitForProbe(ctx); werr != nil {
				return fmt.Errorf("%w (last error: %v)", werr, lastErr)
			}
			continue
		}
		n++
		retry, err := attempt()
		// A final status error is a healthy server refusing a wrong request.
		var se *StatusError
		c.report(err == nil || !retry && errors.As(err, &se))
		if !retry {
			return err
		}
		lastErr = err
		if berr := c.backoff(ctx, n-1); berr != nil {
			return fmt.Errorf("%w (last error: %v)", berr, lastErr)
		}
	}
	return fmt.Errorf("client: %d attempts exhausted: %w", c.opts.MaxAttempts, lastErr)
}

// send runs one HTTP attempt: it posts body to path and returns the 200
// response for the caller to read. Any other status is a *StatusError
// carrying the decoded error response. retry marks a transport failure or
// a retryable status.
func (c *Client) send(ctx context.Context, path string, body []byte) (res *http.Response, retry bool, err error) {
	c.attempts.Add(1)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.opts.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, true, err
	}
	c.headers(ctx, req)
	if res, err = c.hc.Do(req); err != nil {
		return nil, true, err
	}
	if res.StatusCode != http.StatusOK {
		defer res.Body.Close()
		var sr serve.Response
		_ = json.NewDecoder(res.Body).Decode(&sr)
		return nil, retryableStatus(res.StatusCode), &StatusError{Code: res.StatusCode, Resp: &sr}
	}
	return res, false, nil
}

// Translate posts one module to /translate with retry, backoff and the
// breaker. On 200 it returns the decoded response; a non-retryable status
// returns a *StatusError carrying the server's typed response, which is
// also the returned response.
func (c *Client) Translate(ctx context.Context, module []byte, reverse bool, cfg *serve.ConfigJSON) (*serve.Response, error) {
	body, err := json.Marshal(&serve.Request{
		Module:  base64.StdEncoding.EncodeToString(module),
		Reverse: reverse,
		Config:  cfg,
	})
	if err != nil {
		return nil, err
	}
	var out *serve.Response
	err = c.call(ctx, func() (bool, error) {
		res, retry, err := c.send(ctx, "/translate", body)
		if err != nil {
			var se *StatusError
			if !retry && errors.As(err, &se) {
				out = se.Resp
			}
			return retry, err
		}
		defer res.Body.Close()
		var sr serve.Response
		if err := json.NewDecoder(res.Body).Decode(&sr); err != nil {
			return true, fmt.Errorf("client: bad response JSON: %w", err)
		}
		out = &sr
		return false, nil
	})
	return out, err
}
