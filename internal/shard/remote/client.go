package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ossm "github.com/ossm-mining/ossm"
	"github.com/ossm-mining/ossm/internal/obs"
	"github.com/ossm-mining/ossm/internal/shard"
)

// Hooks observe a client's RPC traffic — the bridge to the serving
// layer's Prometheus families. All callbacks may run concurrently; nil
// hooks (or a zero Hooks) are ignored.
type Hooks struct {
	// OnRPC fires once per completed call with an outcome label: "ok",
	// "error", "overloaded" (worker 503), "timeout" (a deadline ended the
	// call) or "breaker_open" (rejected without touching the wire).
	OnRPC func(shardID int, method, outcome string)
	// OnRetry fires once per retry attempt (not for the first attempt).
	OnRetry func(shardID int, method string)
	// OnBreaker fires on every circuit-breaker state transition.
	OnBreaker func(shardID int, state BreakerState)
}

// ClientConfig tunes a Client. The zero value retries twice with
// jittered exponential backoff, times out attempts at 5 seconds, and
// trips the breaker after 5 consecutive failures for a 1-second
// cooldown.
type ClientConfig struct {
	// HTTPClient issues the calls; share one across a fleet's clients so
	// they draw keep-alive connections from one pool (NewHTTPClient).
	// nil builds a private pooled client.
	HTTPClient *http.Client
	// CallTimeout bounds each bounds/supports/info attempt (0 ⇒ 5s;
	// negative disables). The caller's context still caps the whole call.
	CallTimeout time.Duration
	// MineTimeout bounds each frequent (shard-local mining) attempt.
	// Mining legitimately runs long, so 0 means no per-attempt cap — only
	// the caller's deadline applies.
	MineTimeout time.Duration
	// MaxRetries is how many times a failed idempotent call is retried
	// after the first attempt (0 ⇒ 2; negative disables retries).
	MaxRetries int
	// RetryBase and RetryCap shape the backoff: attempt n sleeps a
	// uniformly jittered [½,1]·min(RetryBase·2ⁿ, RetryCap)
	// (0 ⇒ 25ms base, 250ms cap).
	RetryBase time.Duration
	RetryCap  time.Duration
	// Breaker tunes the per-shard circuit breaker.
	Breaker BreakerConfig
	// InfoRefresh is how often the cached shard info is refreshed in the
	// background (0 ⇒ 2s).
	InfoRefresh time.Duration
	// Seed makes the backoff jitter deterministic for tests (0 keeps it
	// deterministic too, derived from the shard id).
	Seed int64
	// Hooks observe RPCs, retries and breaker transitions.
	Hooks Hooks
	// Tracer, when non-nil, records one span per RPC attempt (and per
	// breaker rejection) under the caller's context, with serve/net time
	// attribution read from the worker's response headers.
	Tracer *obs.Tracer
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.CallTimeout == 0 {
		c.CallTimeout = 5 * time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 25 * time.Millisecond
	}
	if c.RetryCap <= 0 {
		c.RetryCap = 250 * time.Millisecond
	}
	if c.InfoRefresh <= 0 {
		c.InfoRefresh = 2 * time.Second
	}
	return c
}

// NewHTTPClient returns a pooled keep-alive HTTP client sized for a
// shard fleet: connections are reused across requests and shards on the
// same host, and idle ones are kept warm between scatter rounds.
func NewHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   5 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
	}}
}

// Client is the coordinator's HTTP view of one remote shard: a
// shard.Transport whose calls cross the wire with per-attempt timeouts,
// bounded jittered retries and a circuit breaker. Shard identity (the
// id) comes from the topology; the segment range, mining capability and
// health state come from the worker's info endpoint, cached and
// refreshed in the background so Transport.Info stays non-blocking on
// the scatter path.
type Client struct {
	id    int
	index string
	base  string // normalized base URL, no trailing slash
	http  *http.Client
	cfg   ClientConfig
	brk   *breaker

	rngMu sync.Mutex
	rng   *rand.Rand

	info        atomic.Pointer[InfoResponse]
	infoMu      sync.Mutex  // serializes the first synchronous fetch
	infoFetched atomic.Bool // an info fetch (even a failed one) happened
	infoAt      atomic.Int64
	infoBusy    atomic.Bool
}

// NewClient builds the transport for shard id at addr ("host:port" or a
// full http:// URL), serving the named index. It performs no I/O; the
// first Info (or CanMine/NumTx) call fetches the worker's identity.
func NewClient(id int, addr, index string, cfg ClientConfig) (*Client, error) {
	base, err := normalizeAddr(addr)
	if err != nil {
		return nil, err
	}
	if index == "" {
		return nil, fmt.Errorf("remote: NewClient requires an index name")
	}
	cfg = cfg.withDefaults()
	c := &Client{
		id:    id,
		index: index,
		base:  base,
		http:  cfg.HTTPClient,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed*2654435761 + int64(id) + 1)),
	}
	if c.http == nil {
		c.http = NewHTTPClient()
	}
	bcfg := cfg.Breaker
	if fn := cfg.Hooks.OnBreaker; fn != nil {
		bcfg.OnChange = func(s BreakerState) { fn(id, s) }
	}
	c.brk = newBreaker(bcfg)
	return c, nil
}

// normalizeAddr turns "host:port" or "http://host:port" into a base URL.
func normalizeAddr(addr string) (string, error) {
	if addr == "" {
		return "", fmt.Errorf("remote: empty shard address")
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	u, err := url.Parse(addr)
	if err != nil || u.Host == "" {
		return "", fmt.Errorf("remote: bad shard address %q", addr)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("remote: unsupported scheme %q in shard address", u.Scheme)
	}
	return strings.TrimSuffix(u.String(), "/"), nil
}

// ID returns the client's topology shard id.
func (c *Client) ID() int { return c.id }

// BreakerState reports the circuit breaker's current position.
func (c *Client) BreakerState() BreakerState { return c.brk.State() }

// Info implements shard.Transport from the cached worker info, with the
// breaker state overlaid so the fleet's health view reflects a shard it
// currently cannot reach. The first call fetches synchronously (bounded
// by CallTimeout); later calls are served from cache and refreshed in
// the background every InfoRefresh.
func (c *Client) Info() shard.Info {
	snap := c.ensureInfo()
	var inf shard.Info
	if snap != nil {
		inf = snap.Info
	} else {
		inf.State = "unreachable"
	}
	inf.ID = c.id // topology identity wins over whatever the worker thinks
	switch c.brk.State() {
	case BreakerOpen:
		inf.State = "breaker-open"
	case BreakerHalfOpen:
		inf.State = "breaker-half-open"
	}
	return inf
}

// CanMine implements shard.Transport from the cached worker info.
func (c *Client) CanMine() bool {
	if snap := c.ensureInfo(); snap != nil {
		return snap.CanMine
	}
	return false
}

// NumTx implements shard.Transport from the cached worker info.
func (c *Client) NumTx() int {
	if snap := c.ensureInfo(); snap != nil {
		return snap.NumTx
	}
	return 0
}

// ensureInfo returns the cached info snapshot, fetching synchronously
// exactly once on first use and asynchronously (throttled) thereafter —
// a dead worker costs one bounded fetch up front, never a stall per
// scatter call.
func (c *Client) ensureInfo() *InfoResponse {
	if snap := c.info.Load(); snap != nil {
		c.maybeRefreshInfo()
		return snap
	}
	if !c.infoFetched.Load() {
		c.infoMu.Lock()
		if !c.infoFetched.Load() {
			c.fetchInfo()
			c.infoFetched.Store(true)
		}
		c.infoMu.Unlock()
	} else {
		c.maybeRefreshInfo()
	}
	return c.info.Load()
}

// maybeRefreshInfo kicks a background fetch if the cache is stale and
// none is in flight.
func (c *Client) maybeRefreshInfo() {
	last := time.Unix(0, c.infoAt.Load())
	if time.Since(last) < c.cfg.InfoRefresh {
		return
	}
	if !c.infoBusy.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer c.infoBusy.Store(false)
		c.fetchInfo()
	}()
}

func (c *Client) fetchInfo() {
	ctx, cancel := context.WithTimeout(context.Background(), c.attemptTimeout(c.cfg.CallTimeout))
	defer cancel()
	_ = c.fetchInfoCtx(ctx)
}

// fetchInfoCtx is a single direct info attempt: no retries and no
// breaker involvement (info is the health side channel, and feeding the
// breaker from background probes would race the half-open single-flight
// guarantee), but it does report an RPC outcome for the metrics.
func (c *Client) fetchInfoCtx(ctx context.Context) error {
	var resp InfoResponse
	_, err := c.attempt(ctx, http.MethodGet, "/shard/v1/info?index="+url.QueryEscape(c.index), nil, &resp)
	c.infoAt.Store(time.Now().UnixNano())
	c.noteRPC("info", err)
	if err != nil {
		return err
	}
	c.info.Store(&resp)
	return nil
}

// attemptTimeout floors a per-attempt timeout for bare-context fetches.
func (c *Client) attemptTimeout(d time.Duration) time.Duration {
	if d <= 0 {
		return 2 * time.Second
	}
	return d
}

// FetchSpans returns the worker's finished spans (GET /shard/v1/traces)
// so the coordinator can stitch them into its own trace trees. Like the
// info side channel, it is a single direct attempt — no retries, no
// breaker involvement — because trace assembly is best-effort by design.
func (c *Client) FetchSpans(ctx context.Context) ([]obs.SpanRecord, error) {
	var resp SpansResponse
	_, err := c.attempt(ctx, http.MethodGet, "/shard/v1/traces", nil, &resp)
	if err != nil {
		return nil, fmt.Errorf("remote: shard %d traces: %w", c.id, err)
	}
	return resp.Spans, nil
}

// PartialBounds implements shard.Transport over POST /shard/v1/bounds.
func (c *Client) PartialBounds(ctx context.Context, sets []ossm.Itemset, out []int64) error {
	var resp BoundsResponse
	err := c.call(ctx, "bounds", "/shard/v1/bounds",
		BoundsRequest{Index: c.index, Sets: sets}, &resp, c.cfg.CallTimeout)
	if err != nil {
		return err
	}
	if len(resp.Bounds) != len(sets) {
		return fmt.Errorf("remote: shard %d returned %d bounds for %d itemsets", c.id, len(resp.Bounds), len(sets))
	}
	copy(out, resp.Bounds)
	return nil
}

// LocalFrequent implements shard.Transport over POST /shard/v1/frequent.
func (c *Client) LocalFrequent(ctx context.Context, miner string, localMin int64, maxLen int) ([]ossm.Itemset, error) {
	var resp FrequentResponse
	err := c.call(ctx, "frequent", "/shard/v1/frequent",
		FrequentRequest{Index: c.index, Miner: miner, LocalMin: localMin, MaxLen: maxLen}, &resp, c.cfg.MineTimeout)
	if err != nil {
		return nil, err
	}
	return resp.Sets, nil
}

// PartialSupports implements shard.Transport over POST /shard/v1/supports.
func (c *Client) PartialSupports(ctx context.Context, cands []ossm.Itemset, out []int64) error {
	var resp SupportsResponse
	err := c.call(ctx, "supports", "/shard/v1/supports",
		SupportsRequest{Index: c.index, Sets: cands}, &resp, c.cfg.CallTimeout)
	if err != nil {
		return err
	}
	if len(resp.Supports) != len(cands) {
		return fmt.Errorf("remote: shard %d returned %d supports for %d candidates", c.id, len(resp.Supports), len(cands))
	}
	copy(out, resp.Supports)
	return nil
}

// call is the shared RPC engine: breaker admission, then up to
// 1+MaxRetries attempts with jittered exponential backoff between them.
// Retrying is safe because every shard RPC is an idempotent read.
func (c *Client) call(ctx context.Context, method, path string, reqBody, respBody any, timeout time.Duration) error {
	done, err := c.brk.Allow()
	if err != nil {
		c.noteRPC(method, err)
		c.rejectSpan(ctx, method)
		return fmt.Errorf("remote: shard %d %s: %w", c.id, method, err)
	}
	for att := 0; ; att++ {
		actx := ctx
		cancel := context.CancelFunc(func() {})
		if timeout > 0 {
			actx, cancel = context.WithTimeout(ctx, timeout)
		}
		err := c.tracedAttempt(actx, method, att, path, reqBody, respBody)
		cancel()
		if err == nil {
			done(true)
			c.noteRPC(method, nil)
			return nil
		}
		if ctx.Err() != nil {
			// The caller's own deadline or cancellation ended the call;
			// retrying cannot help and the outcome belongs to the caller.
			done(false)
			c.noteRPC(method, ctx.Err())
			return fmt.Errorf("remote: shard %d %s: %w", c.id, method, ctx.Err())
		}
		if att >= c.cfg.MaxRetries || !retryable(err) {
			done(false)
			c.noteRPC(method, err)
			return c.finalErr(method, att+1, err)
		}
		if fn := c.cfg.Hooks.OnRetry; fn != nil {
			fn(c.id, method)
		}
		select {
		case <-time.After(c.backoff(att)):
		case <-ctx.Done():
			done(false)
			c.noteRPC(method, ctx.Err())
			return fmt.Errorf("remote: shard %d %s: %w", c.id, method, ctx.Err())
		}
	}
}

// tracedAttempt wraps one wire attempt in a span: rpc-<method>, carrying
// the shard id, attempt number, outcome, and — when the worker reported
// its serve time — the serve-vs-network wall-clock split the coordinator's
// trace view aggregates per shard.
func (c *Client) tracedAttempt(actx context.Context, method string, att int, path string, reqBody, respBody any) error {
	if c.cfg.Tracer == nil {
		_, err := c.attempt(actx, http.MethodPost, path, reqBody, respBody)
		return err
	}
	sctx, span := c.cfg.Tracer.Start(actx, "rpc-"+method)
	span.SetAttr("shard", c.id)
	span.SetAttr("attempt", att)
	start := time.Now()
	serveNs, err := c.attempt(sctx, http.MethodPost, path, reqBody, respBody)
	span.SetAttr("outcome", outcomeOf(err))
	if serveNs > 0 {
		wall := time.Since(start).Nanoseconds()
		if net := wall - serveNs; net >= 0 {
			span.SetAttr("serve_ns", serveNs)
			span.SetAttr("net_ns", net)
		}
	}
	span.End()
	return err
}

// rejectSpan records a breaker rejection as a zero-wire-time span, so
// fail-fast decisions stay visible in the assembled trace.
func (c *Client) rejectSpan(ctx context.Context, method string) {
	if c.cfg.Tracer == nil {
		return
	}
	_, span := c.cfg.Tracer.Start(ctx, "rpc-"+method)
	span.SetAttr("shard", c.id)
	span.SetAttr("outcome", "breaker_open")
	span.End()
}

// finalErr wraps an exhausted call's last error. Transport-level
// failures (timeouts, refused connections, 5xx) additionally wrap
// shard.ErrUnavailable so the serving layer answers 503 — the shard may
// be fine in a moment; the request was not wrong.
func (c *Client) finalErr(method string, attempts int, err error) error {
	wrapped := fmt.Errorf("remote: shard %d %s failed after %d attempt(s): %w", c.id, method, attempts, err)
	if retryable(err) && !errors.Is(err, shard.ErrUnavailable) {
		return fmt.Errorf("%w: %w", shard.ErrUnavailable, wrapped)
	}
	return wrapped
}

// backoff returns the jittered exponential delay before retry n:
// uniform in [½,1]·min(RetryBase·2ⁿ, RetryCap).
func (c *Client) backoff(n int) time.Duration {
	d := c.cfg.RetryBase << uint(n)
	if d > c.cfg.RetryCap || d <= 0 {
		d = c.cfg.RetryCap
	}
	c.rngMu.Lock()
	f := 0.5 + 0.5*c.rng.Float64()
	c.rngMu.Unlock()
	return time.Duration(float64(d) * f)
}

// statusError is a non-200 worker response.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("worker answered %d: %s", e.code, e.msg)
}

// Is maps 503 onto shard.ErrOverloaded so admission rejections keep
// their meaning across the wire.
func (e *statusError) Is(target error) bool {
	return e.code == http.StatusServiceUnavailable && target == shard.ErrOverloaded
}

// retryable classifies one attempt's failure. Client-side errors (4xx)
// are permanent — the coordinator and worker disagree about the request
// itself; everything else (connection failures, attempt timeouts,
// 5xx including 503 overload) is worth a bounded, backed-off retry of
// an idempotent call.
func retryable(err error) bool {
	var se *statusError
	if errors.As(err, &se) {
		return se.code >= 500
	}
	return true
}

// attempt performs one HTTP exchange under actx, propagating the
// caller's request id and trace context onto the wire and returning the
// worker-reported serve time (0 when the worker did not report one).
func (c *Client) attempt(actx context.Context, httpMethod, path string, reqBody, respBody any) (int64, error) {
	var body io.Reader
	if reqBody != nil {
		raw, err := json.Marshal(reqBody)
		if err != nil {
			return 0, &statusError{code: http.StatusBadRequest, msg: err.Error()}
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(actx, httpMethod, c.base+path, body)
	if err != nil {
		return 0, &statusError{code: http.StatusBadRequest, msg: err.Error()}
	}
	if reqBody != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id := obs.RequestIDFrom(actx); id != "" {
		req.Header.Set(requestIDHeader, id)
	}
	if span := obs.SpanFromContext(actx); span != nil {
		req.Header.Set(obs.TraceParentHeader, span.TraceParent())
	}
	resp, err := c.http.Do(req)
	if err != nil {
		if actx.Err() != nil {
			return 0, actx.Err()
		}
		return 0, err
	}
	defer func() {
		// Drain so the keep-alive connection returns to the pool.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}()
	serveNs, _ := strconv.ParseInt(resp.Header.Get(serveNsHeader), 10, 64)
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		msg := resp.Status
		if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		return serveNs, &statusError{code: resp.StatusCode, msg: msg}
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxWireBody)).Decode(respBody); err != nil {
		if actx.Err() != nil {
			return serveNs, actx.Err()
		}
		return serveNs, fmt.Errorf("decoding worker response: %w", err)
	}
	return serveNs, nil
}

// noteRPC reports one finished call to the hooks.
func (c *Client) noteRPC(method string, err error) {
	fn := c.cfg.Hooks.OnRPC
	if fn == nil {
		return
	}
	fn(c.id, method, outcomeOf(err))
}

func outcomeOf(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrBreakerOpen):
		return "breaker_open"
	case errors.Is(err, shard.ErrOverloaded):
		return "overloaded"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return "timeout"
	default:
		return "error"
	}
}
