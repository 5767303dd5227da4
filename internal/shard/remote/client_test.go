package remote

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	ossm "github.com/ossm-mining/ossm"
	"github.com/ossm-mining/ossm/internal/shard"
)

// rpcLog is a concurrency-safe hook recorder.
type rpcLog struct {
	mu       sync.Mutex
	outcomes []string
	retries  int
	breaker  []BreakerState
}

func (l *rpcLog) hooks() Hooks {
	return Hooks{
		OnRPC: func(_ int, method, outcome string) {
			l.mu.Lock()
			l.outcomes = append(l.outcomes, method+":"+outcome)
			l.mu.Unlock()
		},
		OnRetry: func(_ int, _ string) {
			l.mu.Lock()
			l.retries++
			l.mu.Unlock()
		},
		OnBreaker: func(_ int, s BreakerState) {
			l.mu.Lock()
			l.breaker = append(l.breaker, s)
			l.mu.Unlock()
		},
	}
}

func (l *rpcLog) retryCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.retries
}

func (l *rpcLog) lastOutcome() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.outcomes) == 0 {
		return ""
	}
	return l.outcomes[len(l.outcomes)-1]
}

func (l *rpcLog) breakerSeq() []BreakerState {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]BreakerState(nil), l.breaker...)
}

// scriptedWorker answers /shard/v1/bounds with the queued status codes,
// then 200s with valid bounds forever.
func scriptedWorker(t *testing.T, failures ...int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := int(calls.Add(1)) - 1
		if n < len(failures) {
			w.WriteHeader(failures[n])
			_ = json.NewEncoder(w).Encode(errorBody{Error: "scripted failure"})
			return
		}
		var req BoundsRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		out := make([]int64, len(req.Sets))
		for i := range out {
			out[i] = int64(100 + i)
		}
		_ = json.NewEncoder(w).Encode(BoundsResponse{Bounds: out})
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

// fastRetry is a client config with tight timeouts for test speed.
func fastRetry(log *rpcLog, maxRetries int) ClientConfig {
	cfg := ClientConfig{
		CallTimeout: 2 * time.Second,
		MaxRetries:  maxRetries,
		RetryBase:   time.Millisecond,
		RetryCap:    4 * time.Millisecond,
		Seed:        42,
	}
	if log != nil {
		cfg.Hooks = log.hooks()
	}
	return cfg
}

func callBounds(t *testing.T, c *Client, nSets int) ([]int64, error) {
	t.Helper()
	sets := make([]ossm.Itemset, nSets)
	for i := range sets {
		sets[i] = ossm.NewItemset(ossm.Item(i))
	}
	out := make([]int64, nSets)
	err := c.PartialBounds(context.Background(), sets, out)
	return out, err
}

func TestClientRetries503ThenSucceeds(t *testing.T) {
	log := &rpcLog{}
	srv, calls := scriptedWorker(t, 503, 503)
	c, err := NewClient(0, srv.URL, "retail", fastRetry(log, 2))
	if err != nil {
		t.Fatal(err)
	}
	out, err := callBounds(t, c, 2)
	if err != nil {
		t.Fatalf("PartialBounds = %v, want success after retries", err)
	}
	if out[0] != 100 || out[1] != 101 {
		t.Fatalf("bounds = %v, want [100 101]", out)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("worker saw %d calls, want 3 (1 + 2 retries)", got)
	}
	if got := log.retryCount(); got != 2 {
		t.Fatalf("retry hook fired %d times, want 2", got)
	}
	if got := log.lastOutcome(); got != "bounds:ok" {
		t.Fatalf("last outcome = %q, want bounds:ok", got)
	}
}

func TestClientRetryBudgetExhaustionWrapsUnavailable(t *testing.T) {
	log := &rpcLog{}
	srv, calls := scriptedWorker(t, 500, 500, 500, 500, 500, 500)
	c, err := NewClient(0, srv.URL, "retail", fastRetry(log, 2))
	if err != nil {
		t.Fatal(err)
	}
	_, err = callBounds(t, c, 1)
	if err == nil {
		t.Fatal("PartialBounds succeeded, want exhausted retries")
	}
	if !errors.Is(err, shard.ErrUnavailable) {
		t.Fatalf("error %v does not wrap shard.ErrUnavailable", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("worker saw %d calls, want exactly 1 + 2 retries", got)
	}
	if got := log.lastOutcome(); got != "bounds:error" {
		t.Fatalf("last outcome = %q, want bounds:error", got)
	}
}

func TestClientOverloaded503KeepsItsMeaning(t *testing.T) {
	srv, _ := scriptedWorker(t, 503, 503, 503, 503)
	c, err := NewClient(0, srv.URL, "retail", fastRetry(nil, 1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = callBounds(t, c, 1)
	if !errors.Is(err, shard.ErrOverloaded) {
		t.Fatalf("error %v does not wrap shard.ErrOverloaded (worker 503)", err)
	}
	if !errors.Is(err, shard.ErrUnavailable) {
		t.Fatalf("error %v does not wrap shard.ErrUnavailable", err)
	}
}

func TestClientDoesNotRetry4xx(t *testing.T) {
	log := &rpcLog{}
	srv, calls := scriptedWorker(t, 400, 400)
	c, err := NewClient(0, srv.URL, "retail", fastRetry(log, 5))
	if err != nil {
		t.Fatal(err)
	}
	_, err = callBounds(t, c, 1)
	if err == nil {
		t.Fatal("PartialBounds succeeded, want a 400 failure")
	}
	if errors.Is(err, shard.ErrUnavailable) {
		t.Fatalf("a 4xx is a permanent request error; %v must not wrap ErrUnavailable", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("worker saw %d calls, want 1 (no retry on 4xx)", got)
	}
	if got := log.retryCount(); got != 0 {
		t.Fatalf("retry hook fired %d times, want 0", got)
	}
}

func TestClientConnectionRefusedRetriesThenUnavailable(t *testing.T) {
	// Grab a port and close it so dialing is refused deterministically.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	log := &rpcLog{}
	c, err := NewClient(0, addr, "retail", fastRetry(log, 2))
	if err != nil {
		t.Fatal(err)
	}
	_, err = callBounds(t, c, 1)
	if !errors.Is(err, shard.ErrUnavailable) {
		t.Fatalf("error %v does not wrap shard.ErrUnavailable", err)
	}
	if got := log.retryCount(); got != 2 {
		t.Fatalf("retry hook fired %d times, want 2 (conn refused is retryable)", got)
	}
}

func TestClientParentDeadlineStopsRetries(t *testing.T) {
	log := &rpcLog{}
	block := make(chan struct{})
	defer close(block)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req BoundsRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		select {
		case <-block:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(srv.Close)
	cfg := fastRetry(log, 5)
	c, err := NewClient(0, srv.URL, "retail", cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err = c.PartialBounds(ctx, []ossm.Itemset{ossm.NewItemset(0)}, make([]int64, 1))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want the caller's DeadlineExceeded", err)
	}
	if got := log.retryCount(); got != 0 {
		t.Fatalf("retry hook fired %d times, want 0 (the caller's deadline is final)", got)
	}
	if got := log.lastOutcome(); got != "bounds:timeout" {
		t.Fatalf("last outcome = %q, want bounds:timeout", got)
	}
}

func TestClientAttemptTimeoutRetriesWithinParentBudget(t *testing.T) {
	log := &rpcLog{}
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req BoundsRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		if calls.Add(1) == 1 {
			// First attempt hangs past the per-attempt timeout. The body is
			// already drained, so the server detects the client's cancel and
			// ends r.Context(); the timer is a backstop for test hygiene.
			select {
			case <-r.Context().Done():
			case <-time.After(2 * time.Second):
			}
			return
		}
		_ = json.NewEncoder(w).Encode(BoundsResponse{Bounds: make([]int64, len(req.Sets))})
	}))
	t.Cleanup(srv.Close)
	cfg := fastRetry(log, 2)
	cfg.CallTimeout = 25 * time.Millisecond
	c, err := NewClient(0, srv.URL, "retail", cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = callBounds(t, c, 1)
	if err != nil {
		t.Fatalf("PartialBounds = %v, want success after an attempt-timeout retry", err)
	}
	if got := log.retryCount(); got != 1 {
		t.Fatalf("retry hook fired %d times, want 1", got)
	}
}

func TestClientBreakerOpensFailsFastAndRecovers(t *testing.T) {
	log := &rpcLog{}
	var healthy atomic.Bool
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if !healthy.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			_ = json.NewEncoder(w).Encode(errorBody{Error: "down"})
			return
		}
		var req BoundsRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		_ = json.NewEncoder(w).Encode(BoundsResponse{Bounds: make([]int64, len(req.Sets))})
	}))
	t.Cleanup(srv.Close)

	cfg := fastRetry(log, -1) // no retries: each call is one attempt
	cfg.Breaker = BreakerConfig{FailureThreshold: 2, Cooldown: 30 * time.Millisecond}
	c, err := NewClient(3, srv.URL, "retail", cfg)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ {
		if _, err := callBounds(t, c, 1); err == nil {
			t.Fatal("call succeeded against a down worker")
		}
	}
	if got := c.BreakerState(); got != BreakerOpen {
		t.Fatalf("after %d failures BreakerState = %v, want open", 2, got)
	}
	// Open: rejected without touching the wire.
	before := calls.Load()
	_, err = callBounds(t, c, 1)
	if !errors.Is(err, ErrBreakerOpen) || !errors.Is(err, shard.ErrUnavailable) {
		t.Fatalf("open-breaker error = %v, want ErrBreakerOpen wrapping ErrUnavailable", err)
	}
	if calls.Load() != before {
		t.Fatal("open breaker still let a call through to the worker")
	}
	if got := log.lastOutcome(); got != "bounds:breaker_open" {
		t.Fatalf("last outcome = %q, want bounds:breaker_open", got)
	}

	// Past the cooldown a single probe closes it again.
	healthy.Store(true)
	time.Sleep(35 * time.Millisecond)
	if _, err := callBounds(t, c, 1); err != nil {
		t.Fatalf("half-open probe = %v, want success", err)
	}
	if got := c.BreakerState(); got != BreakerClosed {
		t.Fatalf("after successful probe BreakerState = %v, want closed", got)
	}
	seq := log.breakerSeq()
	want := []BreakerState{BreakerOpen, BreakerHalfOpen, BreakerClosed}
	if len(seq) != len(want) {
		t.Fatalf("breaker transitions = %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("breaker transitions = %v, want %v", seq, want)
		}
	}
}

func TestClientInfoCachedAndBreakerOverlay(t *testing.T) {
	_, ix := fixture(t, 400, 8, ossm.RandomGreedy, 3)
	rf := startRemoteFleet(t, "retail", ix, nil, 2, ClientConfig{})
	c := rf.clients[1]
	inf := c.Info()
	if inf.ID != 1 {
		t.Fatalf("Info().ID = %d, want the topology id 1", inf.ID)
	}
	if inf.Segments.Len() == 0 {
		t.Fatal("Info().Segments is empty; worker info did not arrive")
	}
	if got := c.ensureInfo().TotalSegments; got != ix.NumSegments() {
		t.Fatalf("TotalSegments = %d, want %d", got, ix.NumSegments())
	}
	if c.CanMine() {
		t.Fatal("CanMine() = true for an index-only shard")
	}

	// A dead worker yields a placeholder, not a panic or a stall.
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	addr := ln.Addr().String()
	ln.Close()
	cfg := ClientConfig{CallTimeout: 50 * time.Millisecond}
	dead, err := NewClient(7, addr, "retail", cfg)
	if err != nil {
		t.Fatal(err)
	}
	inf = dead.Info()
	if inf.ID != 7 || inf.State != "unreachable" {
		t.Fatalf("dead worker Info() = %+v, want ID 7 state unreachable", inf)
	}
	if dead.CanMine() || dead.NumTx() != 0 {
		t.Fatal("dead worker reports mining capability")
	}

	// Breaker state overlays the health view.
	cfg = ClientConfig{CallTimeout: 50 * time.Millisecond, MaxRetries: -1,
		Breaker: BreakerConfig{FailureThreshold: 1, Cooldown: time.Minute}}
	down, err := NewClient(2, addr, "retail", cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = down.PartialBounds(context.Background(), []ossm.Itemset{ossm.NewItemset(0)}, make([]int64, 1))
	if got := down.Info().State; got != "breaker-open" {
		t.Fatalf("Info().State = %q, want breaker-open", got)
	}
}

func TestClientRejectsMismatchedBoundsLength(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(BoundsResponse{Bounds: []int64{1}})
	}))
	t.Cleanup(srv.Close)
	c, err := NewClient(0, srv.URL, "retail", fastRetry(nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := callBounds(t, c, 3); err == nil {
		t.Fatal("PartialBounds accepted a short bounds vector")
	}
}

func TestNewClientValidatesAddresses(t *testing.T) {
	for _, bad := range []string{"", "ftp://host:1", "http://"} {
		if _, err := NewClient(0, bad, "retail", ClientConfig{}); err == nil {
			t.Fatalf("NewClient accepted address %q", bad)
		}
	}
	if _, err := NewClient(0, "127.0.0.1:7801", "", ClientConfig{}); err == nil {
		t.Fatal("NewClient accepted an empty index name")
	}
	c, err := NewClient(0, "127.0.0.1:7801", "retail", ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if c.base != "http://127.0.0.1:7801" {
		t.Fatalf("base = %q, want the http:// prefix added", c.base)
	}
}
