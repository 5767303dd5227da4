// Package remote moves shards out of process: an HTTP transport for the
// scatter-gather fleet in internal/shard (DESIGN.md §8).
//
// The shard side is a Worker — a small HTTP handler that serves any
// shard.Transport (in practice one segment-range LocalTransport per
// registered index) under /shard/v1/{info,bounds,frequent,supports}
// with JSON bodies reusing the coordinator's wire types. The
// coordinator side is a Client, which implements shard.Transport over
// pooled keep-alive connections, so a fleet of Clients slots straight
// into shard.Fleet — the coordinator never learns whether a shard is a
// goroutine or a machine.
//
// Networks fail in ways in-process calls cannot, so the Client owns the
// failure handling the wire demands: a per-attempt timeout, bounded
// retry with jittered exponential backoff (every shard RPC is an
// idempotent read — partial bounds, partial supports and local mining
// are pure functions of the shard's slice), and a closed/open/half-open
// circuit breaker per shard that fails fast while a worker is down and
// probes it back to health with a single in-flight request. Breaker state is overlaid on Info so the coordinator's
// health view (GET /v1/indexes) reports it without an extra RPC.
package remote

import (
	"fmt"

	ossm "github.com/ossm-mining/ossm"
	"github.com/ossm-mining/ossm/internal/obs"
	"github.com/ossm-mining/ossm/internal/shard"
)

// Cross-process correlation headers. Every client RPC carries the
// coordinator's request id and the current span's traceparent
// (obs.TraceParentHeader); every worker response reports how long the
// worker actually spent serving, so the client can attribute the rest of
// the RPC's wall clock to the network and queueing.
const (
	requestIDHeader = "X-Request-Id"
	serveNsHeader   = "X-Serve-Ns"
)

// ErrBreakerOpen is returned (wrapped in shard.ErrUnavailable) when a
// call is rejected without touching the wire because the shard's
// circuit breaker is open.
var ErrBreakerOpen = fmt.Errorf("%w: circuit breaker open", shard.ErrUnavailable)

// Wire types for the /shard/v1/* endpoints. Requests carry the index
// name because one worker process serves a shard of every index it has
// loaded, exactly like the unsharded server serves many entries.

// BoundsRequest asks for the shard's partial OSSM bounds (the sum over
// its segment range only) for each itemset.
type BoundsRequest struct {
	Index string         `json:"index"`
	Sets  []ossm.Itemset `json:"itemsets"`
}

// BoundsResponse carries one partial bound per requested itemset, in
// request order.
type BoundsResponse struct {
	Bounds []int64 `json:"bounds"`
}

// FrequentRequest asks the shard to mine its transaction slice at the
// shard-scaled threshold and return every locally frequent itemset.
type FrequentRequest struct {
	Index    string `json:"index"`
	Miner    string `json:"miner"`
	LocalMin int64  `json:"local_min"`
	MaxLen   int    `json:"max_len,omitempty"`
}

// FrequentResponse lists the locally frequent itemsets.
type FrequentResponse struct {
	Sets []ossm.Itemset `json:"itemsets"`
}

// SupportsRequest asks for each candidate's exact support within the
// shard's transaction slice.
type SupportsRequest struct {
	Index string         `json:"index"`
	Sets  []ossm.Itemset `json:"itemsets"`
}

// SupportsResponse carries one partial support per candidate, in
// request order.
type SupportsResponse struct {
	Supports []int64 `json:"supports"`
}

// InfoResponse is the GET /shard/v1/info body: the shard's fleet row
// plus the mining and validation facts the coordinator caches.
type InfoResponse struct {
	Index string     `json:"index"`
	Info  shard.Info `json:"info"`
	// CanMine and NumTx mirror the Transport methods of the same names.
	CanMine bool `json:"can_mine"`
	NumTx   int  `json:"num_tx"`
	// TotalSegments is the segment count of the whole index the worker
	// sliced, so a coordinator can check the fleet tiles [0, total).
	TotalSegments int `json:"total_segments"`
}

// SpansResponse is the GET /shard/v1/traces body: the worker's finished
// spans, oldest first. The coordinator's /v1/traces fetches these and
// stitches them under its own scatter spans — worker spans carry the
// coordinator's trace and parent IDs when the RPC arrived with a
// traceparent header, so the join is pure tree assembly.
type SpansResponse struct {
	Spans []obs.SpanRecord `json:"spans"`
}

// errorBody is the JSON error envelope every non-200 worker response
// carries, matching the serving layer's shape.
type errorBody struct {
	Error string `json:"error"`
}
