package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"

	ossm "github.com/ossm-mining/ossm"
	"github.com/ossm-mining/ossm/internal/conc"
	"github.com/ossm-mining/ossm/internal/obs"
)

// Config tunes a Fleet. The zero value serves with no tracing or
// metrics callbacks.
type Config struct {
	// Tracer, when non-nil, records one span per shard call under the
	// caller's context.
	Tracer *obs.Tracer
	// OnShardOutcome, when non-nil, is called once per completed shard
	// call with the shard id and an outcome label: "ok", "error" or
	// "overloaded". Callbacks may run concurrently.
	OnShardOutcome func(shard int, outcome string)
}

// topology is one immutable generation of the fleet: the shard set and
// the refcount that in-flight requests hold. Swapping installs a new
// topology and drains the old one's refcount — in-flight requests keep
// a consistent view for their whole lifetime.
type topology struct {
	shards []Transport
	gen    uint64
	refs   sync.WaitGroup
}

// Fleet is the scatter-gather coordinator over a set of shards: it fans
// bound (and mining) requests out over every shard, merges partial
// results by addition at the top, and swaps topologies with a graceful
// drain. Each shard is called once per request: the bound is a sum over
// segments, so one answer per segment range is exact.
type Fleet struct {
	cfg Config

	mu  sync.Mutex
	top *topology
	gen uint64
}

// NewFleet builds a coordinator over shards (at least one).
func NewFleet(cfg Config, shards []Transport) (*Fleet, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: a fleet needs at least one shard")
	}
	f := &Fleet{cfg: cfg, gen: 1}
	f.top = &topology{shards: shards, gen: 1}
	return f, nil
}

// NumShards reports the current topology's width.
func (f *Fleet) NumShards() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.top.shards)
}

// acquire pins the current topology for one request.
func (f *Fleet) acquire() *topology {
	f.mu.Lock()
	top := f.top
	top.refs.Add(1)
	f.mu.Unlock()
	return top
}

// Swap installs a new shard set and drains the old topology: it returns
// only after every request that was in flight against the previous
// generation has finished, so callers may release the old shards'
// backing memory afterwards. New requests route to the new topology
// immediately; none are dropped.
func (f *Fleet) Swap(shards []Transport) error {
	if len(shards) == 0 {
		return fmt.Errorf("shard: a fleet needs at least one shard")
	}
	f.mu.Lock()
	old := f.top
	f.gen++
	f.top = &topology{shards: shards, gen: f.gen}
	f.mu.Unlock()
	old.refs.Wait()
	return nil
}

// Stats is the fleet topology that Describe reports for /v1/indexes and
// /v1/fleetz.
type Stats struct {
	Generation uint64 `json:"generation"`
	Shards     []Info `json:"shards"`
}

// Describe reports the current topology.
func (f *Fleet) Describe() Stats {
	f.mu.Lock()
	top := f.top
	f.mu.Unlock()
	st := Stats{
		Generation: top.gen,
		Shards:     make([]Info, 0, len(top.shards)),
	}
	for _, t := range top.shards {
		st.Shards = append(st.Shards, t.Info())
	}
	return st
}

// note invokes the outcome callback if configured.
func (f *Fleet) note(shard int, outcome string) {
	if f.cfg.OnShardOutcome != nil {
		f.cfg.OnShardOutcome(shard, outcome)
	}
}

// Bounds answers whole-index OSSM bounds for every itemset by
// scatter-gather: each shard contributes the sum over its own segment
// range, and the coordinator merges the partials by addition in shard
// order — bit-identical to a single-index UpperBoundBatch because int64
// addition over a partition of the segment axis is exact in any
// grouping. out must have len(sets) entries.
func (f *Fleet) Bounds(ctx context.Context, sets []ossm.Itemset, out []int64) error {
	if len(out) < len(sets) {
		return fmt.Errorf("shard: Bounds needs one output slot per itemset")
	}
	top := f.acquire()
	defer top.refs.Done()
	n := len(top.shards)
	partials := make([][]int64, n)
	errs := make([]error, n)
	conc.Scatter(n, func(i int) {
		partials[i], errs[i] = f.callBounds(ctx, top.shards[i], sets)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i := range sets {
		out[i] = 0
	}
	for _, part := range partials {
		for i, b := range part {
			out[i] += b
		}
	}
	return nil
}

// callBounds runs one shard's partial-bound call and notes its outcome.
func (f *Fleet) callBounds(ctx context.Context, t Transport, sets []ossm.Itemset) ([]int64, error) {
	info := t.Info()
	var span *obs.Span
	if f.cfg.Tracer != nil {
		// The span's context flows into the transport call so that
		// RPC-attempt spans (and, over the wire, worker-side serve
		// spans) parent under shard-N rather than the scatter span.
		ctx, span = f.cfg.Tracer.Start(ctx, fmt.Sprintf("shard-%d", info.ID))
		span.SetAttr("segments_lo", info.Segments.Lo)
		span.SetAttr("segments_hi", info.Segments.Hi)
		span.SetAttr("sets", len(sets))
	}
	out := make([]int64, len(sets))
	err := t.PartialBounds(ctx, sets, out)
	// outcome is what OnShardOutcome sees; the span tells a deadline
	// apart from other errors.
	outcome, spanOutcome := "ok", "ok"
	switch {
	case err == nil:
	case ctx.Err() != nil:
		// Report the caller's deadline or cancellation rather than
		// however the transport wrapped it.
		err, outcome, spanOutcome = ctx.Err(), "error", "deadline"
	case errors.Is(err, ErrOverloaded):
		outcome, spanOutcome = "overloaded", "overloaded"
	default:
		outcome, spanOutcome = "error", "error"
	}
	f.note(info.ID, outcome)
	if span != nil {
		span.SetAttr("outcome", spanOutcome)
		span.End()
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}
