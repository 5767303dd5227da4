// Package shard partitions a built OSSM index into segment-range shards
// and coordinates scatter-gather serving over them (DESIGN.md §8).
//
// The refactor is lossless by construction: the OSSM bound (eq. 1) is a
// pure sum of non-negative per-segment terms, so slicing the segment
// axis into contiguous ranges and summing per-range partial bounds
// reproduces the single-map bound bit for bit. Liberty et al.'s sketch
// lower bounds (PAPERS.md) say there is no small-space shortcut around
// that exact sum, so scale has to come from scaling the exact path out —
// the same partition-then-merge decomposition Grahne & Zhu motivate for
// collections that outgrow one worker.
//
// Shards run in-process behind the Transport interface, so an HTTP shard
// client can slot in later without touching the coordinator. Each shard
// owns a contiguous columnar sub-range of the index (a core.Map
// segment-range copy) plus, when the entry has a dataset, a
// transaction slice for scatter-gather mining, and keeps its own
// health/admission state.
package shard

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	ossm "github.com/ossm-mining/ossm"
)

// ErrOverloaded is returned by a shard that is at its admission cap.
var ErrOverloaded = errors.New("shard: admission cap reached")

// ErrUnavailable is returned by transports that cannot reach their
// shard at all — a dead worker, an open circuit breaker, a retry budget
// exhausted against a partitioned network. The serving layer maps it to
// 503, like ErrOverloaded, because both mean "try again later", not
// "the request was wrong".
var ErrUnavailable = errors.New("shard: unavailable")

// Range is a contiguous, half-open segment range [Lo, Hi).
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Len returns the number of segments in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// PartitionSegments slices [0, numSegs) into at most n contiguous
// ranges: even sizes with the remainder spread over the leading ranges,
// so uneven segment counts produce uneven shards (24 segments over 8
// shards is 3 each; 26 is 4,4,3,3,3,3,3,3). Asking for more shards than
// segments yields one shard per segment — a shard never owns an empty
// range.
func PartitionSegments(numSegs, n int) []Range {
	if n < 1 {
		n = 1
	}
	if n > numSegs {
		n = numSegs
	}
	out := make([]Range, 0, n)
	base, rem := numSegs/n, numSegs%n
	lo := 0
	for i := 0; i < n; i++ {
		size := base
		if i < rem {
			size++
		}
		out = append(out, Range{Lo: lo, Hi: lo + size})
		lo += size
	}
	return out
}

// Info is one shard's row of the fleet topology (GET /v1/indexes).
type Info struct {
	ID       int    `json:"shard"`
	Segments Range  `json:"segments"`
	State    string `json:"state"` // healthy; a remote client: unreachable | breaker-open | breaker-half-open
	Inflight int64  `json:"inflight"`
	Requests int64  `json:"requests"`
	Rejected int64  `json:"rejected,omitempty"`
	// NumTx is the shard's transaction-slice size when the shard can
	// take part in scatter-gather mining, 0 otherwise.
	NumTx int `json:"num_tx,omitempty"`
}

// Transport is the coordinator's view of one shard. The in-process
// implementation is LocalTransport; an HTTP shard client implements the
// same contract to move shards out of process.
type Transport interface {
	// Info reports the shard's identity, range and health/admission
	// state.
	Info() Info
	// PartialBounds writes the shard's partial OSSM bound — the sum over
	// its segment range only — for every itemset into out, which has
	// len(sets) entries. Merging the fleet's partials by addition yields
	// the exact whole-index bound.
	PartialBounds(ctx context.Context, sets []ossm.Itemset, out []int64) error
	// CanMine reports whether the shard holds a transaction slice and
	// can serve the mining scatter phases.
	CanMine() bool
	// NumTx is the shard's transaction-slice size (0 when !CanMine).
	NumTx() int
	// LocalFrequent mines the shard's transaction slice with the named
	// miner at the shard-scaled threshold and returns every locally
	// frequent itemset. By the pigeonhole argument of Savasere et al.'s
	// Partition (the repo's internal/partition miner uses the same
	// bound), every globally frequent itemset is locally frequent in at
	// least one shard, so the union of these lists is a superset of the
	// global answer.
	LocalFrequent(ctx context.Context, miner string, localMin int64, maxLen int) ([]ossm.Itemset, error)
	// PartialSupports writes each candidate's exact support within the
	// shard's transaction slice into out (len(cands) entries). Supports
	// over disjoint slices merge by addition.
	PartialSupports(ctx context.Context, cands []ossm.Itemset, out []int64) error
}

// Shard is one in-process segment-range shard: a segment-range view of
// the parent index plus admission bookkeeping.
type Shard struct {
	id  int
	rng Range
	ix  *ossm.Index   // segment-range view [rng.Lo, rng.Hi)
	d   *ossm.Dataset // transaction slice for mining, may be nil

	maxInflight int64
	inflight    atomic.Int64
	requests    atomic.Int64
	rejected    atomic.Int64
}

// NewLocalShards slices ix into n segment-range shards. When d is
// non-nil the dataset's transactions are partitioned evenly across the
// same shards (the mining substrate; the transaction split is
// independent of the segment split — support counting is a sum over any
// partition of the transactions). maxInflight caps concurrent partial
// calls per shard (0 = unlimited).
func NewLocalShards(ix *ossm.Index, d *ossm.Dataset, n, maxInflight int) ([]*Shard, error) {
	if ix == nil {
		return nil, fmt.Errorf("shard: NewLocalShards requires an index")
	}
	ranges := PartitionSegments(ix.NumSegments(), n)
	shards := make([]*Shard, len(ranges))
	txRanges := make([]Range, len(ranges))
	if d != nil {
		txRanges = PartitionSegments(d.NumTx(), len(ranges))
	}
	for i, rng := range ranges {
		view, err := ix.SegmentRange(rng.Lo, rng.Hi)
		if err != nil {
			return nil, err
		}
		s := &Shard{id: i, rng: rng, ix: view, maxInflight: int64(maxInflight)}
		if d != nil && txRanges[i].Len() > 0 {
			s.d = d.Slice(txRanges[i].Lo, txRanges[i].Hi)
		}
		shards[i] = s
	}
	return shards, nil
}

// Transports wraps shards in their in-process transports.
func Transports(shards []*Shard) []Transport {
	out := make([]Transport, len(shards))
	for i, s := range shards {
		out[i] = LocalTransport{s}
	}
	return out
}

// admit reserves an admission slot, or fails with ErrOverloaded.
func (s *Shard) admit() error {
	n := s.inflight.Add(1)
	if s.maxInflight > 0 && n > s.maxInflight {
		s.inflight.Add(-1)
		s.rejected.Add(1)
		return fmt.Errorf("%w: shard %d at %d in-flight requests", ErrOverloaded, s.id, s.maxInflight)
	}
	s.requests.Add(1)
	return nil
}

func (s *Shard) release() { s.inflight.Add(-1) }

// Info reports the shard's current state.
func (s *Shard) Info() Info {
	info := Info{
		ID:       s.id,
		Segments: s.rng,
		State:    "healthy",
		Inflight: s.inflight.Load(),
		Requests: s.requests.Load(),
		Rejected: s.rejected.Load(),
	}
	if s.d != nil {
		info.NumTx = s.d.NumTx()
	}
	return info
}

// LocalTransport serves a Shard in-process.
type LocalTransport struct{ s *Shard }

// Info implements Transport.
func (t LocalTransport) Info() Info { return t.s.Info() }

// CanMine implements Transport.
func (t LocalTransport) CanMine() bool { return t.s.d != nil }

// NumTx implements Transport.
func (t LocalTransport) NumTx() int {
	if t.s.d == nil {
		return 0
	}
	return t.s.d.NumTx()
}

// PartialBounds implements Transport with the index view's
// UpperBoundBatch over the shard's segment range.
func (t LocalTransport) PartialBounds(ctx context.Context, sets []ossm.Itemset, out []int64) error {
	if err := t.s.admit(); err != nil {
		return err
	}
	defer t.s.release()
	if err := ctx.Err(); err != nil {
		return err
	}
	t.s.ix.UpperBoundBatch(sets, out)
	return nil
}

// LocalFrequent implements Transport: one single-worker mining run over
// the shard's transaction slice (shard-level parallelism replaces
// worker-level parallelism inside a fleet).
func (t LocalTransport) LocalFrequent(ctx context.Context, miner string, localMin int64, maxLen int) ([]ossm.Itemset, error) {
	if t.s.d == nil {
		return nil, fmt.Errorf("shard %d has no transaction slice; cannot mine", t.s.id)
	}
	if err := t.s.admit(); err != nil {
		return nil, err
	}
	defer t.s.release()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := ossm.MineAt(miner, t.s.d, localMin, ossm.MineOptions{MaxLen: maxLen})
	if err != nil {
		return nil, err
	}
	all := res.All()
	sets := make([]ossm.Itemset, len(all))
	for i, c := range all {
		sets[i] = c.Items
	}
	return sets, nil
}

// PartialSupports implements Transport with an exact linear scan of the
// shard's transaction slice.
func (t LocalTransport) PartialSupports(ctx context.Context, cands []ossm.Itemset, out []int64) error {
	if t.s.d == nil {
		return fmt.Errorf("shard %d has no transaction slice; cannot count", t.s.id)
	}
	if err := t.s.admit(); err != nil {
		return err
	}
	defer t.s.release()
	for i, x := range cands {
		if i%256 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		out[i] = int64(t.s.d.Support(x))
	}
	return nil
}
