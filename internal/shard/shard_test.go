package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	ossm "github.com/ossm-mining/ossm"
	"github.com/ossm-mining/ossm/internal/obs"
)

func TestPartitionSegments(t *testing.T) {
	cases := []struct {
		segs, n int
		want    []Range
	}{
		{24, 8, []Range{{0, 3}, {3, 6}, {6, 9}, {9, 12}, {12, 15}, {15, 18}, {18, 21}, {21, 24}}},
		{26, 8, []Range{{0, 4}, {4, 8}, {8, 11}, {11, 14}, {14, 17}, {17, 20}, {20, 23}, {23, 26}}},
		{5, 1, []Range{{0, 5}}},
		{5, 0, []Range{{0, 5}}},
		{3, 8, []Range{{0, 1}, {1, 2}, {2, 3}}},
	}
	for _, c := range cases {
		got := PartitionSegments(c.segs, c.n)
		if len(got) != len(c.want) {
			t.Fatalf("PartitionSegments(%d, %d) = %v, want %v", c.segs, c.n, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("PartitionSegments(%d, %d)[%d] = %v, want %v", c.segs, c.n, i, got[i], c.want[i])
			}
		}
		// Invariants: contiguous cover of [0, segs), no empty range.
		lo := 0
		for _, r := range got {
			if r.Lo != lo || r.Len() < 1 {
				t.Fatalf("PartitionSegments(%d, %d): bad range %v at lo=%d", c.segs, c.n, r, lo)
			}
			lo = r.Hi
		}
		if lo != c.segs {
			t.Fatalf("PartitionSegments(%d, %d) covers [0,%d), want [0,%d)", c.segs, c.n, lo, c.segs)
		}
	}
}

func testFixture(t *testing.T, numTx, seed int) (*ossm.Dataset, map[ossm.Algorithm]*ossm.Index) {
	t.Helper()
	d, err := ossm.GenerateSkewed(ossm.DefaultSkewed(numTx, int64(seed)))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[ossm.Algorithm]*ossm.Index)
	for _, alg := range []ossm.Algorithm{ossm.Random, ossm.RC, ossm.Greedy, ossm.RandomRC, ossm.RandomGreedy} {
		ix, err := ossm.Build(d, ossm.BuildOptions{Segments: 24, Algorithm: alg, Seed: int64(seed)})
		if err != nil {
			t.Fatal(err)
		}
		out[alg] = ix
	}
	return d, out
}

func randomSets(r *rand.Rand, numItems, n int) []ossm.Itemset {
	sets := make([]ossm.Itemset, n)
	for i := range sets {
		k := 1 + r.Intn(4)
		items := make([]ossm.Item, 0, k)
		seen := map[ossm.Item]bool{}
		for len(items) < k {
			it := ossm.Item(r.Intn(numItems))
			if !seen[it] {
				seen[it] = true
				items = append(items, it)
			}
		}
		sets[i] = ossm.NewItemset(items...)
	}
	return sets
}

// TestFleetBoundsDifferential is the headline exactness test: for every
// segmenter and shard count (including splits that do not divide the
// segment count), scatter-gather bounds through a fleet are bit-identical
// to the single-index batch kernel.
func TestFleetBoundsDifferential(t *testing.T) {
	d, indexes := testFixture(t, 1200, 7)
	r := rand.New(rand.NewSource(7))
	for alg, ix := range indexes {
		sets := randomSets(r, ix.NumItems(), 64)
		want := ix.UpperBoundBatch(sets, nil)
		for _, n := range []int{1, 2, 3, 8} {
			shards, err := NewLocalShards(ix, d, n, 0)
			if err != nil {
				t.Fatal(err)
			}
			f, err := NewFleet(Config{}, Transports(shards))
			if err != nil {
				t.Fatal(err)
			}
			got := make([]int64, len(sets))
			if err := f.Bounds(context.Background(), sets, got); err != nil {
				t.Fatalf("alg %v, %d shards: %v", alg, n, err)
			}
			for i := range sets {
				if got[i] != want[i] {
					t.Fatalf("alg %v, %d shards: bound[%d] = %d, want %d for %v",
						alg, n, i, got[i], want[i], sets[i])
				}
			}
		}
	}
}

// TestFleetMineDifferential pins the scatter-gather mine to the
// single-node answer: same frequent itemsets, same exact supports, across
// shard counts with uneven transaction splits.
func TestFleetMineDifferential(t *testing.T) {
	d, err := ossm.GenerateSkewed(ossm.DefaultSkewed(900, 3))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ossm.Build(d, ossm.BuildOptions{Segments: 16, Algorithm: ossm.RandomGreedy, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const minCount = 12
	ref, err := ossm.MineAt("eclat", d, minCount, ossm.MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{}
	for _, c := range ref.All() {
		want[setKey(c.Items)] = c.Count
	}
	if len(want) == 0 {
		t.Fatal("reference mine found nothing; lower minCount")
	}
	for _, n := range []int{1, 2, 3, 7} {
		shards, err := NewLocalShards(ix, d, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewFleet(Config{}, Transports(shards))
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Mine(context.Background(), MineConfig{Miner: "eclat", MinCount: minCount})
		if err != nil {
			t.Fatalf("%d shards: %v", n, err)
		}
		if len(res.Frequent) != len(want) {
			t.Fatalf("%d shards: %d frequent itemsets, want %d", n, len(res.Frequent), len(want))
		}
		for _, c := range res.Frequent {
			if w, ok := want[setKey(c.Items)]; !ok || w != c.Count {
				t.Fatalf("%d shards: %v count %d, want %d (present %v)", n, c.Items, c.Count, w, ok)
			}
		}
		if res.Candidates < len(want) {
			t.Fatalf("%d shards: %d candidates < %d frequent", n, res.Candidates, len(want))
		}
	}
}

// TestFleetMineMaxLen checks the MaxLen cap flows through scatter-gather.
func TestFleetMineMaxLen(t *testing.T) {
	d, err := ossm.GenerateSkewed(ossm.DefaultSkewed(600, 5))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ossm.Build(d, ossm.BuildOptions{Segments: 8})
	if err != nil {
		t.Fatal(err)
	}
	shards, err := NewLocalShards(ix, d, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(Config{}, Transports(shards))
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Mine(context.Background(), MineConfig{Miner: "eclat", MinCount: 8, MaxLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ossm.MineAt("eclat", d, 8, ossm.MineOptions{MaxLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frequent) != len(ref.All()) {
		t.Fatalf("MaxLen=1: %d frequent, want %d", len(res.Frequent), len(ref.All()))
	}
	for _, c := range res.Frequent {
		if len(c.Items) != 1 {
			t.Fatalf("MaxLen=1 returned %v", c.Items)
		}
	}
}

// TestShardAdmissionCap drives a shard past its in-flight cap and checks
// both the typed error and the outcome callback label.
func TestShardAdmissionCap(t *testing.T) {
	d, err := ossm.GenerateSkewed(ossm.DefaultSkewed(300, 1))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ossm.Build(d, ossm.BuildOptions{Segments: 8})
	if err != nil {
		t.Fatal(err)
	}
	shards, err := NewLocalShards(ix, nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := shards[0]
	if err := s.admit(); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	outcomes := map[string]int{}
	f, err := NewFleet(Config{
		OnShardOutcome: func(_ int, o string) {
			mu.Lock()
			outcomes[o]++
			mu.Unlock()
		},
	}, Transports(shards))
	if err != nil {
		t.Fatal(err)
	}
	sets := []ossm.Itemset{ossm.NewItemset(0)}
	err = f.Bounds(context.Background(), sets, make([]int64, 1))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	mu.Lock()
	over := outcomes["overloaded"]
	mu.Unlock()
	if over != 1 {
		t.Fatalf("overloaded outcome count = %d, want 1", over)
	}
	if s.Info().Rejected != 1 {
		t.Fatalf("rejected counter = %d, want 1", s.Info().Rejected)
	}
	s.release()
	if err := f.Bounds(context.Background(), sets, make([]int64, 1)); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

// fakeTransport wraps a LocalTransport with an injectable delay and call
// counting — the stand-in for a slow remote shard.
type fakeTransport struct {
	inner Transport
	calls atomic.Int64
	delay time.Duration // PartialBounds waits this long, or for ctx
	block chan struct{} // when non-nil, PartialBounds waits on it
}

func (t *fakeTransport) Info() Info    { return t.inner.Info() }
func (t *fakeTransport) CanMine() bool { return t.inner.CanMine() }
func (t *fakeTransport) NumTx() int    { return t.inner.NumTx() }
func (t *fakeTransport) PartialBounds(ctx context.Context, sets []ossm.Itemset, out []int64) error {
	t.calls.Add(1)
	if t.block != nil {
		<-t.block
	}
	if t.delay > 0 {
		select {
		case <-time.After(t.delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return t.inner.PartialBounds(ctx, sets, out)
}
func (t *fakeTransport) LocalFrequent(ctx context.Context, miner string, localMin int64, maxLen int) ([]ossm.Itemset, error) {
	return t.inner.LocalFrequent(ctx, miner, localMin, maxLen)
}
func (t *fakeTransport) PartialSupports(ctx context.Context, cands []ossm.Itemset, out []int64) error {
	return t.inner.PartialSupports(ctx, cands, out)
}

// TestFleetBoundsDeadline pins the deadline path: a shard that outlasts
// the caller's deadline must end Bounds with context.DeadlineExceeded as
// soon as the deadline passes, note an "error" outcome and close its
// shard span with outcome=deadline.
func TestFleetBoundsDeadline(t *testing.T) {
	d, err := ossm.GenerateSkewed(ossm.DefaultSkewed(400, 2))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ossm.Build(d, ossm.BuildOptions{Segments: 8})
	if err != nil {
		t.Fatal(err)
	}
	shards, err := NewLocalShards(ix, nil, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	const delay = 2 * time.Second
	slow := &fakeTransport{inner: LocalTransport{shards[0]}, delay: delay}
	tracer := obs.NewTracer(16)
	var mu sync.Mutex
	var outcomes []string
	f, err := NewFleet(Config{
		Tracer: tracer,
		OnShardOutcome: func(_ int, o string) {
			mu.Lock()
			outcomes = append(outcomes, o)
			mu.Unlock()
		},
	}, []Transport{slow})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = f.Bounds(ctx, []ossm.Itemset{ossm.NewItemset(0)}, make([]int64, 1))
	if took := time.Since(start); took > delay/2 {
		t.Fatalf("Bounds returned after %v; the 20ms deadline should end it", took)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Bounds error = %v, want context.DeadlineExceeded", err)
	}
	mu.Lock()
	got := fmt.Sprint(outcomes)
	mu.Unlock()
	if got != "[error]" {
		t.Fatalf("shard outcomes = %s, want [error]", got)
	}
	var found bool
	for _, rec := range tracer.Snapshot() {
		if rec.Name == "shard-0" {
			found = true
			if rec.Attrs["outcome"] != "deadline" {
				t.Fatalf("shard-0 span outcome = %v, want deadline", rec.Attrs["outcome"])
			}
		}
	}
	if !found {
		t.Fatal("no shard-0 span recorded")
	}
}

// TestFleetSwapDrain pins the graceful-drain contract: Swap must not
// return while a request against the old topology is still in flight,
// and requests after the swap are served by the new shards.
func TestFleetSwapDrain(t *testing.T) {
	d, err := ossm.GenerateSkewed(ossm.DefaultSkewed(400, 4))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ossm.Build(d, ossm.BuildOptions{Segments: 8})
	if err != nil {
		t.Fatal(err)
	}
	oldShards, err := NewLocalShards(ix, nil, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	blocked := &fakeTransport{inner: LocalTransport{oldShards[0]}, block: gate}
	f, err := NewFleet(Config{}, []Transport{blocked, LocalTransport{oldShards[1]}})
	if err != nil {
		t.Fatal(err)
	}
	sets := []ossm.Itemset{ossm.NewItemset(0, 1)}
	want := ix.UpperBoundBatch(sets, nil)

	boundsDone := make(chan error, 1)
	go func() {
		out := make([]int64, 1)
		err := f.Bounds(context.Background(), sets, out)
		if err == nil && out[0] != want[0] {
			err = fmt.Errorf("old-topology bound %d, want %d", out[0], want[0])
		}
		boundsDone <- err
	}()
	// Wait for the request to pin the old topology.
	for blocked.calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	newShards, err := NewLocalShards(ix, nil, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	swapDone := make(chan struct{})
	go func() {
		if err := f.Swap(Transports(newShards)); err != nil {
			t.Error(err)
		}
		close(swapDone)
	}()
	select {
	case <-swapDone:
		t.Fatal("Swap returned while a request against the old topology was in flight")
	case <-time.After(30 * time.Millisecond):
	}
	// New requests are already served by the new topology while the old
	// one drains.
	out := make([]int64, 1)
	if err := f.Bounds(context.Background(), sets, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != want[0] {
		t.Fatalf("new-topology bound %d, want %d", out[0], want[0])
	}
	if got := f.NumShards(); got != 4 {
		t.Fatalf("NumShards = %d after swap, want 4", got)
	}

	close(gate)
	if err := <-boundsDone; err != nil {
		t.Fatal(err)
	}
	select {
	case <-swapDone:
	case <-time.After(2 * time.Second):
		t.Fatal("Swap never returned after the old topology drained")
	}
	st := f.Describe()
	if st.Generation != 2 {
		t.Fatalf("generation = %d after swap, want 2", st.Generation)
	}
	if len(st.Shards) != 4 {
		t.Fatalf("Describe reports %d shards, want 4", len(st.Shards))
	}
}

// TestFleetRaceSoak hammers one fleet from 40 goroutines mixing bound
// queries, mining, stats reads and topology swaps. Run
// under -race this is the concurrency gate for the coordinator; every
// bound answered during the storm must still be exact.
func TestFleetRaceSoak(t *testing.T) {
	d, err := ossm.GenerateSkewed(ossm.DefaultSkewed(600, 11))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ossm.Build(d, ossm.BuildOptions{Segments: 24, Algorithm: ossm.RandomGreedy, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	shards, err := NewLocalShards(ix, d, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(Config{OnShardOutcome: func(int, string) {}}, Transports(shards))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	sets := randomSets(r, ix.NumItems(), 16)
	want := ix.UpperBoundBatch(sets, nil)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 48)
	fail := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}
	const goroutines = 40
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]int64, len(sets))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch {
				case g == 0: // swapper
					n := 1 + (i % 4)
					ns, err := NewLocalShards(ix, d, n, 0)
					if err != nil {
						fail(err)
						return
					}
					if err := f.Swap(Transports(ns)); err != nil {
						fail(err)
						return
					}
				case g == 1: // stats reader
					f.Describe()
					f.NumShards()
				case g == 2 && i%8 == 0: // occasional miner
					if _, err := f.Mine(context.Background(), MineConfig{Miner: "eclat", MinCount: 25, MaxLen: 2}); err != nil {
						fail(err)
						return
					}
				default: // query traffic
					if err := f.Bounds(context.Background(), sets, out); err != nil {
						fail(err)
						return
					}
					for j := range sets {
						if out[j] != want[j] {
							fail(fmt.Errorf("goroutine %d: bound[%d] = %d, want %d", g, j, out[j], want[j]))
							return
						}
					}
				}
			}
		}(g)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// TestScaleMinCount pins the Partition local-threshold bound.
func TestScaleMinCount(t *testing.T) {
	cases := []struct {
		min          int64
		slice, total int
		want         int64
	}{
		{100, 50, 100, 50},
		{100, 33, 100, 33},
		{100, 34, 100, 34},
		{99, 33, 100, 33}, // ceil(32.67)
		{1, 1, 1000, 1},
		{10, 0, 100, 1}, // floor at 1
	}
	for _, c := range cases {
		if got := scaleMinCount(c.min, c.slice, c.total); got != c.want {
			t.Fatalf("scaleMinCount(%d, %d, %d) = %d, want %d", c.min, c.slice, c.total, got, c.want)
		}
	}
}

// TestFleetMineNoDataset checks the typed failure when shards hold no
// transaction slices.
func TestFleetMineNoDataset(t *testing.T) {
	d, err := ossm.GenerateSkewed(ossm.DefaultSkewed(200, 6))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ossm.Build(d, ossm.BuildOptions{Segments: 8})
	if err != nil {
		t.Fatal(err)
	}
	shards, err := NewLocalShards(ix, nil, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(Config{}, Transports(shards))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Mine(context.Background(), MineConfig{Miner: "eclat", MinCount: 10}); err == nil {
		t.Fatal("mining a dataset-less fleet should fail")
	}
}
