package remote

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	ossm "github.com/ossm-mining/ossm"
	"github.com/ossm-mining/ossm/internal/obs"
	"github.com/ossm-mining/ossm/internal/shard"
)

// breakerLog records per-shard breaker transitions, race-safely.
type breakerLog struct {
	mu  sync.Mutex
	seq map[int][]BreakerState
}

func newBreakerLog() *breakerLog { return &breakerLog{seq: map[int][]BreakerState{}} }

func (l *breakerLog) hooks() Hooks {
	return Hooks{OnBreaker: func(shardID int, s BreakerState) {
		l.mu.Lock()
		l.seq[shardID] = append(l.seq[shardID], s)
		l.mu.Unlock()
	}}
}

func (l *breakerLog) saw(shardID int, want BreakerState) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.seq[shardID] {
		if s == want {
			return true
		}
	}
	return false
}

func (l *breakerLog) last(shardID int) (BreakerState, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq := l.seq[shardID]
	if len(seq) == 0 {
		return 0, false
	}
	return seq[len(seq)-1], true
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestChaosSoak runs a mixed query/mine/control load against a 4-shard
// remote fleet while faults come and go: latency jitter and a 5% error
// rate on three shards, one shard wedged solid mid-run, a topology swap
// to fresh clients while the wedge is live, then recovery. It asserts
// the three things a chaotic fleet owes its callers: no request gets
// stuck (every worker goroutine joins), no answer is stale or corrupt
// (every success is bit-identical to the unsharded reference), and the
// breaker on the wedged shard walks open -> half-open -> closed once
// the shard heals.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	const numShards = 4
	d, ix := fixture(t, 900, 24, ossm.RandomGreedy, 7)

	// Reference answers, computed unsharded up front.
	r := rand.New(rand.NewSource(41))
	pool := make([][]ossm.Itemset, 16)
	ref := make([][]int64, len(pool))
	for i := range pool {
		pool[i] = randomSets(r, ix.NumItems(), 12)
		ref[i] = make([]int64, len(pool[i]))
		ix.UpperBoundBatch(pool[i], ref[i])
	}
	minCount := ossm.MinCountFor(d, 0.05)
	refMine, err := ossm.MineAt("apriori", d, minCount, ossm.MineOptions{MaxLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	wantMine := map[string]int64{}
	for _, c := range refMine.All() {
		wantMine[c.Items.String()] = c.Count
	}

	// Generation 1 clients, with their own breaker log. The coordinator
	// tracer is shared by the fleet and both client generations, so the
	// post-soak trace verification sees the full scatter → rpc chain.
	coordTracer := obs.NewTracer(8192)
	log1 := newBreakerLog()
	mkCfg := func(l *breakerLog, seed int64) ClientConfig {
		return ClientConfig{
			CallTimeout: 150 * time.Millisecond,
			MaxRetries:  1,
			RetryBase:   time.Millisecond,
			RetryCap:    4 * time.Millisecond,
			Breaker:     BreakerConfig{FailureThreshold: 3, Cooldown: 40 * time.Millisecond},
			Hooks:       l.hooks(),
			Seed:        seed,
			Tracer:      coordTracer,
		}
	}
	rf := startRemoteFleet(t, "retail", ix, d, numShards, mkCfg(log1, 1))
	fl, err := shard.NewFleet(shard.Config{Tracer: coordTracer}, rf.transports())
	if err != nil {
		t.Fatal(err)
	}

	var (
		stop    = make(chan struct{})
		phase   atomic.Int32 // 0 = healthy-ish, 1 = wedged, 2 = recovered
		earlyOK atomic.Int64
		lateOK  atomic.Int64
		mineOK  atomic.Int64
		wg      sync.WaitGroup
	)
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	scoreOne := func() {
		switch phase.Load() {
		case 0:
			earlyOK.Add(1)
		case 2:
			lateOK.Add(1)
		}
	}

	// 32 query goroutines: random pooled batch, tight per-call deadline,
	// every success checked against the precomputed reference.
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(int64(g) + 100))
			for !stopped() {
				i := rr.Intn(len(pool))
				ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
				got := make([]int64, len(pool[i]))
				err := fl.Bounds(ctx, pool[i], got)
				cancel()
				if err != nil {
					continue
				}
				for j := range got {
					if got[j] != ref[i][j] {
						t.Errorf("stale/corrupt bound: batch %d item %d = %d, want %d", i, j, got[j], ref[i][j])
						return
					}
				}
				scoreOne()
			}
		}(g)
	}
	// 6 mine goroutines: full scatter-gather mining under chaos.
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped() {
				ctx, cancel := context.WithTimeout(context.Background(), 600*time.Millisecond)
				res, err := fl.Mine(ctx, shard.MineConfig{Miner: "apriori", MinCount: minCount, MaxLen: 3})
				cancel()
				if err != nil {
					continue
				}
				if len(res.Frequent) != len(wantMine) {
					t.Errorf("mine under chaos: %d itemsets, want %d", len(res.Frequent), len(wantMine))
					return
				}
				for _, c := range res.Frequent {
					if wantMine[c.Items.String()] != c.Count {
						t.Errorf("mine under chaos: support(%v) = %d, want %d", c.Items, c.Count, wantMine[c.Items.String()])
						return
					}
				}
				mineOK.Add(1)
			}
		}()
	}
	// 2 describe goroutines: the control plane must stay responsive.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped() {
				if st := fl.Describe(); len(st.Shards) != numShards {
					t.Errorf("Describe() lists %d shards, want %d", len(st.Shards), numShards)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}

	// Phase 0: mild chaos on shards 0-2 — latency jitter plus 5% errors.
	for i := 0; i < 3; i++ {
		rf.faults[i].SetLatency(0, 3*time.Millisecond)
		rf.faults[i].SetErrorRate(0.05)
	}
	waitFor(t, "successes under mild chaos", 5*time.Second, func() bool { return earlyOK.Load() > 20 })

	// Phase 1: wedge shard 3 solid; its breaker must trip open.
	phase.Store(1)
	rf.faults[numShards-1].SetHung(true)
	waitFor(t, "gen-1 breaker on the wedged shard to open", 5*time.Second, func() bool {
		return log1.saw(numShards-1, BreakerOpen)
	})

	// Mid-soak topology swap: fresh generation-2 clients at the same
	// workers (what a SIGHUP reload does). The wedge is still live, so
	// the new shard-3 client must discover it and trip its own breaker.
	log2 := newBreakerLog()
	gen2 := make([]shard.Transport, numShards)
	for i, srv := range rf.servers {
		c, err := NewClient(i, srv.URL, "retail", mkCfg(log2, 2))
		if err != nil {
			t.Fatal(err)
		}
		gen2[i] = c
	}
	if err := fl.Swap(gen2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "gen-2 breaker on the wedged shard to open", 5*time.Second, func() bool {
		return log2.saw(numShards-1, BreakerOpen)
	})

	// Phase 2: heal the wedge; the gen-2 breaker must walk half-open ->
	// closed, and queries must succeed again.
	rf.faults[numShards-1].SetHung(false)
	waitFor(t, "gen-2 breaker to recover via half-open", 5*time.Second, func() bool {
		last, ok := log2.last(numShards - 1)
		return ok && last == BreakerClosed && log2.saw(numShards-1, BreakerHalfOpen)
	})
	phase.Store(2)
	waitFor(t, "successes after recovery", 5*time.Second, func() bool { return lateOK.Load() > 20 })
	waitFor(t, "at least one successful mine", 5*time.Second, func() bool { return mineOK.Load() > 0 })

	// No stuck requests: everyone joins promptly once asked to stop.
	close(stop)
	joined := make(chan struct{})
	go func() { wg.Wait(); close(joined) }()
	select {
	case <-joined:
	case <-time.After(10 * time.Second):
		t.Fatal("worker goroutines did not join: a request is stuck")
	}

	if mineOK.Load() == 0 {
		t.Error("no mine ever succeeded during the soak")
	}
	t.Logf("soak: earlyOK=%d lateOK=%d mineOK=%d gen1(shard3)=%v gen2(shard3)=%v",
		earlyOK.Load(), lateOK.Load(), mineOK.Load(), log1.seq[numShards-1], log2.seq[numShards-1])

	// Trace verification: with every fault cleared, a handful of traced
	// scatters must each assemble into a tree carrying, for every
	// (non-faulted) shard, at least one worker serve span correctly
	// parented under that shard's RPC span — the cross-process propagation
	// survived the chaos, the swap and the recovery.
	for _, f := range rf.faults {
		f.SetHung(false)
		f.SetErrorRate(0)
		f.SetLatency(0, 0)
	}
	const verifyRounds = 5
	var baseline []int64
	for _, wt := range rf.tracers {
		_, _, total, _ := wt.Stats()
		baseline = append(baseline, total)
	}
	for round := 0; round < verifyRounds; round++ {
		ctx, scatter := coordTracer.Start(context.Background(), "chaos-verify-scatter")
		ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		got := make([]int64, len(pool[0]))
		err := fl.Bounds(ctx, pool[0], got)
		cancel()
		scatter.End()
		if err != nil {
			t.Fatalf("verify round %d: %v", round, err)
		}
	}
	// The worker records its serve span after the response is on the
	// wire, so the last round's spans may land a beat after Bounds
	// returns.
	for i, wt := range rf.tracers {
		i, wt := i, wt
		waitFor(t, "worker serve spans to land", 5*time.Second, func() bool {
			_, _, total, _ := wt.Stats()
			return total >= baseline[i]+verifyRounds
		})
	}
	spans := coordTracer.Snapshot()
	for _, wt := range rf.tracers {
		spans = append(spans, wt.Snapshot()...)
	}
	verified := 0
	for _, root := range obs.BuildTraces(spans, 0) {
		if root.Name != "chaos-verify-scatter" {
			continue
		}
		verified++
		shardsLinked := map[int]bool{}
		var walk func(n *obs.TraceNode)
		walk = func(n *obs.TraceNode) {
			if n.Name == "rpc-bounds" {
				id, _ := n.Attrs["shard"].(int)
				for _, c := range n.Children {
					if c.Name == "serve /shard/v1/bounds" {
						if c.ParentID != n.SpanID || c.TraceID != root.TraceID {
							t.Errorf("serve span misparented: parent %s != rpc %s", c.ParentID, n.SpanID)
						}
						shardsLinked[id] = true
					}
				}
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(root)
		if len(shardsLinked) != numShards {
			t.Errorf("scatter %s links worker spans for %d/%d shards: %v",
				root.TraceID, len(shardsLinked), numShards, shardsLinked)
		}
	}
	if verified != verifyRounds {
		t.Errorf("assembled %d chaos-verify-scatter trees, want %d", verified, verifyRounds)
	}
}
