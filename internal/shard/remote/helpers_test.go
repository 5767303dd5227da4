package remote

import (
	"math/rand"
	"net/http/httptest"
	"testing"

	ossm "github.com/ossm-mining/ossm"
	"github.com/ossm-mining/ossm/internal/obs"
	"github.com/ossm-mining/ossm/internal/shard"
)

// fixture builds a deterministic dataset and an index over it.
func fixture(t testing.TB, numTx int, segments int, algo ossm.Algorithm, seed int64) (*ossm.Dataset, *ossm.Index) {
	t.Helper()
	d, err := ossm.GenerateSkewed(ossm.DefaultSkewed(numTx, seed))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ossm.Build(d, ossm.BuildOptions{Segments: segments, Algorithm: algo, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return d, ix
}

// remoteFleet is a loopback remote fleet: one httptest worker process
// stand-in per shard, each serving its slice of the same index, plus
// the clients pointed at them.
type remoteFleet struct {
	servers []*httptest.Server
	faults  []*Fault // worker-side fault decorators, one per shard
	clients []*Client
	tracers []*obs.Tracer // worker-side span rings, one per shard
}

func (rf *remoteFleet) transports() []shard.Transport {
	out := make([]shard.Transport, len(rf.clients))
	for i, c := range rf.clients {
		out[i] = c
	}
	return out
}

// startRemoteFleet slices (ix, d) into n shards, serves each from its
// own httptest worker (wrapped in a Fault decorator so tests can break
// it), and returns clients built with cfg. Slicing uses the same
// deterministic partition the coordinator assumes, so shard i's worker
// owns exactly the range client i expects.
func startRemoteFleet(t testing.TB, name string, ix *ossm.Index, d *ossm.Dataset, n int, cfg ClientConfig) *remoteFleet {
	t.Helper()
	locals, err := shard.NewLocalShards(ix, d, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	rf := &remoteFleet{}
	for i, tr := range shard.Transports(locals) {
		f := NewFault(tr, int64(i)+1)
		w := NewWorker()
		wt := obs.NewTracer(4096)
		w.SetObs(nil, wt)
		if err := w.Add(name, f, ix.NumSegments(), ix.NumItems()); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		c, err := NewClient(i, srv.URL, name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rf.servers = append(rf.servers, srv)
		rf.faults = append(rf.faults, f)
		rf.clients = append(rf.clients, c)
		rf.tracers = append(rf.tracers, wt)
	}
	return rf
}

// randomSets draws n itemsets of 1–3 items from the index domain.
func randomSets(r *rand.Rand, numItems, n int) []ossm.Itemset {
	sets := make([]ossm.Itemset, n)
	for i := range sets {
		k := 1 + r.Intn(3)
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
