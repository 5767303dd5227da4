package remote

import (
	"context"
	"math/rand"
	"testing"

	ossm "github.com/ossm-mining/ossm"
	"github.com/ossm-mining/ossm/internal/shard"
)

// TestRemoteBoundsDifferential pins the remote fleet's answers to the
// local fleet's and the unsharded index's, bit for bit, across every
// segmenter and uneven shard counts. The partition is lossless by
// construction (the OSSM bound is a sum of per-segment terms), and the
// wire must not break that: JSON carries int64 supports exactly, and
// merging is the same int64 addition in shard order.
func TestRemoteBoundsDifferential(t *testing.T) {
	algos := []struct {
		name string
		algo ossm.Algorithm
	}{
		{"Random", ossm.Random},
		{"RC", ossm.RC},
		{"Greedy", ossm.Greedy},
		{"RandomRC", ossm.RandomRC},
		{"RandomGreedy", ossm.RandomGreedy},
	}
	// 26 segments over {1, 3, 4, 7} shards: every count but 1 divides
	// unevenly, so leading shards own one segment more than trailing ones.
	counts := []int{1, 3, 4, 7}
	for _, tc := range algos {
		t.Run(tc.name, func(t *testing.T) {
			d, ix := fixture(t, 1500, 26, tc.algo, 11)
			r := rand.New(rand.NewSource(29))
			sets := randomSets(r, ix.NumItems(), 96)
			want := make([]int64, len(sets))
			ix.UpperBoundBatch(sets, want)

			for _, n := range counts {
				locals, err := shard.NewLocalShards(ix, d, n, 0)
				if err != nil {
					t.Fatal(err)
				}
				localFleet, err := shard.NewFleet(shard.Config{}, shard.Transports(locals))
				if err != nil {
					t.Fatal(err)
				}
				rf := startRemoteFleet(t, "retail", ix, d, n, ClientConfig{})
				remoteFleet, err := shard.NewFleet(shard.Config{}, rf.transports())
				if err != nil {
					t.Fatal(err)
				}

				gotLocal := make([]int64, len(sets))
				if err := localFleet.Bounds(context.Background(), sets, gotLocal); err != nil {
					t.Fatalf("%d shards local: %v", n, err)
				}
				gotRemote := make([]int64, len(sets))
				if err := remoteFleet.Bounds(context.Background(), sets, gotRemote); err != nil {
					t.Fatalf("%d shards remote: %v", n, err)
				}
				for i := range sets {
					if gotLocal[i] != want[i] {
						t.Fatalf("%s/%d shards: local fleet bound[%d] = %d, unsharded %d (itemset %v)",
							tc.name, n, i, gotLocal[i], want[i], sets[i])
					}
					if gotRemote[i] != want[i] {
						t.Fatalf("%s/%d shards: remote fleet bound[%d] = %d, unsharded %d (itemset %v)",
							tc.name, n, i, gotRemote[i], want[i], sets[i])
					}
				}
			}
		})
	}
}

// TestRemoteMineDifferential pins the remote fleet's scatter-gather
// mining answers to a single-node reference mine and to the local
// fleet: same itemsets, same exact supports.
func TestRemoteMineDifferential(t *testing.T) {
	d, ix := fixture(t, 1200, 24, ossm.RandomGreedy, 5)
	minCount := ossm.MinCountFor(d, 0.04)
	ref, err := ossm.MineAt("apriori", d, minCount, ossm.MineOptions{MaxLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{}
	for _, c := range ref.All() {
		want[c.Items.String()] = c.Count
	}

	for _, n := range []int{1, 3, 4} {
		locals, err := shard.NewLocalShards(ix, d, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		localFleet, err := shard.NewFleet(shard.Config{}, shard.Transports(locals))
		if err != nil {
			t.Fatal(err)
		}
		rf := startRemoteFleet(t, "retail", ix, d, n, ClientConfig{})
		remoteFleet, err := shard.NewFleet(shard.Config{}, rf.transports())
		if err != nil {
			t.Fatal(err)
		}
		for fleetName, fl := range map[string]*shard.Fleet{"local": localFleet, "remote": remoteFleet} {
			res, err := fl.Mine(context.Background(), shard.MineConfig{
				Miner: "apriori", MinCount: minCount, MaxLen: 3,
			})
			if err != nil {
				t.Fatalf("%s fleet of %d: Mine: %v", fleetName, n, err)
			}
			if len(res.Frequent) != len(want) {
				t.Fatalf("%s fleet of %d: %d frequent itemsets, reference has %d",
					fleetName, n, len(res.Frequent), len(want))
			}
			for _, c := range res.Frequent {
				if want[c.Items.String()] != c.Count {
					t.Fatalf("%s fleet of %d: support(%v) = %d, reference %d",
						fleetName, n, c.Items, c.Count, want[c.Items.String()])
				}
			}
		}
	}
}

// TestRemoteSupportsDifferential pins the gather phase's partial
// supports: summed over the remote fleet they must equal the dataset's
// exact supports.
func TestRemoteSupportsDifferential(t *testing.T) {
	d, ix := fixture(t, 1000, 20, ossm.RC, 13)
	r := rand.New(rand.NewSource(31))
	cands := randomSets(r, ix.NumItems(), 40)

	rf := startRemoteFleet(t, "retail", ix, d, 3, ClientConfig{})
	sum := make([]int64, len(cands))
	for _, c := range rf.clients {
		part := make([]int64, len(cands))
		if err := c.PartialSupports(context.Background(), cands, part); err != nil {
			t.Fatal(err)
		}
		for i := range sum {
			sum[i] += part[i]
		}
	}
	for i, x := range cands {
		if want := int64(d.Support(x)); sum[i] != want {
			t.Fatalf("summed support(%v) = %d, dataset says %d", x, sum[i], want)
		}
	}
}
