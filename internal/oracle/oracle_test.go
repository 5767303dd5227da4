package oracle

import (
	"math/rand"
	"testing"

	"github.com/ossm-mining/ossm/internal/core"
	"github.com/ossm-mining/ossm/internal/dataset"
)

// TestMineTiny hand-checks the oracle on a dataset small enough to
// enumerate by eye.
func TestMineTiny(t *testing.T) {
	d := dataset.MustFromTransactions(3, [][]dataset.Item{
		{0, 1}, {0, 1, 2}, {0, 2}, {1},
	})
	res, err := Mine(d, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"0": 3, "1": 3, "2": 2, "0,1": 2, "0,2": 2}
	all := res.All()
	if len(all) != len(want) {
		t.Fatalf("mined %d itemsets, want %d: %v", len(all), len(want), all)
	}
	for _, c := range all {
		if want[c.Items.Key()] != c.Count {
			t.Errorf("%v: count %d, want %d", c.Items, c.Count, want[c.Items.Key()])
		}
	}
}

func TestMineRespectsMaxLen(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	d := RandomDataset(r, 8, 40, 0.4)
	res, err := Mine(d, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.All() {
		if len(c.Items) > 2 {
			t.Fatalf("itemset %v exceeds MaxLen 2", c.Items)
		}
	}
}

// TestUpperBoundSoundnessProperty is the paper's core invariant (eq. 1):
// for every itemset X and every segmentation, ubsup(X) ≥ sup(X) — the
// segment-wise sum of minima can never under-estimate true support. It
// also checks the two companion properties: the bound is exact on
// singletons, and never looser than the segment-free naive bound.
func TestUpperBoundSoundnessProperty(t *testing.T) {
	algs := []core.Algorithm{core.AlgRandom, core.AlgRC, core.AlgGreedy, core.AlgRandomRC, core.AlgRandomGreedy}
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		numItems := 4 + r.Intn(10)
		numTx := 10 + r.Intn(80)
		density := 0.1 + 0.6*r.Float64()
		d := RandomDataset(r, numItems, numTx, density)
		pages := 1 + r.Intn(numTx)
		rows := dataset.PageCounts(d, dataset.PaginateN(d, pages))
		for _, alg := range algs {
			target := 1 + r.Intn(pages)
			seg, err := core.Segment(rows, core.Options{
				Algorithm:      alg,
				TargetSegments: target,
				MidSegments:    (pages + target) / 2,
				Seed:           int64(trial),
			})
			if err != nil {
				t.Fatalf("trial %d alg %v: %v", trial, alg, err)
			}
			m := seg.Map
			for probe := 0; probe < 40; probe++ {
				x := RandomItemset(r, numItems, 4)
				sup := int64(d.Support(x))
				ub := m.UpperBound(x)
				if ub < sup {
					t.Fatalf("trial %d alg %v: ubsup(%v) = %d < sup = %d (segments=%d)",
						trial, alg, x, ub, sup, m.NumSegments())
				}
				naive := m.ItemSupport(x[0])
				for _, it := range x[1:] {
					naive = min(naive, m.ItemSupport(it))
				}
				if ub > naive {
					t.Fatalf("trial %d alg %v: ubsup(%v) = %d looser than naive bound %d",
						trial, alg, x, ub, naive)
				}
				if len(x) == 1 && ub != sup {
					t.Fatalf("trial %d alg %v: singleton bound %d ≠ exact support %d for %v",
						trial, alg, ub, sup, x)
				}
			}
		}
	}
}

func TestRandomItemsetWellFormed(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		x := RandomItemset(r, 12, 5)
		if len(x) < 1 || len(x) > 5 {
			t.Fatalf("size %d out of range", len(x))
		}
		for j := 1; j < len(x); j++ {
			if x[j] <= x[j-1] {
				t.Fatalf("itemset %v not strictly ascending", x)
			}
		}
	}
}
