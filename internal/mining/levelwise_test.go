package mining

import (
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// joined is one AprioriGen output: a candidate and its parents' indices.
type joined struct {
	cand dataset.Itemset
	a, b int
}

// itemsetOf lists the items of a bitmask over a small domain, ascending.
func itemsetOf(mask uint) dataset.Itemset {
	var out dataset.Itemset
	for it := 0; mask != 0; it++ {
		if mask&1 != 0 {
			out = append(out, dataset.Item(it))
		}
		mask >>= 1
	}
	return out
}

// aprioriGenOracle enumerates every k-set of the domain all of whose
// (k−1)-subsets are in level, in lexicographic order, with the indices of
// the parents AprioriGen must name: the candidate without its last item,
// then without its second-to-last.
func aprioriGenOracle(level []dataset.Itemset, domain, k int) []joined {
	index := make(map[string]int, len(level))
	for i, x := range level {
		index[x.Key()] = i
	}
	var out []joined
	for mask := uint(0); mask < 1<<domain; mask++ {
		if bits.OnesCount(mask) != k {
			continue
		}
		cand := itemsetOf(mask)
		ok := true
		for i := range cand {
			if _, in := index[cand.Without(i).Key()]; !in {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, joined{cand, index[cand.Without(k-1).Key()], index[cand.Without(k-2).Key()]})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].cand.Compare(out[j].cand) < 0 })
	return out
}

// TestAprioriGenMatchesOracle compares the shared join on random sorted
// levels against exhaustive enumeration: the same candidates, in the
// same lexicographic order, with the right parent indices. Dense levels
// exercise the subset prune, which no miner's answers can reveal (a
// candidate with an infrequent subset is never frequent).
func TestAprioriGenMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		domain := 3 + r.Intn(7)
		k := 2 + r.Intn(min(4, domain-1))
		density := []float64{0.3, 0.6, 0.9}[trial%3]
		var level []dataset.Itemset
		for mask := uint(0); mask < 1<<domain; mask++ {
			if bits.OnesCount(mask) == k-1 && r.Float64() < density {
				level = append(level, itemsetOf(mask))
			}
		}
		sort.Slice(level, func(i, j int) bool { return level[i].Compare(level[j]) < 0 })
		snapshot := make([]dataset.Itemset, len(level))
		for i, x := range level {
			snapshot[i] = x.Clone()
		}

		var got []joined
		AprioriGen(level, func(cand dataset.Itemset, a, b int) {
			got = append(got, joined{cand, a, b})
		})
		want := aprioriGenOracle(level, domain, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d (domain %d, k %d, |level| %d): %d candidates, want %d:\n got %v\nwant %v",
				trial, domain, k, len(level), len(got), len(want), got, want)
		}
		for i := range want {
			g, w := got[i], want[i]
			if !g.cand.Equal(w.cand) || g.a != w.a || g.b != w.b {
				t.Fatalf("trial %d: candidate %d = %v from (%d, %d), want %v from (%d, %d)",
					trial, i, g.cand, g.a, g.b, w.cand, w.a, w.b)
			}
		}
		// Every candidate is a fresh slice: overwriting them leaves the
		// level intact.
		for _, g := range got {
			for i := range g.cand {
				g.cand[i] = 1 << 30
			}
		}
		for i, x := range level {
			if !x.Equal(snapshot[i]) {
				t.Fatalf("trial %d: level[%d] changed to %v, was %v", trial, i, x, snapshot[i])
			}
		}
	}
}

// TestAprioriGenPrunesMissingSubsets pins the textbook case: {1,2,3} and
// {1,2,4} join into {1,2,3,4}, whose subset {1,3,4} is missing.
func TestAprioriGenPrunesMissingSubsets(t *testing.T) {
	level := []dataset.Itemset{dataset.NewItemset(1, 2, 3), dataset.NewItemset(1, 2, 4)}
	AprioriGen(level, func(cand dataset.Itemset, _, _ int) {
		t.Errorf("AprioriGen yielded %v, want nothing (subset prune)", cand)
	})
	level = []dataset.Itemset{
		dataset.NewItemset(1, 2), dataset.NewItemset(1, 3),
		dataset.NewItemset(2, 3), dataset.NewItemset(2, 4),
	}
	var got []joined
	AprioriGen(level, func(cand dataset.Itemset, a, b int) { got = append(got, joined{cand, a, b}) })
	if len(got) != 1 || !got[0].cand.Equal(dataset.NewItemset(1, 2, 3)) || got[0].a != 0 || got[0].b != 1 {
		t.Errorf("AprioriGen = %v, want [{1,2,3} from (0, 1)]", got)
	}
}
