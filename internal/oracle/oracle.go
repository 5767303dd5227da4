// Package oracle provides the trusted references the engine's
// correctness tests are anchored to: a brute-force frequent-itemset miner
// whose only optimization is the anti-monotone recursion (no OSSM, no
// hash filtering, no projection — every support is an exact scan),
// randomized dataset/itemset generators for property and differential
// testing, and a Prometheus text-exposition linter (Lint) for the
// metrics the server writes. Nothing here is fast; everything here is
// obviously correct. No binary links this package.
package oracle

import (
	"math/rand"
	"sort"

	"github.com/ossm-mining/ossm/internal/dataset"
	"github.com/ossm-mining/ossm/internal/mining"
)

// Mine enumerates every frequent itemset of d at the absolute threshold
// minCount by depth-first extension, counting each candidate with an
// exact full scan (dataset.Support). maxLen bounds itemset size (0 =
// unlimited). The result carries the same level structure as the engine
// miners, so mining.Result.Equal compares directly.
func Mine(d *dataset.Dataset, minCount int64, maxLen int) (*mining.Result, error) {
	if err := mining.ValidateMinCount(minCount); err != nil {
		return nil, err
	}
	var items []dataset.Item
	for it := 0; it < d.NumItems(); it++ {
		items = append(items, dataset.Item(it))
	}
	var found []mining.Counted
	var grow func(prefix dataset.Itemset, sup int64, exts []dataset.Item)
	grow = func(prefix dataset.Itemset, sup int64, exts []dataset.Item) {
		if len(prefix) > 0 {
			found = append(found, mining.Counted{Items: append(dataset.Itemset{}, prefix...), Count: sup})
		}
		if maxLen != 0 && len(prefix) >= maxLen {
			return
		}
		for i, x := range exts {
			cand := append(append(dataset.Itemset{}, prefix...), x)
			// Anti-monotonicity is the one shortcut: an infrequent prefix
			// cannot have a frequent extension.
			c := int64(d.Support(cand))
			if c >= minCount {
				grow(cand, c, exts[i+1:])
			}
		}
	}
	grow(nil, 0, items)
	res := mining.FromMap(minCount, found)
	res.Stats = mining.Stats{Algorithm: "oracle", Workers: 1}
	return res, nil
}

// RandomDataset draws a dataset with numItems items and numTx
// transactions; each transaction includes each item independently with
// probability density. Transactions may be empty — the engine must cope.
func RandomDataset(r *rand.Rand, numItems, numTx int, density float64) *dataset.Dataset {
	b := dataset.NewBuilder(numItems)
	for i := 0; i < numTx; i++ {
		var tx []dataset.Item
		for it := 0; it < numItems; it++ {
			if r.Float64() < density {
				tx = append(tx, dataset.Item(it))
			}
		}
		if err := b.Append(tx); err != nil {
			panic(err) // items are in-range and ascending by construction
		}
	}
	return b.Build()
}

// RandomItemset draws a random itemset of size 1..maxSize over numItems
// items (sorted, duplicate-free).
func RandomItemset(r *rand.Rand, numItems, maxSize int) dataset.Itemset {
	if maxSize > numItems {
		maxSize = numItems
	}
	size := 1 + r.Intn(maxSize)
	picked := make(map[int]bool, size)
	for len(picked) < size {
		picked[r.Intn(numItems)] = true
	}
	out := make(dataset.Itemset, 0, size)
	for it := range picked {
		out = append(out, dataset.Item(it))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
