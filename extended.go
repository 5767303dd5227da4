package ossm

import (
	"fmt"

	"github.com/ossm-mining/ossm/internal/apriori"
	"github.com/ossm-mining/ossm/internal/core"
)

// Filter is the candidate-filtering contract every miner accepts; both
// the plain OSSM pruner and the extended pruner implement it.
type Filter = core.Filter

// ExtendedIndex is the generalized OSSM of the paper's footnote 3: on
// top of per-segment singleton supports it stores exact per-segment
// supports of 2-itemsets over a tracked subset of items. Tracked pairs
// are answered exactly (no counting pass at all); bounds on larger
// itemsets tighten accordingly.
type ExtendedIndex struct {
	e     *core.ExtendedMap
	numTx int
}

// Extend upgrades a freshly built index to an ExtendedIndex tracking the
// given items (pass the bubble list, the frequent items, or any subset
// whose candidates dominate counting cost). It requires the dataset the
// index was built from and one extra scan of it. Indexes restored by
// LoadIndex carry no page assignment and cannot be extended.
func (ix *Index) Extend(d *Dataset, tracked []Item) (*ExtendedIndex, error) {
	if ix.pages == nil || ix.assignment == nil {
		return nil, fmt.Errorf("ossm: Extend requires an index built in this process (LoadIndex drops the page assignment)")
	}
	if d.NumTx() != ix.numTx {
		return nil, fmt.Errorf("ossm: dataset has %d transactions, index was built over %d", d.NumTx(), ix.numTx)
	}
	e, err := core.BuildExtended(d, ix.pages, ix.assignment, tracked)
	if err != nil {
		return nil, err
	}
	return &ExtendedIndex{e: e, numTx: ix.numTx}, nil
}

// Tracked returns the tracked items.
func (xi *ExtendedIndex) Tracked() []Item { return xi.e.Tracked() }

// UpperBound returns the tightened bound on sup(x).
func (xi *ExtendedIndex) UpperBound(x Itemset) int64 { return xi.e.UpperBound(x) }

// PairSupport returns the exact support of a tracked pair (ok=false if
// either item is untracked).
func (xi *ExtendedIndex) PairSupport(a, b Item) (int64, bool) { return xi.e.PairSupport(a, b) }

// SizeBytes reports the footprint including the pair matrix.
func (xi *ExtendedIndex) SizeBytes() int { return xi.e.SizeBytes() }

// Pruner derives a candidate filter at a relative support threshold.
func (xi *ExtendedIndex) Pruner(minSupport float64) Filter {
	c := int64(minSupport * float64(xi.numTx))
	if float64(c) < minSupport*float64(xi.numTx) {
		c++
	}
	if c < 1 {
		c = 1
	}
	return xi.e.Pruner(c)
}

// MineAprioriFiltered mines with an arbitrary candidate filter (e.g. an
// ExtendedIndex pruner). f may be nil.
func MineAprioriFiltered(d *Dataset, minSupport float64, f Filter) (*Result, error) {
	return Mine(apriori.Name, d, minSupport, MineOptions{Filter: f})
}
