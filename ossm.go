// Package ossm is the public face of this repository: a Go implementation
// of the Optimized Segment Support Map of Leung, Ng and Mannila (ICDE
// 2002) together with the frequent-pattern mining substrate it
// accelerates.
//
// The OSSM is a light-weight, query-independent index: the transaction
// collection is partitioned into n segments and, for every item, the
// per-segment singleton support is recorded. For any itemset X the map
// yields an upper bound on sup(X) (the sum over segments of the minimum
// member support), which candidate-generating miners use to discard
// candidates before paying for a counting pass.
//
// Typical use:
//
//	d, _ := ossm.LoadDataset("retail.txt")
//	ix, _ := ossm.Build(d, ossm.BuildOptions{Segments: 40})
//	res, _ := ossm.MineApriori(d, 0.01, ix)
//
// The same index serves every later query, at any support threshold —
// segmentation is a one-time "compile-time" cost.
package ossm

import (
	"fmt"
	"time"

	"github.com/ossm-mining/ossm/internal/apriori"
	"github.com/ossm-mining/ossm/internal/core"
	"github.com/ossm-mining/ossm/internal/dataset"
	"github.com/ossm-mining/ossm/internal/dhp"
	"github.com/ossm-mining/ossm/internal/mining"
)

// Re-exported substrate types. Aliases keep the implementation in
// internal packages while giving callers nameable types.
type (
	// Item identifies a domain item (dense ids 0 … k−1).
	Item = dataset.Item
	// Itemset is a strictly ascending set of items.
	Itemset = dataset.Itemset
	// Dataset is an immutable transaction collection.
	Dataset = dataset.Dataset
	// DatasetBuilder accumulates transactions.
	DatasetBuilder = dataset.Builder
	// Page identifies a contiguous run of transactions.
	Page = dataset.Page
	// Map is the optimized segment support map itself.
	Map = core.Map
	// Pruner applies a Map to candidate filtering at one threshold.
	Pruner = core.Pruner
	// Algorithm selects a segmentation heuristic.
	Algorithm = core.Algorithm
	// Scenario feeds the recommended recipe (paper Figure 7).
	Scenario = core.Scenario
	// Recommendation is the recipe's output.
	Recommendation = core.Recommendation
	// Result is the common output of every miner.
	Result = mining.Result
	// Counted is a frequent itemset with its support.
	Counted = mining.Counted
)

// Segmentation algorithms (paper Section 5).
const (
	Random       = core.AlgRandom
	RC           = core.AlgRC
	Greedy       = core.AlgGreedy
	RandomRC     = core.AlgRandomRC
	RandomGreedy = core.AlgRandomGreedy
)

// NewItemset builds an Itemset from arbitrary items, sorting and
// de-duplicating them.
func NewItemset(items ...Item) Itemset { return dataset.NewItemset(items...) }

// NewDatasetBuilder returns a builder for a domain of numItems items.
func NewDatasetBuilder(numItems int) *DatasetBuilder { return dataset.NewBuilder(numItems) }

// FromTransactions builds a Dataset from literal transactions.
func FromTransactions(numItems int, txs [][]Item) (*Dataset, error) {
	return dataset.FromTransactions(numItems, txs)
}

// LoadDataset reads a dataset from disk (text for .txt/.dat, binary
// otherwise).
func LoadDataset(path string) (*Dataset, error) { return dataset.LoadFile(path) }

// SaveDataset writes a dataset to disk (format chosen by extension, as in
// LoadDataset).
func SaveDataset(path string, d *Dataset) error { return dataset.SaveFile(path, d) }

// Recommend picks a segmentation algorithm for a scenario, per the
// paper's recommended recipe (Figure 7).
func Recommend(s Scenario) Recommendation { return core.Recommend(s) }

// NewMap builds a Map directly from per-segment singleton supports
// (rows[s][item]). Most callers should Build an Index from a dataset
// instead; NewMap serves tests, tooling and hand-authored examples.
func NewMap(segCounts [][]uint32) (*Map, error) { return core.NewMap(segCounts) }

// BuildOptions configures Build. The zero value is usable: it paginates
// at roughly 100 transactions per page and runs the Random algorithm
// down to 40 segments; pick RandomGreedy or RandomRC (per Recommend) for
// higher-quality segmentations.
type BuildOptions struct {
	// Pages is the number of initial pages m (0 ⇒ ~100 tx per page).
	Pages int
	// Segments is n_user, the segment budget (0 ⇒ 40).
	Segments int
	// Algorithm is the segmentation heuristic (zero value: Random).
	Algorithm Algorithm
	// MidSegments is n_mid for the hybrid strategies (0 ⇒
	// min(Pages, max(Segments, 200))).
	MidSegments int
	// BubbleSize, when positive, restricts the sumdiff computation to
	// that many items "on the bubble" around BubbleMinSupport.
	BubbleSize int
	// BubbleMinSupport is the relative support threshold the bubble list
	// is formed at (default 0.01; the resulting index still serves any
	// query threshold).
	BubbleMinSupport float64
	// Seed drives the randomized phases.
	Seed int64
}

// Index is a built OSSM over a specific dataset: the Map plus the
// bookkeeping needed to reuse and report it.
type Index struct {
	m          *core.Map
	pages      []dataset.Page
	assignment [][]int
	elapsed    time.Duration
	numTx      int
}

// ErrCountOverflow is returned by Build, Appender.Add and
// Appender.Snapshot when merging pages or segments would push a segment
// support cell past 2³²−1; a wrapped cell would under-state ubsup.
var ErrCountOverflow = core.ErrCountOverflow

// Build paginates d, runs the configured segmentation, and returns the
// resulting index.
func Build(d *Dataset, opts BuildOptions) (*Index, error) {
	if d.NumTx() == 0 {
		return nil, fmt.Errorf("ossm: cannot build an index over an empty dataset")
	}
	mPages := opts.Pages
	if mPages == 0 {
		mPages = (d.NumTx() + 99) / 100
	}
	if mPages > d.NumTx() {
		mPages = d.NumTx()
	}
	segments := opts.Segments
	if segments == 0 {
		segments = 40
	}
	alg := opts.Algorithm
	mid := opts.MidSegments
	if mid == 0 {
		mid = 200
		if mid < segments {
			mid = segments
		}
		if mid > mPages {
			mid = mPages
		}
	}
	pages := dataset.PaginateN(d, mPages)
	rows := dataset.PageCounts(d, pages)
	var bubble []Item
	if opts.BubbleSize > 0 {
		frac := opts.BubbleMinSupport
		if frac == 0 {
			frac = 0.01
		}
		bubble = core.BubbleListFromCounts(rows, mining.MinCountFor(d, frac), opts.BubbleSize)
	}
	res, err := core.Segment(rows, core.Options{
		Algorithm:      alg,
		TargetSegments: segments,
		MidSegments:    mid,
		Bubble:         bubble,
		Seed:           opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Index{
		m:          res.Map,
		pages:      pages,
		assignment: res.Assignment,
		elapsed:    res.Elapsed,
		numTx:      d.NumTx(),
	}, nil
}

// Map exposes the underlying segment support map.
func (ix *Index) Map() *Map { return ix.m }

// NumTx returns the number of transactions the index was built over (the
// denominator of relative support thresholds).
func (ix *Index) NumTx() int { return ix.numTx }

// NumItems returns the size of the item domain the index covers; itemsets
// with items at or beyond this bound are outside the index's domain.
func (ix *Index) NumItems() int { return ix.m.NumItems() }

// UpperBound returns the OSSM upper bound on sup(x).
func (ix *Index) UpperBound(x Itemset) int64 { return ix.m.UpperBound(x) }

// UpperBoundBatch evaluates the OSSM upper bound for every itemset in
// sets, one UpperBound column walk per set. The bounds land in out
// (grown as needed) and equal per-set UpperBound calls exactly.
func (ix *Index) UpperBoundBatch(sets []Itemset, out []int64) []int64 {
	return ix.m.UpperBoundBatch(sets, out)
}

// NumSegments returns the built segment count.
func (ix *Index) NumSegments() int { return ix.m.NumSegments() }

// SegmentRange returns an Index view over the contiguous segment range
// [lo, hi): the slicing primitive behind sharded serving. The view
// holds a copy of the parent's cells over the range and answers every
// bound query over its range only, so for any partition of
// [0, NumSegments()) the per-range bounds sum to the parent's bound
// exactly (eq. 1 is a sum over segments). Views report the parent's
// NumTx — a shard still scales relative thresholds against the whole
// collection — and are serving-only: they carry no page assignment and
// are not meant to be persisted.
func (ix *Index) SegmentRange(lo, hi int) (*Index, error) {
	m, err := ix.m.SegmentRange(lo, hi)
	if err != nil {
		return nil, err
	}
	return &Index{m: m, elapsed: ix.elapsed, numTx: ix.numTx}, nil
}

// SizeBytes reports the index footprint.
func (ix *Index) SizeBytes() int { return ix.m.SizeBytes() }

// SegmentationTime reports the one-time build cost.
func (ix *Index) SegmentationTime() time.Duration { return ix.elapsed }

// Pruner derives a candidate filter at a relative support threshold.
func (ix *Index) Pruner(minSupport float64) *Pruner {
	return &core.Pruner{Map: ix.m, MinCount: ix.minCount(minSupport)}
}

// PrunerAt derives a candidate filter at an absolute support count.
func (ix *Index) PrunerAt(minCount int64) *Pruner {
	return &core.Pruner{Map: ix.m, MinCount: minCount}
}

func (ix *Index) minCount(frac float64) int64 {
	c := int64(frac * float64(ix.numTx))
	if float64(c) < frac*float64(ix.numTx) {
		c++
	}
	if c < 1 {
		c = 1
	}
	return c
}

// indexFilter derives the candidate filter an Index contributes at an
// absolute threshold; a nil index means no pruning.
func indexFilter(ix *Index, minCount int64) Filter {
	if ix == nil {
		return nil
	}
	return ix.PrunerAt(minCount)
}

// MineApriori mines frequent itemsets with Apriori at the given relative
// support threshold. ix may be nil (plain Apriori, the paper's baseline).
func MineApriori(d *Dataset, minSupport float64, ix *Index) (*Result, error) {
	minCount := mining.MinCountFor(d, minSupport)
	return MineAt(apriori.Name, d, minCount, MineOptions{Filter: indexFilter(ix, minCount)})
}

// MineDHP mines frequent itemsets with DHP (hash filtering + transaction
// trimming) at the given relative support threshold. ix may be nil.
func MineDHP(d *Dataset, minSupport float64, ix *Index) (*Result, error) {
	minCount := mining.MinCountFor(d, minSupport)
	return MineAt(dhp.Name, d, minCount, MineOptions{Filter: indexFilter(ix, minCount)})
}

// MinCountFor converts a relative support threshold into an absolute
// count for d (rounded up, at least 1).
func MinCountFor(d *Dataset, minSupport float64) int64 {
	return mining.MinCountFor(d, minSupport)
}
