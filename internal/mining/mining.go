// Package mining defines the result and statistics types shared by every
// frequent-pattern miner in this repository (Apriori, DHP, Partition,
// FP-growth, DepthProject), so that results are directly comparable and
// the experiment harness can account for candidates uniformly.
package mining

import (
	"fmt"
	"sort"
	"time"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// Counted is a frequent itemset with its exact support count.
type Counted struct {
	Items dataset.Itemset
	Count int64
}

// PassStats records the candidate accounting of one level/pass — the
// quantities behind the paper's figures (candidates generated, pruned by
// the OSSM, actually counted, found frequent).
type PassStats struct {
	K         int
	Generated int
	Pruned    int // discarded by the OSSM bound before counting
	// PrunedHash counts candidates discarded by hash filtering after
	// surviving the OSSM (DHP's bucket test); zero for other miners.
	PrunedHash int
	Counted    int
	Frequent   int
	// TxScanned is the number of transactions scanned while counting this
	// pass (after projection/trimming); zero when the pass counts nothing
	// or the miner cannot attribute scans to a level.
	TxScanned int
	// Elapsed is the wall time of this level. Level-wise miners (Apriori,
	// DHP) time each pass individually; depth-first miners cannot
	// attribute time to a level and leave it zero (the run total lives in
	// Result.Stats.Elapsed).
	Elapsed time.Duration
}

// LevelResult carries the frequent k-itemsets of one level.
type LevelResult struct {
	K        int
	Frequent []Counted
	Stats    PassStats
}

// Result is the common output of a mining run.
type Result struct {
	MinCount int64
	Levels   []LevelResult
	// Stats is the unified run-level accounting envelope (algorithm name,
	// wall time, counting pool size, algorithm-specific extras).
	Stats Stats
}

// All returns every frequent itemset across levels.
func (r *Result) All() []Counted {
	var out []Counted
	for _, l := range r.Levels {
		out = append(out, l.Frequent...)
	}
	return out
}

// NumFrequent returns the total number of frequent itemsets.
func (r *Result) NumFrequent() int {
	n := 0
	for _, l := range r.Levels {
		n += len(l.Frequent)
	}
	return n
}

// Support looks up the support of x among the mined frequent itemsets.
func (r *Result) Support(x dataset.Itemset) (int64, bool) {
	for _, l := range r.Levels {
		if l.K != len(x) {
			continue
		}
		for _, c := range l.Frequent {
			if c.Items.Equal(x) {
				return c.Count, true
			}
		}
	}
	return 0, false
}

// AsMap flattens the result into itemset-key → support, the canonical
// form for cross-miner equality checks.
func (r *Result) AsMap() map[string]int64 {
	out := make(map[string]int64, r.NumFrequent())
	for _, c := range r.All() {
		out[c.Items.Key()] = c.Count
	}
	return out
}

// Level returns the level holding k-itemsets, or nil.
func (r *Result) Level(k int) *LevelResult {
	for i := range r.Levels {
		if r.Levels[i].K == k {
			return &r.Levels[i]
		}
	}
	return nil
}

// Equal reports whether two results contain exactly the same frequent
// itemsets with the same supports.
func (r *Result) Equal(o *Result) bool {
	a, b := r.AsMap(), o.AsMap()
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// FromMap assembles a Result from an itemset-key-free listing of counted
// itemsets, grouping them into levels and sorting each level
// lexicographically. Used by miners (FP-growth, DepthProject) that do not
// naturally work level by level.
func FromMap(minCount int64, found []Counted) *Result {
	byLevel := make(map[int][]Counted)
	maxK := 0
	for _, c := range found {
		k := len(c.Items)
		byLevel[k] = append(byLevel[k], c)
		if k > maxK {
			maxK = k
		}
	}
	res := &Result{MinCount: minCount}
	for k := 1; k <= maxK; k++ {
		freq := byLevel[k]
		if freq == nil {
			continue
		}
		SortCounted(freq)
		res.Levels = append(res.Levels, LevelResult{
			K:        k,
			Frequent: freq,
			Stats:    PassStats{K: k, Frequent: len(freq)},
		})
	}
	return res
}

// SortCounted orders itemsets lexicographically in place.
func SortCounted(cs []Counted) {
	sort.Slice(cs, func(i, j int) bool { return cs[i].Items.Compare(cs[j].Items) < 0 })
}

// MinCountFor converts a relative support threshold (fraction of
// transactions) into an absolute count, rounding up — "support 1%" in the
// paper's sense. The result is at least 1.
func MinCountFor(d *dataset.Dataset, frac float64) int64 {
	c := int64(frac * float64(d.NumTx()))
	if float64(c) < frac*float64(d.NumTx()) {
		c++
	}
	if c < 1 {
		c = 1
	}
	return c
}

// ValidateMinCount rejects non-positive thresholds with a uniform error.
func ValidateMinCount(minCount int64) error {
	if minCount < 1 {
		return fmt.Errorf("mining: minCount must be ≥ 1, got %d", minCount)
	}
	return nil
}
