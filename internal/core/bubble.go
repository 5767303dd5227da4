package core

import (
	"sort"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// BubbleList selects the items "on the bubble" (Section 5.3): the items
// whose global supports barely satisfy, and are closest to, the support
// threshold minCount. Restricting the sumdiff summation to these items
// replaces the k log k factor in Greedy's and RC's complexity (the
// paper's k²) with b log b for a b-item bubble, while keeping the
// segmentation focused where OSSM filtering matters most.
//
// Selection order: items with support ≥ minCount, closest-above first;
// if fewer than size such items exist, the list is padded with the items
// just below the threshold, closest-below first. The result is sorted by
// item id. size is clamped to the domain size; size ≤ 0 yields nil
// (callers treat nil as "use all items").
func BubbleList(totals []int64, minCount int64, size int) []dataset.Item {
	if size <= 0 {
		return nil
	}
	k := len(totals)
	if size > k {
		size = k
	}
	above := make([]dataset.Item, 0, k)
	below := make([]dataset.Item, 0, k)
	for i, t := range totals {
		if t >= minCount {
			above = append(above, dataset.Item(i))
		} else {
			below = append(below, dataset.Item(i))
		}
	}
	sort.Slice(above, func(i, j int) bool {
		ti, tj := totals[above[i]], totals[above[j]]
		if ti != tj {
			return ti < tj // barely satisfying first
		}
		return above[i] < above[j]
	})
	sort.Slice(below, func(i, j int) bool {
		ti, tj := totals[below[i]], totals[below[j]]
		if ti != tj {
			return ti > tj // closest below first
		}
		return below[i] < below[j]
	})
	out := make([]dataset.Item, 0, size)
	out = append(out, above[:minInt(size, len(above))]...)
	if len(out) < size {
		out = append(out, below[:size-len(out)]...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// BubbleListFromCounts is BubbleList over per-page rows: it sums the rows
// into global supports first. Convenient when no Map has been built yet.
func BubbleListFromCounts(rows [][]uint32, minCount int64, size int) []dataset.Item {
	if len(rows) == 0 {
		return nil
	}
	totals := make([]int64, len(rows[0]))
	for _, row := range rows {
		for i, c := range row {
			totals[i] += int64(c)
		}
	}
	return BubbleList(totals, minCount, size)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
