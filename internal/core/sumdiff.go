package core

import "github.com/ossm-mining/ossm/internal/dataset"

// sumdiff (equation 2) quantifies the loss of accuracy incurred by
// merging segments: for every pair of items {x, y} it compares the upper
// bound on sup({x, y}) with the segments merged into one against the
// bound with the segments kept separate, and sums the differences. It is
// zero exactly when all segments share a configuration (Lemma 2a/2b) and
// monotone under adding segments (Lemma 2c).

// SumDiffPair computes sumdiff({a, b}) for two segment support rows,
// restricted to the given items (pass AllItems(k) — or a bubble list — as
// items). This is the inner loop of the Greedy and RC algorithms; it runs
// in O(len(items)²).
func SumDiffPair(a, b []uint32, items []dataset.Item) int64 {
	var total int64
	for i := 0; i < len(items); i++ {
		x := items[i]
		ax, bx := a[x], b[x]
		for j := i + 1; j < len(items); j++ {
			y := items[j]
			ay, by := a[y], b[y]
			ma := ax
			if ay < ma {
				ma = ay
			}
			mb := bx
			if by < mb {
				mb = by
			}
			// Merged cells are summed in 64 bits: two uint32 cells can
			// exceed 2³²−1.
			mc := uint64(ax) + uint64(bx)
			if my := uint64(ay) + uint64(by); my < mc {
				mc = my
			}
			total += int64(mc) - int64(ma) - int64(mb)
		}
	}
	return total
}

// SumDiffSet computes sumdiff(S) for an arbitrary set of segment rows,
// restricted to the given items — the general form of equation (2) used
// by the Lemma 2 analysis and its tests.
func SumDiffSet(rows [][]uint32, items []dataset.Item) int64 {
	if len(rows) == 0 {
		return 0
	}
	k := len(rows[0])
	mergedRow := make([]uint64, k)
	for _, row := range rows {
		for i, c := range row {
			mergedRow[i] += uint64(c)
		}
	}
	var total int64
	for i := 0; i < len(items); i++ {
		x := items[i]
		for j := i + 1; j < len(items); j++ {
			y := items[j]
			// Bound with everything merged into one segment.
			mc := mergedRow[x]
			if mergedRow[y] < mc {
				mc = mergedRow[y]
			}
			// Bound with the segments kept separate.
			var sep int64
			for _, row := range rows {
				m := row[x]
				if row[y] < m {
					m = row[y]
				}
				sep += int64(m)
			}
			total += int64(mc) - sep
		}
	}
	return total
}

// AllItems returns the identity item list 0 … k-1, the "no bubble list"
// summation domain.
func AllItems(k int) []dataset.Item {
	items := make([]dataset.Item, k)
	for i := range items {
		items[i] = dataset.Item(i)
	}
	return items
}
