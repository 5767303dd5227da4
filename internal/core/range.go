package core

import "fmt"

// Segment-range views (DESIGN.md §8). The OSSM bound, eq. 1, is a pure
// sum of non-negative per-segment terms, so any partition of [0, n) into
// contiguous ranges decomposes the bound losslessly:
//
//	ubsup(X, M_n) = Σ_ranges Σ_{s ∈ range} min_{x ∈ X} sup_s({x})
//
// A shard that owns one range answers the inner sum with the unchanged
// bound loop over a sub-Map, and the coordinator merges the partial
// sums by int64 addition — exact, order-independent, bit-identical to
// the single-map scan. SegmentRange is the slicing primitive behind
// internal/shard.

// SegmentRange returns a Map over the contiguous segment range [lo, hi)
// of m: a copy of each item's column slice [lo, hi) with the per-item
// totals rebuilt for the range, 4·k·(hi−lo) + 8·k bytes. Every bound and
// decision path works on the view unchanged, and summing the views'
// bounds over a partition of [0, NumSegments()) reproduces m's bound
// exactly. The full range returns m itself.
func (m *Map) SegmentRange(lo, hi int) (*Map, error) {
	if lo < 0 || hi > m.numSegs || lo >= hi {
		return nil, fmt.Errorf("core: segment range [%d, %d) outside [0, %d)", lo, hi, m.numSegs)
	}
	if lo == 0 && hi == m.numSegs {
		return m, nil
	}
	v := newMap(hi-lo, m.numItems)
	for it := 0; it < m.numItems; it++ {
		copy(v.itemMajor[it*v.numSegs:(it+1)*v.numSegs], m.itemMajor[it*m.numSegs+lo:it*m.numSegs+hi])
	}
	return v.withTotals(), nil
}
