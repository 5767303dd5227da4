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
// of m. The view shares m's segment-major backing store (no cells are
// copied); the derived item-major transpose and per-item totals are
// rebuilt for the range, so every bound and decision path works on the
// view unchanged. Summing the views' bounds over a partition of
// [0, NumSegments()) reproduces m's bound exactly.
func (m *Map) SegmentRange(lo, hi int) (*Map, error) {
	if lo < 0 || hi > m.numSegs || lo >= hi {
		return nil, fmt.Errorf("core: segment range [%d, %d) outside [0, %d)", lo, hi, m.numSegs)
	}
	if lo == 0 && hi == m.numSegs {
		return m, nil
	}
	return newMapFromFlat(hi-lo, m.numItems, m.segMajor[lo*m.numItems:hi*m.numItems]), nil
}
