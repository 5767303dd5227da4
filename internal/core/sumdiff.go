package core

import (
	"slices"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// sumdiff (equation 2) quantifies the loss of accuracy incurred by
// merging segments: for every pair of items {x, y} it compares the upper
// bound on sup({x, y}) with the segments merged into one against the
// bound with the segments kept separate, and sums the differences. It is
// zero exactly when all segments share a configuration (Lemma 2a/2b) and
// monotone under adding segments (Lemma 2c).
//
// Both bounds are sums of pairwise minima, so equation (2) splits into
// one term per row. For a row u over the summation items I let
//
//	P(u) = Σ_{x<y ∈ I} min(u_x, u_y) = Σ_i u_(i) · (|I| − 1 − i),
//
// where u_(0) ≤ u_(1) ≤ … is u restricted to I in ascending order (the
// i-th smallest value is the minimum of exactly the pairs it forms with
// the |I| − 1 − i values above it). Then
//
//	sumdiff(S) = P(Σ_{r∈S} r) − Σ_{r∈S} P(r),
//
// an O(k log k) evaluation instead of the O(k²) pair loop. Merged cells
// pass 2³²−1, so P is summed in uint64; the subtraction is modular and
// therefore exact whenever the true sumdiff fits in an int64.

// pairMins evaluates P over rows restricted to a fixed item list. Its
// scratch buffer is reused across calls, so one pairMins serves a whole
// merge loop without allocating per candidate pair.
type pairMins struct {
	items []dataset.Item
	buf   []uint64
}

func newPairMins(items []dataset.Item) *pairMins {
	return &pairMins{items: items, buf: make([]uint64, len(items))}
}

// row returns P(u).
func (p *pairMins) row(u []uint32) uint64 {
	for i, x := range p.items {
		p.buf[i] = uint64(u[x])
	}
	return p.sorted()
}

// merged returns P(a + b) without materializing the merged row.
func (p *pairMins) merged(a, b []uint32) uint64 {
	for i, x := range p.items {
		p.buf[i] = uint64(a[x]) + uint64(b[x])
	}
	return p.sorted()
}

// sorted returns P of the values in buf, sorting buf in place.
func (p *pairMins) sorted() uint64 {
	slices.Sort(p.buf)
	var total uint64
	above := uint64(len(p.buf))
	for _, v := range p.buf {
		above--
		total += v * above
	}
	return total
}

// cost is sumdiff({a, b}) from the segments' cached P values: the
// merge-ranking key of Greedy and RC.
func (p *pairMins) cost(a, b *segment) int64 {
	return int64(p.merged(a.counts, b.counts) - a.p - b.p)
}

// SumDiffPair computes sumdiff({a, b}) for two segment support rows,
// restricted to the given items (pass AllItems(k) — or a bubble list — as
// items). O(len(items) · log len(items)).
func SumDiffPair(a, b []uint32, items []dataset.Item) int64 {
	p := newPairMins(items)
	return int64(p.merged(a, b) - p.row(a) - p.row(b))
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
