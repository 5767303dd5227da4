package core

import (
	"sync"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// Bound kernels (DESIGN.md §7). Every OSSM decision is one bound loop
// compared against the threshold: UpperBound(x) ≥ minsup, or
// UpperBoundPair for 2-itemsets, scanning every segment. Exact values
// for whole generations come from UpperBoundBatch.
//
// The one kernel that changes the algorithm is the candidate-2 wall
// (BoundPairsAmong): it runs one segment-by-segment accumulation,
// touching only the pairs both of whose items are present in a segment.
// On the sparse segments of deep segmentations that is far less work
// than a per-pair scan; on fully dense ones it is about the same.

// UpperBoundBatch computes the exact bound ubsup(cands[i]) for every
// candidate — UpperBound per candidate. If out is too small a fresh
// slice is allocated; the filled slice is returned.
func (m *Map) UpperBoundBatch(cands []dataset.Itemset, out []int64) []int64 {
	if cap(out) < len(cands) {
		out = make([]int64, len(cands))
	}
	out = out[:len(cands)]
	for ci, x := range cands {
		out[ci] = m.UpperBound(x)
	}
	return out
}

// pairBlock is the number of segments the pair wall gathers at once: one
// 64-byte cache line of uint32 cells from each item's column.
const pairBlock = 64 / 4

// batchScratch is the pooled per-call working set of the pair wall.
type batchScratch struct {
	acc []int64
	pos []int32  // [b*n + a]: generation index of segment b's a-th present item
	cnt []uint32 // [b*n + a]: its support in segment b
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func (sc *batchScratch) accFor(n int) []int64 {
	if cap(sc.acc) < n {
		sc.acc = make([]int64, n)
	}
	acc := sc.acc[:n]
	for i := range acc {
		acc[i] = 0
	}
	return acc
}

// BoundPairsAmong decides every 2-subset {items[i], items[j]}, i < j, of
// a frequent-1 generation — the candidate-2 wall. Decisions are written
// in the same order a nested i-outer/j-inner loop visits the pairs
// (PairIndex gives the mapping); decisions must have
// len(items)·(len(items)−1)/2 entries.
//
// The wall is decided segment by segment rather than pair by pair: the
// triangular-array pass-2 count of Apriori, run over segments instead of
// transactions. For each segment the generation's items present in it
// (non-zero cells) are listed in generation order, and every present
// pair i < j adds min(c_i, c_j) into a triangular accumulator indexed
// like PairIndex. A pair absent from a segment contributes 0 there, so
// the accumulator ends at exactly ubsup and each decision is acc ≥
// minsup. The cost is Σ_s C(nz_s, 2), nz_s being the number of the
// generation's items present in segment s, instead of pairs × segments
// column loads — on sparse segments a small fraction of it.
//
// The present-item lists are gathered from the item-major columns
// pairBlock segments at a time, so each item's column is read one cache
// line per block rather than one cell per segment. The gather has no
// branch on the cell: deep maps are mostly zero cells, and a branch on
// them mispredicts.
func (m *Map) BoundPairsAmong(items []dataset.Item, minsup int64, decisions []bool) {
	n := len(items)
	numPairs := n * (n - 1) / 2
	if numPairs == 0 {
		return
	}
	if len(decisions) < numPairs {
		panic("core: BoundPairsAmong needs one decision slot per pair")
	}
	sc := batchPool.Get().(*batchScratch)
	defer batchPool.Put(sc)
	acc := sc.accFor(numPairs)
	if cap(sc.pos) < pairBlock*n {
		sc.pos, sc.cnt = make([]int32, pairBlock*n), make([]uint32, pairBlock*n)
	}
	pos, cnt := sc.pos[:pairBlock*n], sc.cnt[:pairBlock*n]
	ns := m.numSegs
	for s0 := 0; s0 < ns; s0 += pairBlock {
		bl := min(pairBlock, ns-s0)
		var nz [pairBlock]int // present items per segment of the block
		for i, it := range items {
			col := m.itemMajor[int(it)*ns+s0 : int(it)*ns+s0+bl]
			for b, c := range col {
				// Every cell is written; only a non-zero one advances
				// (c|-c has its top bit set exactly when c ≠ 0). nz[b] ≤ i,
				// so the write stays inside segment b's n slots.
				pos[b*n+nz[b]], cnt[b*n+nz[b]] = int32(i), c
				nz[b] += int((c | -c) >> 31)
			}
		}
		for b := 0; b < bl; b++ {
			bpos, bcnt := pos[b*n:b*n+nz[b]], cnt[b*n:b*n+nz[b]]
			for a := range bpos {
				// base + j is PairIndex(i, j, n) for every later position j.
				i := int(bpos[a])
				ca, base := bcnt[a], PairIndex(i, i+1, n)-i-1
				for k := a + 1; k < len(bpos); k++ {
					c := bcnt[k]
					if ca < c {
						c = ca
					}
					acc[base+int(bpos[k])] += int64(c)
				}
			}
		}
	}
	for p, a := range acc {
		decisions[p] = a >= minsup
	}
}

// PairIndex maps the pair (items[i], items[j]), i < j, of an n-item
// generation to its position in BoundPairsAmong's decisions slice — the
// standard upper-triangular row-major index.
func PairIndex(i, j, n int) int {
	return i*(2*n-i-1)/2 + (j - i - 1)
}
