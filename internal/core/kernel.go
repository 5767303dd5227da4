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
// (BoundPairsAmong): it runs one segment-by-segment accumulation over the
// uint32 rows, touching only the pairs both of whose items are present in
// a segment. On the sparse rows of deep segmentations that is far less
// work than a per-pair scan; on fully dense rows it is about the same.

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

// batchScratch is the pooled per-call working set of the pair wall.
type batchScratch struct {
	acc []int64
	pos []int32
	cnt []uint32
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
// transactions. Each segment-major row is read once; the generation's
// items present in it (non-zero cells) are gathered, and every present
// pair i < j adds min(c_i, c_j) into a triangular accumulator indexed
// like PairIndex. A pair absent from a segment contributes 0 there, so
// the accumulator ends at exactly ubsup and each decision is acc ≥
// minsup. The cost is Σ_s C(nz_s, 2), nz_s being the number of the
// generation's items present in segment s, instead of pairs × segments
// column loads — on sparse rows a small fraction of it.
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
	if cap(sc.pos) < n {
		sc.pos, sc.cnt = make([]int32, n), make([]uint32, n)
	}
	pos, cnt := sc.pos[:n], sc.cnt[:n]
	nk := m.numItems
	for s := 0; s < m.numSegs; s++ {
		row := m.segMajor[s*nk : (s+1)*nk]
		nz := 0
		for i, it := range items {
			if c := row[it]; c != 0 {
				pos[nz], cnt[nz] = int32(i), c
				nz++
			}
		}
		for a := 0; a < nz; a++ {
			// base + j is PairIndex(i, j, n) for every later position j.
			i := int(pos[a])
			ca, base := cnt[a], PairIndex(i, i+1, n)-i-1
			for b := a + 1; b < nz; b++ {
				c := cnt[b]
				if ca < c {
					c = ca
				}
				acc[base+int(pos[b])] += int64(c)
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
