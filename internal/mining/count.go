package mining

import (
	"time"

	"github.com/ossm-mining/ossm/internal/conc"
	"github.com/ossm-mining/ossm/internal/core"
	"github.com/ossm-mining/ossm/internal/dataset"
)

// CountParallel counts the candidates of one pass (all of cardinality
// size) against txs, sharding the transactions over a worker pool. One
// shared, read-only hash tree serves every worker; each accumulates into
// private CountState, merged afterwards in worker order. The result is
// identical to the serial count. workers follows conc.Resolve semantics
// (already-resolved values pass through unchanged).
//
// When instr is non-nil, each worker's busy interval is reported to it,
// feeding the run report's pool-utilization figure; a nil instr leaves
// the counting loop untouched.
func CountParallel(txs []dataset.Itemset, cands []*Candidate, size, workers int, instr *Instrumentation) {
	workers = conc.Resolve(workers)
	if len(txs) < 4*workers {
		workers = 1
	}
	countSharded(txs, cands, size, workers, instr)
}

// countSharded is the fan-out behind CountParallel; it takes the pool
// size as given, so tests can drive shards wider than conc.Resolve
// would allow on the host.
func countSharded(txs []dataset.Itemset, cands []*Candidate, size, workers int, instr *Instrumentation) {
	tree := NewHashTree(cands, size)
	states := make([]*CountState, workers)
	conc.ForChunks(workers, len(txs), func(w, lo, hi int) {
		start := time.Time{}
		if instr != nil {
			start = time.Now()
		}
		st := tree.AcquireState()
		states[w] = st
		for i := lo; i < hi; i++ {
			tree.CountTransactionInto(st, txs[i])
		}
		if instr != nil {
			instr.ObserveWorker(time.Since(start))
		}
	})
	for _, st := range states {
		if st != nil {
			tree.Merge(cands, st)
			ReleaseState(st)
		}
	}
}

// CountPairs counts, for every pair {items[i], items[j]} with i < j, the
// transactions of txs that hold both items. The counts come back in one
// triangular table of len(items)·(len(items)−1)/2 cells, indexed by
// core.PairIndex(i, j, len(items)) — the layout core.AdmitPairsAmong
// decides pairs in. items must be strictly ascending; transaction items
// not among them are skipped. Each worker fills a private table and the
// tables are summed in worker order, so the counts are identical at every
// pool size. workers and instr follow CountParallel.
//
// A uint32 cell cannot wrap: a transaction adds at most one to a cell and
// holds at least two items when it does, so a cell never exceeds half the
// items of txs, and a dataset addresses its items with uint32 offsets, so
// the transactions of one dataset keep every cell below 2³¹.
func CountPairs(txs []dataset.Itemset, items []dataset.Item, workers int, instr *Instrumentation) []uint32 {
	workers = conc.Resolve(workers)
	if len(txs) < 4*workers {
		workers = 1
	}
	return countPairsSharded(txs, items, workers, instr)
}

// countPairsSharded is the fan-out behind CountPairs; it takes the pool
// size as given, like countSharded.
func countPairsSharded(txs []dataset.Itemset, items []dataset.Item, workers int, instr *Instrumentation) []uint32 {
	n := len(items)
	if n < 2 {
		return []uint32{}
	}
	// rank[it] is the index of item it in items, or −1.
	rank := make([]int32, int(items[n-1])+1)
	for i := range rank {
		rank[i] = -1
	}
	for i, it := range items {
		if i > 0 && it <= items[i-1] {
			panic("mining: CountPairs needs strictly ascending items")
		}
		rank[it] = int32(i)
	}
	numPairs := n * (n - 1) / 2
	tables := make([][]uint32, workers)
	conc.ForChunks(workers, len(txs), func(w, lo, hi int) {
		start := time.Time{}
		if instr != nil {
			start = time.Now()
		}
		table := make([]uint32, numPairs)
		var ranks []int32
		for _, tx := range txs[lo:hi] {
			// Transactions and items both ascend, so the ranks do too,
			// and the scan stops at the first item past the last item.
			ranks = ranks[:0]
			for _, it := range tx {
				if int(it) >= len(rank) {
					break
				}
				if r := rank[it]; r >= 0 {
					ranks = append(ranks, r)
				}
			}
			for a, ra := range ranks {
				// base + j is PairIndex(i, j, n) for every later rank j.
				i := int(ra)
				base := core.PairIndex(i, i+1, n) - i - 1
				for _, rb := range ranks[a+1:] {
					table[base+int(rb)]++
				}
			}
		}
		tables[w] = table
		if instr != nil {
			instr.ObserveWorker(time.Since(start))
		}
	})
	counts := tables[0]
	if counts == nil {
		return make([]uint32, numPairs)
	}
	for _, t := range tables[1:] {
		for p, c := range t {
			counts[p] += c
		}
	}
	return counts
}
