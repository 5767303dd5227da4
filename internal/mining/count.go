package mining

import (
	"time"

	"github.com/ossm-mining/ossm/internal/conc"
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
