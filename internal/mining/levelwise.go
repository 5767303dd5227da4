package mining

import (
	"time"

	"github.com/ossm-mining/ossm/internal/conc"
	"github.com/ossm-mining/ossm/internal/dataset"
)

// AprioriGen is apriori-gen (Agrawal and Srikant, VLDB 1994), the one
// candidate generator of the level-wise miners. level holds
// (k−1)-itemsets sorted lexicographically. Two of them that share their
// first k−2 items join into a k-candidate, which is kept only if every
// (k−1)-subset of it is in level. yield receives the kept candidates in
// lexicographic order, each with the indices in level of the two parents
// it was joined from (a < b); every cand is a fresh slice the caller may
// keep.
func AprioriGen(level []dataset.Itemset, yield func(cand dataset.Itemset, a, b int)) {
	known := make(map[string]bool, len(level))
	for _, x := range level {
		known[x.Key()] = true
	}
	var sub dataset.Itemset
	for i, a := range level {
		prefix := a[:len(a)-1]
		for j := i + 1; j < len(level); j++ {
			b := level[j]
			if !prefix.Equal(b[:len(b)-1]) {
				// level is sorted, so no later itemset shares a's prefix.
				break
			}
			cand := append(a[:len(a):len(a)], b[len(b)-1])
			// Dropping one of the last two items leaves a parent, so only
			// the subsets that drop an earlier item need looking up.
			ok := true
			for x := 0; ok && x < len(cand)-2; x++ {
				sub = append(append(sub[:0], cand[:x]...), cand[x+1:]...)
				ok = known[sub.Key()]
			}
			if ok {
				yield(cand, i, j)
			}
		}
	}
}

// LevelWise runs the passes k ≥ 3 of a level-wise miner (Apriori, DHP),
// continuing from the last level of res. Each pass generates candidates
// from the previous level (AprioriGen), admits each through opts.Pruner
// and then keep (nil keeps every candidate; its rejections count as
// PrunedHash), counts the admitted ones against txs, and appends and
// emits the level's frequent itemsets. The search stops when a pass
// admits no candidate or fewer than two itemsets stay frequent.
func LevelWise(res *Result, txs []dataset.Itemset, opts Options, keep func(cand dataset.Itemset) bool) {
	pool := conc.Resolve(opts.Workers)
	last := res.Levels[len(res.Levels)-1]
	prev := last.Frequent
	for k := last.K + 1; len(prev) >= 2 && (opts.MaxLen == 0 || k <= opts.MaxLen); k++ {
		passStart := time.Now()
		level := make([]dataset.Itemset, len(prev))
		for i, c := range prev {
			level[i] = c.Items
		}
		stats := PassStats{K: k}
		var cands []*Candidate
		var alloc CandidateAlloc
		AprioriGen(level, func(cand dataset.Itemset, _, _ int) {
			stats.Generated++
			switch {
			case opts.Pruner != nil && !opts.Pruner.Allow(cand):
				stats.Pruned++
			case keep != nil && !keep(cand):
				stats.PrunedHash++
			default:
				cands = append(cands, alloc.New(cand))
			}
		})
		stats.Counted = len(cands)
		if len(cands) == 0 {
			break
		}
		stats.TxScanned = len(txs)
		CountParallel(txs, cands, k, pool, opts.Instrument)
		var freq []Counted
		for _, c := range cands {
			if c.Count >= res.MinCount {
				freq = append(freq, Counted{Items: c.Items, Count: c.Count})
			}
		}
		SortCounted(freq)
		stats.Frequent = len(freq)
		stats.Elapsed = time.Since(passStart)
		res.Levels = append(res.Levels, LevelResult{K: k, Frequent: freq, Stats: stats})
		opts.Emit(stats)
		prev = freq
	}
}
