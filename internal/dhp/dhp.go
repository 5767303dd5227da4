// Package dhp implements the DHP algorithm of Park, Chen and Yu (IEEE
// TKDE 1997): hash-based filtering of candidate 2-itemsets plus
// transaction trimming. It is the comparator of the paper's Section 7,
// which shows the additional benefit an OSSM brings to DHP — known
// infrequent pairs are never generated at all, and survivors can still be
// rejected by their hash bucket.
package dhp

import (
	"fmt"
	"time"

	"github.com/ossm-mining/ossm/internal/conc"
	"github.com/ossm-mining/ossm/internal/core"
	"github.com/ossm-mining/ossm/internal/dataset"
	"github.com/ossm-mining/ossm/internal/mining"
)

// Name is the registry name of this miner.
const Name = "dhp"

func init() {
	mining.Register(Name, func(d *dataset.Dataset, minCount int64, opts mining.Options) (*mining.Result, error) {
		return Mine(d, minCount, Options{Options: opts, NumBuckets: opts.Param("buckets", 0)})
	})
}

// DefaultNumBuckets matches the Section 7 experiment (32 768 buckets).
const DefaultNumBuckets = 32768

// Options configures Mine. The embedded mining.Options carries the
// engine-wide knobs (Pruner, MaxLen, Workers, Progress).
type Options struct {
	mining.Options
	// NumBuckets sizes the pass-1 hash table H2. Defaults to
	// DefaultNumBuckets when zero.
	NumBuckets int
}

// Stats extends the per-level accounting with DHP-specific counters; it
// rides on the result as mining.Stats.Extra (see StatsOf).
type Stats struct {
	// BucketPruned counts candidate pairs rejected by the hash table
	// (after surviving the OSSM, if one is configured).
	BucketPruned int
	// TrimmedItems counts item occurrences removed by transaction
	// trimming after pass 2.
	TrimmedItems int
	// DroppedTx counts transactions dropped entirely by trimming.
	DroppedTx int
}

// StatsOf returns the DHP-specific counters attached to a result mined
// by this package, or nil for results of other miners.
func StatsOf(r *mining.Result) *Stats {
	if s, ok := r.Stats.Extra.(*Stats); ok {
		return s
	}
	return nil
}

// pairHash maps an item pair to a bucket, mirroring the order-insensitive
// polynomial hash of the original paper.
func pairHash(a, b dataset.Item, buckets int) int {
	return int((uint64(a)*2654435761 + uint64(b)) % uint64(buckets))
}

// tripleHash maps an item triple to a bucket of H3.
func tripleHash(a, b, c dataset.Item, buckets int) int {
	return int(((uint64(a)*2654435761+uint64(b))*40503 + uint64(c)) % uint64(buckets))
}

// Mine runs DHP over d at the absolute support threshold minCount.
func Mine(d *dataset.Dataset, minCount int64, opts Options) (*mining.Result, error) {
	if err := mining.ValidateMinCount(minCount); err != nil {
		return nil, err
	}
	buckets := opts.NumBuckets
	if buckets == 0 {
		buckets = DefaultNumBuckets
	}
	if buckets < 1 {
		return nil, fmt.Errorf("dhp: NumBuckets must be positive, got %d", buckets)
	}
	start := time.Now()
	pool := conc.Resolve(opts.Workers)
	extra := &Stats{}
	res := &mining.Result{MinCount: minCount, Stats: mining.Stats{Algorithm: Name, Workers: pool, Extra: extra}}
	defer func() { res.Stats.Elapsed = time.Since(start) }()

	// Pass 1: count singletons and hash every 2-itemset of every
	// transaction into H2.
	passStart := time.Now()
	counts := d.ItemCounts(0, d.NumTx())
	h2 := make([]int64, buckets)
	for i := 0; i < d.NumTx(); i++ {
		tx := d.Tx(i)
		for a := 0; a < len(tx); a++ {
			for b := a + 1; b < len(tx); b++ {
				h2[pairHash(tx[a], tx[b], buckets)]++
			}
		}
	}
	var f1 []mining.Counted
	for it, c := range counts {
		if int64(c) >= minCount {
			f1 = append(f1, mining.Counted{Items: dataset.NewItemset(dataset.Item(it)), Count: int64(c)})
		}
	}
	l1 := mining.LevelResult{
		K:        1,
		Frequent: f1,
		Stats: mining.PassStats{K: 1, Generated: d.NumItems(), Counted: d.NumItems(),
			Frequent: len(f1), TxScanned: d.NumTx(), Elapsed: time.Since(passStart)},
	}
	res.Levels = append(res.Levels, l1)
	opts.Emit(l1.Stats)
	if len(f1) < 2 || opts.MaxLen == 1 {
		return res, nil
	}

	// Pass 2 candidate generation: a pair of frequent items becomes a
	// candidate only if (a) the OSSM bound admits it — decided for the
	// whole generation at once by the pair wall (core.AdmitPairsAmong) — and
	// (b) its hash bucket could be frequent.
	passStart = time.Now()
	stats2 := mining.PassStats{K: 2, Generated: len(f1) * (len(f1) - 1) / 2}
	items := make([]dataset.Item, len(f1))
	for i, c := range f1 {
		items[i] = c.Items[0]
	}
	dec := core.AdmitPairsAmong(opts.Pruner, items, nil)
	var cands []*mining.Candidate
	var alloc mining.CandidateAlloc
	idx := 0
	for i := 0; i < len(items); i++ {
		for j := i + 1; j < len(items); j++ {
			a, b := items[i], items[j]
			ok := dec[idx]
			idx++
			if !ok {
				stats2.Pruned++
				continue
			}
			if h2[pairHash(a, b, buckets)] < minCount {
				stats2.PrunedHash++
				extra.BucketPruned++
				continue
			}
			cands = append(cands, alloc.Pair(a, b))
		}
	}
	stats2.Counted = len(cands)
	stats2.TxScanned = d.NumTx()

	// Pass 2 counting with transaction trimming, sharded over the worker
	// pool (see trimPass). Following the original algorithm, the pass
	// also builds H3: every 3-subset of the trimmed transaction hashes
	// into a bucket that later filters C3.
	frequentItem := make([]bool, d.NumItems())
	for _, c := range f1 {
		frequentItem[c.Items[0]] = true
	}
	trimmed := trimPass(d, cands, frequentItem, buckets, pool, extra, opts.Instrument)
	var f2 []mining.Counted
	for _, c := range cands {
		if c.Count >= minCount {
			f2 = append(f2, mining.Counted{Items: c.Items, Count: c.Count})
		}
	}
	mining.SortCounted(f2)
	stats2.Frequent = len(f2)
	stats2.Elapsed = time.Since(passStart)
	res.Levels = append(res.Levels, mining.LevelResult{K: 2, Frequent: f2, Stats: stats2})
	opts.Emit(stats2)

	// Passes k ≥ 3: Apriori-style candidate generation counted against
	// the trimmed transactions (hash-tree counting sharded over the same
	// pool). Pass 3 additionally applies the H3 filter built during
	// pass 2 (the original algorithm's recursive hashing; beyond k = 3
	// the benefit is marginal, as the DHP paper itself reports, so later
	// passes rely on generation + the OSSM alone).
	prev := f2
	var decBuf []bool
	for k := 3; len(prev) >= 2 && (opts.MaxLen == 0 || k <= opts.MaxLen); k++ {
		passStart = time.Now()
		gen := generate(prev)
		stats := mining.PassStats{K: k, Generated: len(gen)}
		decBuf = core.AdmitBatch(opts.Pruner, gen, decBuf)
		var kc []*mining.Candidate
		var alloc mining.CandidateAlloc
		for gi, items := range gen {
			if !decBuf[gi] {
				stats.Pruned++
				continue
			}
			if k == 3 && trimmed.h3[tripleHash(items[0], items[1], items[2], buckets)] < minCount {
				stats.PrunedHash++
				extra.BucketPruned++
				continue
			}
			kc = append(kc, alloc.New(items))
		}
		stats.Counted = len(kc)
		if len(kc) == 0 {
			break
		}
		stats.TxScanned = len(trimmed.txs)
		mining.CountParallel(trimmed.txs, kc, k, pool, opts.Instrument)
		var freq []mining.Counted
		for _, c := range kc {
			if c.Count >= minCount {
				freq = append(freq, mining.Counted{Items: c.Items, Count: c.Count})
			}
		}
		mining.SortCounted(freq)
		stats.Frequent = len(freq)
		stats.Elapsed = time.Since(passStart)
		res.Levels = append(res.Levels, mining.LevelResult{K: k, Frequent: freq, Stats: stats})
		opts.Emit(stats)
		prev = freq
		if len(freq) == 0 {
			break
		}
	}
	return res, nil
}

// trimResult is the output of the pass-2 counting/trimming scan.
type trimResult struct {
	txs []dataset.Itemset // trimmed transactions, in original order
	h3  []int64           // bucket counts of every 3-subset of the trimmed txs
}

// trimPass counts the candidate pairs against the dataset and performs
// transaction trimming: the per-match callback tracks how many counted
// candidates each item participates in; an item survives into pass 3
// only if it occurs in at least 2 counted candidate pairs of the
// transaction, and a transaction only if it keeps at least 3 items (it
// could otherwise never support a 3-itemset).
//
// The scan shards transactions over the worker pool: one shared,
// read-only hash tree serves every worker, each accumulating candidate
// counts, trimmed transactions, a partial H3 and trim counters
// privately; shards merge in worker order, so the result is identical
// to the serial scan.
func trimPass(d *dataset.Dataset, cands []*mining.Candidate, frequentItem []bool, buckets, pool int, extra *Stats, instr *mining.Instrumentation) trimResult {
	tree := mining.NewHashTree(cands, 2)
	type shard struct {
		state        *mining.CountState
		h3           []int64
		trimmed      []dataset.Itemset
		trimmedItems int
		droppedTx    int
	}
	workers := pool
	if d.NumTx() < 2*workers {
		workers = 1
	}
	shards := make([]shard, workers)
	conc.ForChunks(workers, d.NumTx(), func(w, lo, hi int) {
		chunkStart := time.Time{}
		if instr != nil {
			chunkStart = time.Now()
		}
		defer func() {
			if instr != nil {
				instr.ObserveWorker(time.Since(chunkStart))
			}
		}()
		sh := &shards[w]
		sh.state = tree.AcquireState()
		sh.h3 = make([]int64, buckets)
		participation := make(map[dataset.Item]int)
		for i := lo; i < hi; i++ {
			tx := d.Tx(i)
			var kept dataset.Itemset
			for _, it := range tx {
				if frequentItem[it] {
					kept = append(kept, it)
				}
			}
			if len(kept) < 2 {
				if len(tx) > 0 {
					sh.droppedTx++
				}
				continue
			}
			for k := range participation {
				delete(participation, k)
			}
			tree.CountTransactionIntoFunc(sh.state, kept, func(c *mining.Candidate) {
				participation[c.Items[0]]++
				participation[c.Items[1]]++
			})
			var next dataset.Itemset
			for _, it := range kept {
				if participation[it] >= 2 {
					next = append(next, it)
				} else {
					sh.trimmedItems++
				}
			}
			if len(next) >= 3 {
				sh.trimmed = append(sh.trimmed, next)
				for a := 0; a < len(next); a++ {
					for b := a + 1; b < len(next); b++ {
						for c := b + 1; c < len(next); c++ {
							sh.h3[tripleHash(next[a], next[b], next[c], buckets)]++
						}
					}
				}
			} else {
				sh.droppedTx++
			}
		}
	})
	out := trimResult{h3: make([]int64, buckets)}
	for i := range shards {
		sh := &shards[i]
		if sh.state == nil {
			continue
		}
		tree.Merge(cands, sh.state)
		mining.ReleaseState(sh.state)
		sh.state = nil
		for b, c := range sh.h3 {
			out.h3[b] += c
		}
		out.txs = append(out.txs, sh.trimmed...)
		extra.TrimmedItems += sh.trimmedItems
		extra.DroppedTx += sh.droppedTx
	}
	return out
}

// generate is apriori-gen over a sorted level (join on the shared prefix,
// prune by subsets).
func generate(prev []mining.Counted) []dataset.Itemset {
	known := make(map[string]bool, len(prev))
	for _, c := range prev {
		known[c.Items.Key()] = true
	}
	var out []dataset.Itemset
	for i := 0; i < len(prev); i++ {
		a := prev[i].Items
		for j := i + 1; j < len(prev); j++ {
			b := prev[j].Items
			shared := true
			for x := 0; x < len(a)-1; x++ {
				if a[x] != b[x] {
					shared = false
					break
				}
			}
			if !shared {
				break
			}
			cand := append(append(dataset.Itemset{}, a...), b[len(b)-1])
			ok := true
			for x := range cand {
				if !known[cand.Without(x).Key()] {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, cand)
			}
		}
	}
	return out
}
