// Package partition implements the Partition algorithm of Savasere,
// Omiecinski and Navathe (VLDB 1995): the database is split into
// partitions small enough to mine in memory with vertical tidlists; the
// union of locally frequent itemsets forms the global candidate set,
// which a second pass counts exactly.
//
// Section 7 of the OSSM paper describes two integration points: a
// per-partition OSSM pruning local candidates, and a global OSSM pruning
// global candidates before the counting pass. The global one is
// implemented here.
package partition

import (
	"fmt"
	"sort"
	"time"

	"github.com/ossm-mining/ossm/internal/conc"
	"github.com/ossm-mining/ossm/internal/dataset"
	"github.com/ossm-mining/ossm/internal/mining"
)

// Name is the registry name of this miner.
const Name = "partition"

func init() {
	mining.Register(Name, func(d *dataset.Dataset, minCount int64, opts mining.Options) (*mining.Result, error) {
		return Mine(d, minCount, Options{Options: opts, NumPartitions: opts.Param("partitions", 0)})
	})
}

// Options configures Mine. The embedded mining.Options carries the
// engine-wide knobs: Pruner acts as the *global* OSSM filtering the
// candidate set before the phase-2 counting scan, and Workers fans that
// scan — one tidlist-intersection count per candidate — over a pool.
type Options struct {
	mining.Options
	// NumPartitions splits the database; defaults to 1 when zero (which
	// degenerates into plain vertical mining).
	NumPartitions int
}

// Stats carries Partition-specific accounting; it rides on the result as
// mining.Stats.Extra (see StatsOf).
type Stats struct {
	NumPartitions    int
	LocalFrequent    int // locally frequent itemsets summed over partitions (before union)
	GlobalCandidates int // distinct candidates entering phase 2
	GlobalPruned     int // removed from phase 2 by the global OSSM
}

// StatsOf returns the Partition-specific counters attached to a result
// mined by this package, or nil for results of other miners.
func StatsOf(r *mining.Result) *Stats {
	if s, ok := r.Stats.Extra.(*Stats); ok {
		return s
	}
	return nil
}

// Mine runs Partition over d at the absolute support threshold minCount.
func Mine(d *dataset.Dataset, minCount int64, opts Options) (*mining.Result, error) {
	if err := mining.ValidateMinCount(minCount); err != nil {
		return nil, err
	}
	np := opts.NumPartitions
	if np == 0 {
		np = 1
	}
	if np < 1 || np > d.NumTx() {
		return nil, fmt.Errorf("partition: NumPartitions %d out of range [1, %d]", np, d.NumTx())
	}
	parts := dataset.PaginateN(d, np)
	start := time.Now()
	pool := conc.Resolve(opts.Workers)
	extra := &Stats{NumPartitions: np}
	res := &mining.Result{MinCount: minCount, Stats: mining.Stats{Algorithm: Name, Workers: pool, Extra: extra}}
	defer func() { res.Stats.Elapsed = time.Since(start) }()

	// Phase 1: mine each partition locally.
	candidates := make(map[string]dataset.Itemset)
	for _, p := range parts {
		local := mineVertical(d, p, localMinCount(minCount, p.Len(), d.NumTx()), opts.MaxLen)
		extra.LocalFrequent += len(local)
		for _, x := range local {
			candidates[x.Key()] = x
		}
	}
	extra.GlobalCandidates = len(candidates)

	// Phase 2: prune with the global OSSM and count the rest exactly
	// against global tidlists.
	var tally mining.LevelTally
	var toCount []dataset.Itemset
	for _, x := range candidates {
		if opts.Pruner != nil && !opts.Pruner.Allow(x) {
			extra.GlobalPruned++
			tally.Note(len(x), 1, 1, 0)
			continue
		}
		toCount = append(toCount, x)
		tally.Note(len(x), 1, 0, 1)
	}
	tally.NoteTx(1, d.NumTx())
	neededItem := make(map[dataset.Item]bool)
	for _, x := range toCount {
		for _, it := range x {
			neededItem[it] = true
		}
	}
	tids := buildTidlists(d, 0, d.NumTx(), neededItem)
	counts := countGlobal(tids, toCount, minCount, pool, opts.Instrument)
	var found []mining.Counted
	for i, x := range toCount {
		if counts[i] >= minCount {
			found = append(found, mining.Counted{Items: x, Count: counts[i]})
		}
	}
	levels := mining.FromMap(minCount, found)
	res.Levels = levels.Levels
	tally.Apply(res)
	mining.EmitLevels(opts.Options, res)
	return res, nil
}

// countGlobal runs the phase-2 exact counting scan: one
// tidlist-intersection count per candidate, fanned over pool goroutines.
// Candidates are independent of one another and the tidlists are shared
// read-only, so each worker writes only its candidates' slots of the
// counts slice. pool is taken as given so tests can force shards past
// the host's CPU count.
func countGlobal(tids map[dataset.Item]tidlist, toCount []dataset.Itemset, minCount int64, pool int, instr *mining.Instrumentation) []int64 {
	counts := make([]int64, len(toCount))
	conc.For(pool, len(toCount), func(i int) {
		start := time.Time{}
		if instr != nil {
			start = time.Now()
		}
		counts[i] = supportByIntersection(tids, toCount[i], minCount)
		if instr != nil {
			instr.ObserveWorker(time.Since(start))
		}
	})
	return counts
}

// localMinCount scales the global threshold to a partition:
// ceil(minCount · partLen / total). Pigeonhole guarantees every globally
// frequent itemset meets this bound in at least one partition.
func localMinCount(minCount int64, partLen, total int) int64 {
	num := minCount * int64(partLen)
	lm := num / int64(total)
	if num%int64(total) != 0 {
		lm++
	}
	if lm < 1 {
		lm = 1
	}
	return lm
}

// tidlist is a sorted list of local transaction indices.
type tidlist []int32

// buildTidlists scans [lo,hi) once and returns a tidlist per requested
// item (nil filter ⇒ every item).
func buildTidlists(d *dataset.Dataset, lo, hi int, filter map[dataset.Item]bool) map[dataset.Item]tidlist {
	out := make(map[dataset.Item]tidlist)
	for i := lo; i < hi; i++ {
		for _, it := range d.Tx(i) {
			if filter == nil || filter[it] {
				out[it] = append(out[it], int32(i-lo))
			}
		}
	}
	return out
}

// intersect returns a ∩ b (both sorted).
func intersect(a, b tidlist) tidlist {
	var out tidlist
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// supportByIntersection counts sup(x) by progressive tidlist
// intersection, aborting (returning a value < minCount) as soon as the
// running intersection proves the candidate infrequent.
func supportByIntersection(tids map[dataset.Item]tidlist, x dataset.Itemset, minCount int64) int64 {
	cur := tids[x[0]]
	if int64(len(cur)) < minCount {
		return int64(len(cur))
	}
	for _, it := range x[1:] {
		cur = intersect(cur, tids[it])
		if int64(len(cur)) < minCount {
			return int64(len(cur))
		}
	}
	return int64(len(cur))
}

// mineVertical mines all locally frequent itemsets of a partition with
// level-wise candidate generation and tidlist intersection counting — the
// in-memory engine of the original Partition algorithm.
func mineVertical(d *dataset.Dataset, p dataset.Page, localMin int64, maxLen int) []dataset.Itemset {
	tids := buildTidlists(d, p.Lo, p.Hi, nil)
	var level []node
	for it, tl := range tids {
		if int64(len(tl)) >= localMin {
			level = append(level, node{items: dataset.NewItemset(it), tids: tl})
		}
	}
	sortNodes(level)
	var out []dataset.Itemset
	for _, n := range level {
		out = append(out, n.items)
	}
	for k := 2; len(level) >= 2 && (maxLen == 0 || k <= maxLen); k++ {
		sets := make([]dataset.Itemset, len(level))
		for i, n := range level {
			sets[i] = n.items
		}
		// AprioriGen yields in lexicographic order, so next stays sorted.
		var next []node
		mining.AprioriGen(sets, func(cand dataset.Itemset, a, b int) {
			tl := intersect(level[a].tids, level[b].tids)
			if int64(len(tl)) >= localMin {
				next = append(next, node{items: cand, tids: tl})
			}
		})
		for _, n := range next {
			out = append(out, n.items)
		}
		level = next
	}
	return out
}

// node is a locally frequent itemset with its partition-local tidlist.
type node struct {
	items dataset.Itemset
	tids  tidlist
}

func sortNodes(ns []node) {
	sort.Slice(ns, func(i, j int) bool { return ns[i].items.Compare(ns[j].items) < 0 })
}
