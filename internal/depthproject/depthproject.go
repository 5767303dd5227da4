// Package depthproject implements a DepthProject-style miner (Agarwal,
// Aggarwal & Prasad, KDD 2000): depth-first search over the
// lexicographic tree of itemsets, counting candidate extensions against
// projected transaction sets. Section 7 of the OSSM paper observes that
// the OSSM can prune known-infrequent lexicographic extensions before
// their frequency is counted; this implementation exposes exactly that
// hook and the counters to measure it.
package depthproject

import (
	"sort"
	"time"

	"github.com/ossm-mining/ossm/internal/dataset"
	"github.com/ossm-mining/ossm/internal/mining"
)

// Name is the registry name of this miner.
const Name = "depthproject"

func init() {
	mining.Register(Name, func(d *dataset.Dataset, minCount int64, opts mining.Options) (*mining.Result, error) {
		return Mine(d, minCount, Options{Options: opts})
	})
}

// Options configures Mine. The embedded mining.Options carries the
// engine-wide knobs; the Pruner filters each candidate extension before
// its projection is counted. The projection DFS shares its tidlist map
// across siblings, so Workers is accepted but the walk runs serially.
type Options struct {
	mining.Options
}

// Stats counts the depth-first search work; it rides on the result as
// mining.Stats.Extra (see StatsOf).
type Stats struct {
	NodesExplored int // lexicographic tree nodes expanded
	Extensions    int // candidate extensions considered
	PrunedByOSSM  int // extensions discarded by the OSSM bound
	Projections   int // extensions whose projection was actually counted
}

// StatsOf returns the search counters attached to a result mined by this
// package, or nil for results of other miners.
func StatsOf(r *mining.Result) *Stats {
	if s, ok := r.Stats.Extra.(*Stats); ok {
		return s
	}
	return nil
}

// tidlist is a sorted list of transaction indices.
type tidlist []int32

// Mine runs the depth-first miner over d at the absolute support
// threshold minCount.
func Mine(d *dataset.Dataset, minCount int64, opts Options) (*mining.Result, error) {
	if err := mining.ValidateMinCount(minCount); err != nil {
		return nil, err
	}
	start := time.Now()
	extra := &Stats{}

	// Root level: frequent items with their tidlists (the root's
	// "projected database" is the full dataset in vertical layout).
	lists := make(map[dataset.Item]tidlist)
	for i := 0; i < d.NumTx(); i++ {
		for _, it := range d.Tx(i) {
			lists[it] = append(lists[it], int32(i))
		}
	}
	items := make([]dataset.Item, 0, len(lists))
	for it, tl := range lists {
		if int64(len(tl)) >= minCount {
			items = append(items, it)
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })

	var tally mining.LevelTally
	tally.Note(1, d.NumItems(), 0, d.NumItems())
	tally.NoteTx(1, d.NumTx())
	var found []mining.Counted
	for idx, it := range items {
		extra.NodesExplored++
		tl := lists[it]
		found = append(found, mining.Counted{Items: dataset.Itemset{it}, Count: int64(len(tl))})
		if opts.MaxLen == 1 {
			continue
		}
		expand(dataset.Itemset{it}, tl, items[idx+1:], lists, minCount, opts, extra, &tally, &found)
	}
	res := mining.FromMap(minCount, found)
	res.Stats = mining.Stats{Algorithm: Name, Workers: 1, Elapsed: time.Since(start), Extra: extra}
	tally.Apply(res)
	mining.EmitLevels(opts.Options, res)
	return res, nil
}

// expand grows prefix (supported by tids) with each lexicographic
// extension, depth first.
func expand(prefix dataset.Itemset, tids tidlist, exts []dataset.Item,
	lists map[dataset.Item]tidlist, minCount int64, opts Options, st *Stats,
	tally *mining.LevelTally, out *[]mining.Counted) {

	// cand is prefix plus each extension in turn; result itemsets are
	// copied out only for extensions whose projection turns out frequent.
	k := len(prefix) + 1
	cand := append(prefix[:k-1:k-1], 0)
	type child struct {
		item dataset.Item
		tids tidlist
	}
	var children []child
	for _, x := range exts {
		st.Extensions++
		cand[k-1] = x
		if opts.Pruner != nil && !opts.Pruner.Allow(cand) {
			st.PrunedByOSSM++
			tally.Note(k, 1, 1, 0)
			continue
		}
		st.Projections++
		tally.Note(k, 1, 0, 1)
		tl := intersect(tids, lists[x])
		if int64(len(tl)) >= minCount {
			children = append(children, child{item: x, tids: tl})
			*out = append(*out, mining.Counted{
				Items: append(append(dataset.Itemset{}, prefix...), x),
				Count: int64(len(tl)),
			})
		}
	}
	if opts.MaxLen != 0 && len(prefix)+1 >= opts.MaxLen {
		return
	}
	for i, c := range children {
		st.NodesExplored++
		rest := make([]dataset.Item, 0, len(children)-i-1)
		for _, cc := range children[i+1:] {
			rest = append(rest, cc.item)
		}
		if len(rest) == 0 {
			continue
		}
		expand(append(append(dataset.Itemset{}, prefix...), c.item), c.tids, rest, lists, minCount, opts, st, tally, out)
	}
}

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
