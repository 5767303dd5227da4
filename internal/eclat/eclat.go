// Package eclat implements dEclat-style vertical mining with diffsets
// (Zaki & Gouda, the paper's reference [20]): depth-first equivalence
// classes where each extension stores the *difference* of its parent's
// tidset rather than the tidset itself, so memory shrinks as patterns
// grow. Like DepthProject, it generates candidate extensions one class
// at a time — exactly the shape the OSSM prunes (Section 7's argument
// applies verbatim: known-infrequent extensions are discarded before
// their diffsets are materialized).
package eclat

import (
	"sort"
	"time"

	"github.com/ossm-mining/ossm/internal/conc"
	"github.com/ossm-mining/ossm/internal/dataset"
	"github.com/ossm-mining/ossm/internal/mining"
)

// Name is the registry name of this miner.
const Name = "eclat"

func init() {
	mining.Register(Name, func(d *dataset.Dataset, minCount int64, opts mining.Options) (*mining.Result, error) {
		return Mine(d, minCount, Options{Options: opts})
	})
}

// Options configures Mine. The embedded mining.Options carries the
// engine-wide knobs (Pruner, MaxLen, Workers, Progress). With
// Workers > 1, root equivalence classes — one per frequent item — are
// materialized and expanded concurrently; each root's subtree depends
// only on the level-1 tidsets, so the fan-out shares nothing mutable.
type Options struct {
	mining.Options
}

// Stats counts the search work; it rides on the result as
// mining.Stats.Extra (see StatsOf).
type Stats struct {
	Classes      int // equivalence classes expanded
	Extensions   int // candidate extensions considered
	PrunedByOSSM int // discarded by the bound before diffset computation
	Diffsets     int // diffsets actually materialized
}

func (s *Stats) add(o Stats) {
	s.Classes += o.Classes
	s.Extensions += o.Extensions
	s.PrunedByOSSM += o.PrunedByOSSM
	s.Diffsets += o.Diffsets
}

// StatsOf returns the search counters attached to a result mined by this
// package, or nil for results of other miners.
func StatsOf(r *mining.Result) *Stats {
	if s, ok := r.Stats.Extra.(*Stats); ok {
		return s
	}
	return nil
}

type tidlist []int32

// member is one element of an equivalence class: the prefix extended by
// item, with its support and its diffset relative to the prefix.
type member struct {
	item dataset.Item
	sup  int64
	diff tidlist
}

// Mine runs dEclat over d at the absolute support threshold minCount.
func Mine(d *dataset.Dataset, minCount int64, opts Options) (*mining.Result, error) {
	if err := mining.ValidateMinCount(minCount); err != nil {
		return nil, err
	}
	start := time.Now()
	pool := conc.Resolve(opts.Workers)
	extra := &Stats{}
	res := &mining.Result{MinCount: minCount, Stats: mining.Stats{Algorithm: Name, Workers: pool, Extra: extra}}
	defer func() { res.Stats.Elapsed = time.Since(start) }()

	// Level 1: tidsets.
	tids := make(map[dataset.Item]tidlist)
	for i := 0; i < d.NumTx(); i++ {
		for _, it := range d.Tx(i) {
			tids[it] = append(tids[it], int32(i))
		}
	}
	var items []dataset.Item
	for it, tl := range tids {
		if int64(len(tl)) >= minCount {
			items = append(items, it)
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })

	var found []mining.Counted
	for _, it := range items {
		found = append(found, mining.Counted{Items: dataset.Itemset{it}, Count: int64(len(tids[it]))})
	}
	var tally mining.LevelTally
	tally.Note(1, d.NumItems(), 0, d.NumItems())
	tally.NoteTx(1, d.NumTx())
	if opts.MaxLen != 1 {
		found = append(found, mineRoots(items, tids, minCount, opts, pool, extra, &tally)...)
	}
	levels := mining.FromMap(minCount, found)
	res.Levels = levels.Levels
	tally.Apply(res)
	mining.EmitLevels(opts.Options, res)
	return res, nil
}

// mineRoots materializes and expands the root equivalence class of every
// frequent item, fanning the roots over pool goroutines. Each worker
// writes only its root's slot of the results and stats slices (the
// level-1 tidsets are shared read-only), and slots merge in item order,
// so the output is identical to the serial walk. pool is taken as given
// so tests can force shards past the host's CPU count.
func mineRoots(items []dataset.Item, tids map[dataset.Item]tidlist, minCount int64, opts Options, pool int, extra *Stats, tally *mining.LevelTally) []mining.Counted {
	perRoot := make([][]mining.Counted, len(items))
	perStats := make([]Stats, len(items))
	perTally := make([]mining.LevelTally, len(items))
	conc.For(pool, len(items), func(idx int) {
		start := time.Time{}
		if opts.Instrument != nil {
			start = time.Now()
		}
		x := items[idx]
		st := &perStats[idx]
		lt := &perTally[idx]
		st.Classes++
		// Level 2 seeds the class with diffsets against the level-1
		// tidsets: d(xy) = t(x) − t(y), sup(xy) = sup(x) − |d(xy)|. A
		// diffset is materialized only for a pair the pruner admits.
		cand := dataset.Itemset{x, 0}
		var class []member
		for _, y := range items[idx+1:] {
			st.Extensions++
			cand[1] = y
			if opts.Pruner != nil && !opts.Pruner.Allow(cand) {
				st.PrunedByOSSM++
				lt.Note(2, 1, 1, 0)
				continue
			}
			st.Diffsets++
			lt.Note(2, 1, 0, 1)
			diff := minus(tids[x], tids[y])
			sup := int64(len(tids[x]) - len(diff))
			if sup >= minCount {
				class = append(class, member{item: y, sup: sup, diff: diff})
			}
		}
		out := perRoot[idx]
		for _, m := range class {
			out = append(out, mining.Counted{Items: dataset.Itemset{x, m.item}, Count: m.sup})
		}
		expand(dataset.Itemset{x}, class, minCount, opts, st, lt, &out)
		perRoot[idx] = out
		if opts.Instrument != nil {
			opts.Instrument.ObserveWorker(time.Since(start))
		}
	})
	var found []mining.Counted
	for idx := range perRoot {
		found = append(found, perRoot[idx]...)
		extra.add(perStats[idx])
		tally.Merge(&perTally[idx])
	}
	return found
}

// expand recurses into each member's subclass:
// d(P·Xi·Xj) = d(P·Xj) − d(P·Xi), sup = sup(P·Xi) − |d|.
func expand(prefix dataset.Itemset, class []member, minCount int64, opts Options, st *Stats, lt *mining.LevelTally, out *[]mining.Counted) {
	if opts.MaxLen != 0 && len(prefix)+2 > opts.MaxLen {
		return
	}
	for i, mi := range class {
		if i+1 == len(class) {
			break
		}
		st.Classes++
		newPrefix := append(append(dataset.Itemset{}, prefix...), mi.item)
		// cand is newPrefix plus each sibling in turn; result itemsets are
		// copied out only for members that turn out frequent.
		k := len(newPrefix) + 1
		cand := append(newPrefix[:k-1:k-1], 0)
		var sub []member
		for _, mj := range class[i+1:] {
			st.Extensions++
			cand[k-1] = mj.item
			if opts.Pruner != nil && !opts.Pruner.Allow(cand) {
				st.PrunedByOSSM++
				lt.Note(k, 1, 1, 0)
				continue
			}
			st.Diffsets++
			lt.Note(k, 1, 0, 1)
			diff := minus(mj.diff, mi.diff)
			sup := mi.sup - int64(len(diff))
			if sup >= minCount {
				sub = append(sub, member{item: mj.item, sup: sup, diff: diff})
			}
		}
		for _, m := range sub {
			*out = append(*out, mining.Counted{
				Items: append(append(dataset.Itemset{}, newPrefix...), m.item),
				Count: m.sup,
			})
		}
		if len(sub) > 1 {
			expand(newPrefix, sub, minCount, opts, st, lt, out)
		}
	}
}

// minus returns a − b for sorted tidlists.
func minus(a, b tidlist) tidlist {
	var out tidlist
	j := 0
	for _, t := range a {
		for j < len(b) && b[j] < t {
			j++
		}
		if j < len(b) && b[j] == t {
			continue
		}
		out = append(out, t)
	}
	return out
}
