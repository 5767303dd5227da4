package apriori

import (
	"time"

	"github.com/ossm-mining/ossm/internal/conc"
	"github.com/ossm-mining/ossm/internal/core"
	"github.com/ossm-mining/ossm/internal/dataset"
	"github.com/ossm-mining/ossm/internal/mining"
)

// Name is the registry name of this miner.
const Name = "apriori"

func init() {
	mining.Register(Name, func(d *dataset.Dataset, minCount int64, opts mining.Options) (*mining.Result, error) {
		return Mine(d, minCount, Options{Options: opts})
	})
}

// Options configures Mine. The embedded mining.Options carries the
// engine-wide knobs (Pruner, MaxLen, Workers, Progress).
type Options struct {
	mining.Options
}

// Mine runs Apriori over d at the absolute support threshold minCount.
func Mine(d *dataset.Dataset, minCount int64, opts Options) (*mining.Result, error) {
	if err := mining.ValidateMinCount(minCount); err != nil {
		return nil, err
	}
	start := time.Now()
	pool := conc.Resolve(opts.Workers)
	res := &mining.Result{MinCount: minCount, Stats: mining.Stats{Algorithm: Name, Workers: pool}}
	defer func() { res.Stats.Elapsed = time.Since(start) }()

	// Pass 1: singleton supports in one scan.
	passStart := time.Now()
	counts := d.ItemCounts(0, d.NumTx())
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
	if len(f1) == 0 || opts.MaxLen == 1 {
		return res, nil
	}

	// Project transactions onto the frequent items once; every later pass
	// counts against the projection (a standard optimization that applies
	// identically with and without the OSSM). A counting scan sizes one
	// backing array, and each kept transaction is a capped sub-slice of it.
	frequentItem := make([]bool, d.NumItems())
	for _, c := range f1 {
		frequentItem[c.Items[0]] = true
	}
	keptTx, keptItems := 0, 0
	for i := 0; i < d.NumTx(); i++ {
		n := 0
		for _, it := range d.Tx(i) {
			if frequentItem[it] {
				n++
			}
		}
		if n >= 2 {
			keptTx++
			keptItems += n
		}
	}
	backing := make([]dataset.Item, 0, keptItems)
	txs := make([]dataset.Itemset, 0, keptTx)
	for i := 0; i < d.NumTx(); i++ {
		lo := len(backing)
		for _, it := range d.Tx(i) {
			if frequentItem[it] {
				backing = append(backing, it)
			}
		}
		if hi := len(backing); hi-lo >= 2 {
			txs = append(txs, backing[lo:hi:hi])
		} else {
			backing = backing[:lo]
		}
	}

	// Pass 2.
	passStart = time.Now()
	l2 := passTwo(txs, f1, minCount, opts.Pruner, pool, opts.Instrument)
	l2.Stats.Elapsed = time.Since(passStart)
	res.Levels = append(res.Levels, l2)
	opts.Emit(l2.Stats)

	// Passes k ≥ 3 count against the projection.
	mining.LevelWise(res, txs, opts.Options, nil)
	return res, nil
}

// passTwo decides every pair of frequent items through the pair bound
// kernel, counts all pairs in one triangular table (mining.CountPairs),
// and keeps the admitted pairs that reach minCount.
func passTwo(txs []dataset.Itemset, f1 []mining.Counted, minCount int64, pruner core.Filter, workers int, instr *mining.Instrumentation) mining.LevelResult {
	items := frequentItems(f1)
	stats := mining.PassStats{K: 2, Generated: len(items) * (len(items) - 1) / 2}
	dec := core.AdmitPairsAmong(pruner, items, nil)
	for _, ok := range dec {
		if !ok {
			stats.Pruned++
		}
	}
	stats.Counted = stats.Generated - stats.Pruned
	if stats.Counted == 0 {
		return mining.LevelResult{K: 2, Stats: stats}
	}
	stats.TxScanned = len(txs)
	counts := mining.CountPairs(txs, items, workers, instr)
	// items ascend, so this walk emits the pairs in lexicographic order.
	var freq []mining.Counted
	idx := 0
	for i := 0; i < len(items); i++ {
		for j := i + 1; j < len(items); j++ {
			if dec[idx] && int64(counts[idx]) >= minCount {
				freq = append(freq, mining.Counted{
					Items: dataset.Itemset{items[i], items[j]},
					Count: int64(counts[idx]),
				})
			}
			idx++
		}
	}
	stats.Frequent = len(freq)
	return mining.LevelResult{K: 2, Frequent: freq, Stats: stats}
}

// frequentItems extracts the singleton items of a frequent-1 level.
func frequentItems(f1 []mining.Counted) []dataset.Item {
	items := make([]dataset.Item, len(f1))
	for i, c := range f1 {
		items[i] = c.Items[0]
	}
	return items
}
