package dhp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/ossm-mining/ossm/internal/core"
	"github.com/ossm-mining/ossm/internal/dataset"
	"github.com/ossm-mining/ossm/internal/mining"
)

// pairHash maps an item pair to a bucket of H2 with the order-insensitive
// polynomial hash of the original paper, by division.
func pairHash(a, b dataset.Item, buckets int) int {
	return int((uint64(a)*2654435761 + uint64(b)) % uint64(buckets))
}

// referenceMine is DHP written plainly: pass 1 hashes every pair with
// pairHash's division; in passes 2 and 3 each candidate meets its hash
// bucket first and only the bucket's survivors meet Pruner.Allow, one
// candidate at a time; and the trim pass builds fresh slices and a
// participation map per transaction and counts by subset scans.
func referenceMine(d *dataset.Dataset, minCount int64, buckets int, pruner *core.Pruner) ([]mining.LevelResult, Stats) {
	var extra Stats
	counts := make([]int64, d.NumItems())
	h2 := make([]int64, buckets)
	for i := 0; i < d.NumTx(); i++ {
		tx := d.Tx(i)
		for a, x := range tx {
			counts[x]++
			for _, y := range tx[a+1:] {
				h2[pairHash(x, y, buckets)]++
			}
		}
	}
	var f1 []mining.Counted
	for it, c := range counts {
		if c >= minCount {
			f1 = append(f1, mining.Counted{Items: dataset.NewItemset(dataset.Item(it)), Count: c})
		}
	}
	levels := []mining.LevelResult{{K: 1, Frequent: f1, Stats: mining.PassStats{K: 1,
		Generated: d.NumItems(), Counted: d.NumItems(), Frequent: len(f1), TxScanned: d.NumTx()}}}
	if len(f1) < 2 {
		return levels, extra
	}

	stats2 := mining.PassStats{K: 2, Generated: len(f1) * (len(f1) - 1) / 2, TxScanned: d.NumTx()}
	var cands []dataset.Itemset
	frequent := map[dataset.Item]bool{}
	for i, ci := range f1 {
		frequent[ci.Items[0]] = true
		for _, cj := range f1[i+1:] {
			a, b := ci.Items[0], cj.Items[0]
			switch {
			case h2[pairHash(a, b, buckets)] < minCount:
				stats2.PrunedHash++
				extra.BucketPruned++
			case !pruner.Allow(dataset.NewItemset(a, b)):
				stats2.Pruned++
			default:
				cands = append(cands, dataset.NewItemset(a, b))
			}
		}
	}
	stats2.Counted = len(cands)
	pairCounts := make([]int64, len(cands))
	h3 := make([]int64, buckets)
	var trimmed []dataset.Itemset
	for i := 0; i < d.NumTx(); i++ {
		tx := d.Tx(i)
		var kept dataset.Itemset
		for _, it := range tx {
			if frequent[it] {
				kept = append(kept, it)
			}
		}
		if len(kept) < 2 {
			if len(tx) > 0 {
				extra.DroppedTx++
			}
			continue
		}
		participation := map[dataset.Item]int{}
		for ci, c := range cands {
			if c.SubsetOf(kept) {
				pairCounts[ci]++
				participation[c[0]]++
				participation[c[1]]++
			}
		}
		var next dataset.Itemset
		for _, it := range kept {
			if participation[it] >= 2 {
				next = append(next, it)
			} else {
				extra.TrimmedItems++
			}
		}
		if len(next) < 3 {
			extra.DroppedTx++
			continue
		}
		trimmed = append(trimmed, next)
		for a := range next {
			for b := a + 1; b < len(next); b++ {
				for c := b + 1; c < len(next); c++ {
					h3[tripleHash(next[a], next[b], next[c], buckets)]++
				}
			}
		}
	}
	var f2 []mining.Counted
	for ci, c := range cands {
		if pairCounts[ci] >= minCount {
			f2 = append(f2, mining.Counted{Items: c, Count: pairCounts[ci]})
		}
	}
	mining.SortCounted(f2)
	stats2.Frequent = len(f2)
	levels = append(levels, mining.LevelResult{K: 2, Frequent: f2, Stats: stats2})

	prev := f2
	for k := 3; len(prev) >= 2; k++ {
		stats := mining.PassStats{K: k}
		var kc []dataset.Itemset
		level := make([]dataset.Itemset, len(prev))
		for i, c := range prev {
			level[i] = c.Items
		}
		mining.AprioriGen(level, func(x dataset.Itemset, _, _ int) {
			stats.Generated++
			switch {
			case k == 3 && h3[tripleHash(x[0], x[1], x[2], buckets)] < minCount:
				stats.PrunedHash++
				extra.BucketPruned++
			case !pruner.Allow(x):
				stats.Pruned++
			default:
				kc = append(kc, x)
			}
		})
		stats.Counted = len(kc)
		if len(kc) == 0 {
			break
		}
		stats.TxScanned = len(trimmed)
		var freq []mining.Counted
		for _, x := range kc {
			n := int64(0)
			for _, tx := range trimmed {
				if x.SubsetOf(tx) {
					n++
				}
			}
			if n >= minCount {
				freq = append(freq, mining.Counted{Items: x, Count: n})
			}
		}
		mining.SortCounted(freq)
		stats.Frequent = len(freq)
		levels = append(levels, mining.LevelResult{K: k, Frequent: freq, Stats: stats})
		prev = freq
		if len(freq) == 0 {
			break
		}
	}
	return levels, extra
}

// differentialDataset draws transactions over a pool of 14 items spread
// over [0, numItems), the highest item always among them. The first half
// of the transactions favours the first 8 pool items and the second half
// the last 8, so an OSSM over the halves rejects pairs that straddle
// them; some transactions come out empty.
func differentialDataset(t *testing.T, r *rand.Rand, numItems int) *dataset.Dataset {
	t.Helper()
	pool := []dataset.Item{dataset.Item(numItems - 1)}
	for len(pool) < min(14, numItems) {
		it := dataset.Item(r.Intn(numItems))
		fresh := true
		for _, p := range pool {
			fresh = fresh && p != it
		}
		if fresh {
			pool = append(pool, it)
		}
	}
	b := dataset.NewBuilder(numItems)
	for i := 0; i < 300; i++ {
		lo := 0
		if i >= 150 {
			lo = len(pool) - 8
		}
		var tx []dataset.Item
		for j, it := range pool {
			p := 0.03
			if j >= lo && j < lo+8 {
				// Earlier items of the half are likelier, so some sets
				// reach pass 4.
				p = 0.6 - 0.05*float64(j-lo)
			}
			if r.Float64() < p {
				tx = append(tx, it)
			}
		}
		if err := b.Append(tx); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// TestMineMatchesReference checks Mine against referenceMine on every
// level — frequent sets, their counts and every PassStats field but
// Elapsed — and on BucketPruned, TrimmedItems and DroppedTx. It covers
// 1, 2 and 4 workers, with and without an OSSM, and tables of 1, 7, 64
// and 32 768 buckets over item domains both smaller and larger than the
// table.
func TestMineMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	for _, numItems := range []int{5, 40, 40000} {
		d := differentialDataset(t, r, numItems)
		rows := dataset.PageCounts(d, dataset.PaginateN(d, 6))
		m, err := core.NewMap(rows)
		if err != nil {
			t.Fatal(err)
		}
		for _, minCount := range []int64{15, 40} {
			for _, pruner := range []*core.Pruner{nil, {Map: m, MinCount: minCount}} {
				for _, buckets := range []int{1, 7, 64, 32768} {
					wantLevels, wantExtra := referenceMine(d, minCount, buckets, pruner)
					for _, workers := range []int{1, 2, 4} {
						opts := Options{Options: mining.Options{Workers: workers}, NumBuckets: buckets}
						if pruner != nil { // a nil *Pruner would be a non-nil Filter
							opts.Pruner = pruner
						}
						res, err := Mine(d, minCount, opts)
						if err != nil {
							t.Fatal(err)
						}
						name := fmt.Sprintf("numItems=%d minCount=%d ossm=%t buckets=%d workers=%d",
							numItems, minCount, pruner != nil, buckets, workers)
						if got := *StatsOf(res); got != wantExtra {
							t.Fatalf("%s: stats %+v, reference %+v", name, got, wantExtra)
						}
						if len(res.Levels) != len(wantLevels) {
							t.Fatalf("%s: %d levels, reference %d", name, len(res.Levels), len(wantLevels))
						}
						for i, want := range wantLevels {
							got := res.Levels[i]
							got.Stats.Elapsed = 0
							if got.K != want.K || got.Stats != want.Stats {
								t.Fatalf("%s: level %d stats %+v, reference %+v", name, want.K, got.Stats, want.Stats)
							}
							if len(got.Frequent) != len(want.Frequent) {
								t.Fatalf("%s: level %d has %d frequent, reference %d", name, want.K, len(got.Frequent), len(want.Frequent))
							}
							for j, c := range want.Frequent {
								if g := got.Frequent[j]; !g.Items.Equal(c.Items) || g.Count != c.Count {
									t.Fatalf("%s: level %d set %d is %v:%d, reference %v:%d", name, want.K, j, g.Items, g.Count, c.Items, c.Count)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestPairResiduesMatchPairHash checks the division-free form of pass 1's
// hash against pairHash: per item over the whole uint32 range, and as
// pass 1's tables over every pair of a domain larger than the table.
func TestPairResiduesMatchPairHash(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, buckets := range []int{1, 2, 7, 64, 4096, 32768, 1<<20 + 7, math.MaxInt32} {
		edges := []dataset.Item{0, 1, math.MaxUint32 - 1, math.MaxUint32}
		for trial := 0; trial < 20000; trial++ {
			a, b := dataset.Item(r.Uint32()), dataset.Item(r.Uint32())
			if trial < len(edges)*len(edges) {
				a, b = edges[trial/len(edges)], edges[trial%len(edges)]
			}
			row, _ := residues(a, buckets)
			_, col := residues(b, buckets)
			if got, want := residueBucket(row, col, buckets), pairHash(a, b, buckets); got != want {
				t.Fatalf("buckets=%d: residue bucket of (%d, %d) is %d, pairHash %d", buckets, a, b, got, want)
			}
		}
	}
	for _, buckets := range []int{1, 7, 64} {
		const numItems = 200
		rowMod, colMod := pairResidues(numItems, buckets)
		for a := dataset.Item(0); a < numItems; a++ {
			for b := dataset.Item(0); b < numItems; b++ {
				if got, want := residueBucket(rowMod[a], colMod[b], buckets), pairHash(a, b, buckets); got != want {
					t.Fatalf("buckets=%d: table bucket of (%d, %d) is %d, pairHash %d", buckets, a, b, got, want)
				}
			}
		}
	}
}
