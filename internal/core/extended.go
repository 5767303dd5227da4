package core

import (
	"fmt"
	"sort"
	"sync/atomic"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// ExtendedMap is the generalization sketched in footnote 3 of the paper:
// in addition to singleton segment supports, it stores the *exact*
// per-segment supports of 2-itemsets over a tracked subset of items
// (typically the bubble list — the items whose candidates dominate
// counting cost). Consequences:
//
//   - for a tracked pair, the "bound" is the exact support, so the pair
//     never needs a counting pass at all;
//   - for larger itemsets, every tracked pair inside X contributes a
//     per-segment cap that is at most the singleton minimum, so the
//     bound is never looser — and usually tighter — than equation (1).
//
// Space grows by 4·n·|tracked|²/2 bytes; an ExtendedMap over a 100-item
// bubble at 40 segments adds ~0.8 MB.
type ExtendedMap struct {
	*Map
	tracked []dataset.Item       // sorted
	trIdx   map[dataset.Item]int // item → index into tracked
	pair    [][]uint32           // [segment][pairIndex] supports
}

// pairIndex maps tracked-item indexes (i < j) to a triangular offset.
func pairIndexOf(i, j, n int) int {
	return i*(2*n-i-1)/2 + (j - i - 1)
}

// BuildExtended counts, in one pass over the dataset, the per-segment
// supports of every pair of tracked items, for the segmentation given by
// pages and assign (as produced by Segment). tracked is deduplicated and
// sorted.
func BuildExtended(d *dataset.Dataset, pages []dataset.Page, assign [][]int, tracked []dataset.Item) (*ExtendedMap, error) {
	base, err := BuildFromPages(d, pages, assign)
	if err != nil {
		return nil, err
	}
	tr := append([]dataset.Item(nil), tracked...)
	sort.Slice(tr, func(i, j int) bool { return tr[i] < tr[j] })
	uniq := tr[:0]
	for i, it := range tr {
		if int(it) >= d.NumItems() {
			return nil, fmt.Errorf("core: tracked item %d outside domain of %d items", it, d.NumItems())
		}
		if i == 0 || it != uniq[len(uniq)-1] {
			uniq = append(uniq, it)
		}
	}
	tr = uniq
	n := len(tr)
	idx := make(map[dataset.Item]int, n)
	for i, it := range tr {
		idx[it] = i
	}
	nPairs := n * (n - 1) / 2
	pair := make([][]uint32, len(assign))
	scratch := make([]int, 0, 32)
	for s, pageIdxs := range assign {
		row := make([]uint32, nPairs)
		for _, pi := range pageIdxs {
			p := pages[pi]
			for t := p.Lo; t < p.Hi; t++ {
				tx := d.Tx(t)
				scratch = scratch[:0]
				for _, it := range tx {
					if ti, ok := idx[it]; ok {
						scratch = append(scratch, ti)
					}
				}
				for a := 0; a < len(scratch); a++ {
					for b := a + 1; b < len(scratch); b++ {
						row[pairIndexOf(scratch[a], scratch[b], n)]++
					}
				}
			}
		}
		pair[s] = row
	}
	return &ExtendedMap{Map: base, tracked: tr, trIdx: idx, pair: pair}, nil
}

// Tracked returns the tracked item list (shared; do not mutate).
func (e *ExtendedMap) Tracked() []dataset.Item { return e.tracked }

// SizeBytes includes the pair matrix on top of the base map: the 4-byte
// pair cells plus the per-segment row slice headers that the ragged
// [][]uint32 representation carries.
func (e *ExtendedMap) SizeBytes() int {
	n := len(e.tracked)
	const sliceHeader = 24
	return e.Map.SizeBytes() + e.NumSegments()*(4*n*(n-1)/2+sliceHeader)
}

// PairSupport returns the exact support of a tracked pair and true, or
// 0 and false if either item is untracked.
func (e *ExtendedMap) PairSupport(a, b dataset.Item) (int64, bool) {
	ia, ok := e.trIdx[a]
	if !ok {
		return 0, false
	}
	ib, ok := e.trIdx[b]
	if !ok {
		return 0, false
	}
	if ia > ib {
		ia, ib = ib, ia
	} else if ia == ib {
		return e.ItemSupport(a), true
	}
	pi := pairIndexOf(ia, ib, len(e.tracked))
	var total int64
	for _, row := range e.pair {
		total += int64(row[pi])
	}
	return total, true
}

// UpperBound tightens the base bound using tracked-pair supports: within
// each segment, the cap is the minimum over member singletons and every
// tracked member pair.
func (e *ExtendedMap) UpperBound(x dataset.Itemset) int64 {
	if len(x) == 0 {
		panic("core: UpperBound of the empty itemset is not defined by the OSSM")
	}
	if len(x) == 1 {
		return e.ItemSupport(x[0])
	}
	// Tracked indexes of the members (if ≥ 2, pairs apply).
	tis := make([]int, 0, len(x))
	for _, it := range x {
		if ti, ok := e.trIdx[it]; ok {
			tis = append(tis, ti)
		}
	}
	cols := make([][]uint32, len(x))
	for i, it := range x {
		cols[i] = e.Map.Column(it)
	}
	n := len(e.tracked)
	var total int64
	for s := 0; s < e.NumSegments(); s++ {
		cap32 := cols[0][s]
		for _, col := range cols[1:] {
			if c := col[s]; c < cap32 {
				cap32 = c
			}
		}
		if len(tis) >= 2 {
			prow := e.pair[s]
			for a := 0; a < len(tis); a++ {
				for b := a + 1; b < len(tis); b++ {
					i, j := tis[a], tis[b]
					if i > j {
						i, j = j, i
					}
					if c := prow[pairIndexOf(i, j, n)]; c < cap32 {
						cap32 = c
					}
				}
			}
		}
		total += int64(cap32)
	}
	return total
}

// Pruner derives a candidate filter backed by the extended bound.
func (e *ExtendedMap) Pruner(minCount int64) *ExtendedPruner {
	return &ExtendedPruner{Ext: e, MinCount: minCount}
}

// ExtendedPruner is the ExtendedMap counterpart of Pruner, with an extra
// counter for candidates resolved *exactly* (tracked pairs, which need
// no counting pass regardless of the bound's verdict).
type ExtendedPruner struct {
	Ext      *ExtendedMap
	MinCount int64

	// Counters are updated atomically (miners with Workers > 1 call Allow
	// concurrently); read them only after mining returns.
	Checked int64
	Pruned  int64
	Exact   int64 // tracked pairs answered without counting
}

// Allow reports whether candidate x survives the extended bound.
func (p *ExtendedPruner) Allow(x dataset.Itemset) bool {
	if p == nil || p.Ext == nil {
		return true
	}
	atomic.AddInt64(&p.Checked, 1)
	if len(x) == 2 {
		if sup, ok := p.Ext.PairSupport(x[0], x[1]); ok {
			atomic.AddInt64(&p.Exact, 1)
			if sup < p.MinCount {
				atomic.AddInt64(&p.Pruned, 1)
				return false
			}
			return true
		}
	}
	if p.Ext.UpperBound(x) < p.MinCount {
		atomic.AddInt64(&p.Pruned, 1)
		return false
	}
	return true
}
