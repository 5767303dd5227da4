package core

import (
	"sync/atomic"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// Filter is the candidate-filtering contract miners accept: given a
// candidate itemset, may it still be frequent? Both *Pruner (the plain
// OSSM bound) and *ExtendedPruner (footnote 3's generalized map)
// implement it. A nil Filter admits everything, so miners check for nil
// before calling its methods.
type Filter interface {
	Allow(x dataset.Itemset) bool
	AllowPair(a, b dataset.Item) bool
}

// BatchFilter is the optional batch contract a Filter may additionally
// satisfy: the candidate-2 wall is decided in one call, letting the
// implementation amortize its per-segment work across pairs (see
// Map.BoundPairsAmong). Decisions must be bit-identical to calling
// AllowPair per pair.
type BatchFilter interface {
	Filter
	// AllowPairsAmong writes, for every i < j, the decision for the pair
	// {items[i], items[j]} at decisions[PairIndex(i, j, len(items))].
	AllowPairsAmong(items []dataset.Item, decisions []bool)
}

// decisionsFor returns buf resized to n (reallocating only when too
// small) with every slot admitted.
func decisionsFor(buf []bool, n int) []bool {
	if cap(buf) < n {
		buf = make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = true
	}
	return buf
}

// AdmitPairsAmong decides every pair {items[i], items[j]}, i < j, in the
// order a nested i-outer/j-inner loop visits them (PairIndex gives the
// mapping). buf is an optional reusable decision buffer; the filled
// slice, of length len(items)·(len(items)−1)/2, is returned.
func AdmitPairsAmong(f Filter, items []dataset.Item, buf []bool) []bool {
	n := len(items)
	decisions := decisionsFor(buf, n*(n-1)/2)
	if f == nil {
		return decisions
	}
	if bf, ok := f.(BatchFilter); ok {
		bf.AllowPairsAmong(items, decisions)
		return decisions
	}
	idx := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			decisions[idx] = f.AllowPair(items[i], items[j])
			idx++
		}
	}
	return decisions
}

// KernelCounters is a snapshot of a filter's decision counters.
// EarlyExit and Abandoned are always 0: every decision scans the whole
// bound loop. They remain only because the benchmark harness still reads
// them.
type KernelCounters struct {
	Checked   int64
	Pruned    int64
	EarlyExit int64
	Abandoned int64
}

// KernelReporter is implemented by filters that expose kernel counters
// (notably *Pruner).
type KernelReporter interface {
	KernelCounters() KernelCounters
}

// KernelCountersOf snapshots f's kernel counters, reporting false when f
// does not expose any. The snapshot uses atomic loads and is safe to take
// while miners are still running.
func KernelCountersOf(f Filter) (KernelCounters, bool) {
	kr, ok := f.(KernelReporter)
	if !ok || kr == nil {
		return KernelCounters{}, false
	}
	return kr.KernelCounters(), true
}

// KernelCounters snapshots the pruner's counters atomically.
func (p *Pruner) KernelCounters() KernelCounters {
	if p == nil {
		return KernelCounters{}
	}
	return KernelCounters{
		Checked: atomic.LoadInt64(&p.Checked),
		Pruned:  atomic.LoadInt64(&p.Pruned),
	}
}

// AllowPairsAmong implements BatchFilter through the pair wall,
// BoundPairsAmong.
func (p *Pruner) AllowPairsAmong(items []dataset.Item, decisions []bool) {
	n := len(items) * (len(items) - 1) / 2
	if p == nil || p.Map == nil {
		for i := range decisions {
			decisions[i] = true
		}
		return
	}
	p.Map.BoundPairsAmong(items, p.MinCount, decisions)
	var pruned int64
	for _, ok := range decisions[:n] {
		if !ok {
			pruned++
		}
	}
	atomic.AddInt64(&p.Checked, int64(n))
	atomic.AddInt64(&p.Pruned, pruned)
}

// AllowPair is the 2-itemset fast path of the extended pruner: tracked
// pairs are answered exactly, others fall back to the extended bound.
func (p *ExtendedPruner) AllowPair(a, b dataset.Item) bool {
	if p == nil || p.Ext == nil {
		return true
	}
	atomic.AddInt64(&p.Checked, 1)
	if sup, ok := p.Ext.PairSupport(a, b); ok {
		atomic.AddInt64(&p.Exact, 1)
		if sup < p.MinCount {
			atomic.AddInt64(&p.Pruned, 1)
			return false
		}
		return true
	}
	if p.Ext.UpperBoundPair(a, b) < p.MinCount {
		atomic.AddInt64(&p.Pruned, 1)
		return false
	}
	return true
}
