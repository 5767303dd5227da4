// Package core implements the paper's primary contribution: the Optimized
// Segment Support Map (OSSM), the segment minimization analysis
// (Section 4), and the constrained segmentation heuristics (Section 5) —
// Greedy, RC, Random, the Random-RC / Random-Greedy hybrids, the bubble
// list optimization, and the recommended recipe (Figure 7).
package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// ErrNoSegments is returned when constructing a Map from zero segments.
var ErrNoSegments = errors.New("core: OSSM needs at least one segment")

// ErrRaggedSegments is returned when segment support rows disagree on the
// item-domain size.
var ErrRaggedSegments = errors.New("core: segment support rows have differing lengths")

// Map is the optimized segment support map M_n: for each of n segments it
// stores the support of every singleton item within that segment
// (Section 3). The structure is query-independent — it is built once at
// "compile time" and serves any support threshold afterwards.
//
// Storage is one flat item-major matrix (one contiguous column of n
// cells per item, the layout both the bound loop and the candidate-2
// pair wall stream; see kernel.go) plus the per-item totals. Each cell
// is stored once.
type Map struct {
	numItems  int
	numSegs   int
	itemMajor []uint32 // [item*numSegs + segment] singleton support
	totals    []int64  // per-item global support (sum over segments)
}

// NewMap builds a Map from per-segment singleton supports. The rows are
// copied into the flat backing store, so callers remain free to reuse
// them.
func NewMap(segCounts [][]uint32) (*Map, error) {
	k, err := checkRows(segCounts)
	if err != nil {
		return nil, err
	}
	m := newMap(len(segCounts), k)
	for s, row := range segCounts {
		m.setRow(s, row)
	}
	return m.withTotals(), nil
}

// checkRows validates support rows, one per segment or page: at least
// one, all over the same item domain, whose size it returns.
func checkRows(rows [][]uint32) (int, error) {
	if len(rows) == 0 {
		return 0, ErrNoSegments
	}
	k := len(rows[0])
	for i, row := range rows {
		if len(row) != k {
			return 0, fmt.Errorf("%w: row 0 has %d items, row %d has %d", ErrRaggedSegments, k, i, len(row))
		}
	}
	return k, nil
}

// newMap allocates an all-zero numSegs × numItems Map. Constructors fill
// it with setRow and finish with withTotals.
func newMap(numSegs, numItems int) *Map {
	return &Map{
		numItems:  numItems,
		numSegs:   numSegs,
		itemMajor: make([]uint32, numSegs*numItems),
		totals:    make([]int64, numItems),
	}
}

// setRow stores segment s's support row into the item-major columns.
func (m *Map) setRow(s int, row []uint32) {
	for it, c := range row {
		m.itemMajor[it*m.numSegs+s] = c
	}
}

// withTotals derives the per-item totals from the columns.
func (m *Map) withTotals() *Map {
	ns := m.numSegs
	for it := range m.totals {
		var t int64
		for _, c := range m.itemMajor[it*ns : (it+1)*ns] {
			t += int64(c)
		}
		m.totals[it] = t
	}
	return m
}

// BuildFromPages constructs a Map directly from a dataset and a page
// assignment: assign[s] lists the pages composing segment s. It is the
// bridge between a segmentation result and a queryable OSSM. A segment
// whose support would pass 2³²−1 fails with ErrCountOverflow.
func BuildFromPages(d *dataset.Dataset, pages []dataset.Page, assign [][]int) (*Map, error) {
	if len(assign) == 0 {
		return nil, ErrNoSegments
	}
	m := newMap(len(assign), d.NumItems())
	row := make([]uint32, m.numItems)
	for s, pageIdxs := range assign {
		clear(row)
		for _, pi := range pageIdxs {
			if pi < 0 || pi >= len(pages) {
				return nil, fmt.Errorf("core: segment %d references page %d of %d", s, pi, len(pages))
			}
			p := pages[pi]
			if err := addCounts(row, d.ItemCounts(p.Lo, p.Hi)); err != nil {
				return nil, fmt.Errorf("core: segment %d: %w", s, err)
			}
		}
		m.setRow(s, row)
	}
	return m.withTotals(), nil
}

// NumSegments returns n, the number of segments.
func (m *Map) NumSegments() int { return m.numSegs }

// NumItems returns k, the size of the item domain.
func (m *Map) NumItems() int { return m.numItems }

// SegmentSupport returns sup_i({x}), the support of item x within
// segment i.
func (m *Map) SegmentSupport(i int, x dataset.Item) uint32 {
	return m.itemMajor[int(x)*m.numSegs+i]
}

// ItemSupport returns the exact global support of the singleton {x}.
// For singletons the OSSM is lossless by construction.
func (m *Map) ItemSupport(x dataset.Item) int64 { return m.totals[x] }

// UpperBound returns ubsup(X, M_n), equation (1):
//
//	Σ_{i=1..n} min_{x ∈ X} sup_i({x})
//
// The empty itemset is supported by every transaction, a count the Map
// does not record, so UpperBound panics on an empty itemset.
//
// The scan streams the members' item-major columns in parallel.
func (m *Map) UpperBound(x dataset.Itemset) int64 {
	if len(x) == 0 {
		panic("core: UpperBound of the empty itemset is not defined by the OSSM")
	}
	if len(x) == 1 {
		return m.totals[x[0]]
	}
	ns := m.numSegs
	col0 := m.itemMajor[int(x[0])*ns : int(x[0])*ns+ns]
	var total int64
	for s := 0; s < ns; s++ {
		minC := col0[s]
		for _, it := range x[1:] {
			if c := m.itemMajor[int(it)*ns+s]; c < minC {
				minC = c
			}
		}
		total += int64(minC)
	}
	return total
}

// UpperBoundPair is UpperBound for a 2-itemset {a, b}, the hot path of
// candidate-2 pruning.
func (m *Map) UpperBoundPair(a, b dataset.Item) int64 {
	ns := m.numSegs
	colA := m.itemMajor[int(a)*ns : int(a)*ns+ns]
	colB := m.itemMajor[int(b)*ns : int(b)*ns+ns]
	var total int64
	for s, ca := range colA {
		if cb := colB[s]; cb < ca {
			ca = cb
		}
		total += int64(ca)
	}
	return total
}

// SizeBytes reports the exact memory footprint of the flat store's
// backing arrays: the 4-byte item-major cells and the 8-byte per-item
// totals, 4·k·n + 8·k bytes. The cells alone are the quantity behind the
// paper's "0.2–0.3 megabyte" claims; CellBytes reports them separately.
func (m *Map) SizeBytes() int {
	return 4*len(m.itemMajor) + 8*len(m.totals)
}

// CellBytes reports the size of the segment support matrix proper
// (4 bytes per cell), the paper's accounting unit.
func (m *Map) CellBytes() int { return 4 * m.numItems * m.numSegs }

// AppendSegmentRow appends segment s's support row — sup_s({x}) for every
// item x in order — to dst and returns the extended slice. The row is
// gathered from the columns, so it is always a copy.
func (m *Map) AppendSegmentRow(dst []uint32, s int) []uint32 {
	if s < 0 || s >= m.numSegs {
		panic(fmt.Sprintf("core: segment %d outside [0, %d)", s, m.numSegs))
	}
	for it := 0; it < m.numItems; it++ {
		dst = append(dst, m.itemMajor[it*m.numSegs+s])
	}
	return dst
}

// Column returns item x's per-segment support column, a view into the
// flat item-major store. The returned slice is shared; callers must not
// mutate it.
func (m *Map) Column(x dataset.Item) []uint32 {
	lo, hi := int(x)*m.numSegs, (int(x)+1)*m.numSegs
	return m.itemMajor[lo:hi:hi]
}

// Pruner applies an OSSM to candidate filtering and keeps the counters
// every experiment in the paper reports. A nil Pruner or a Pruner with a
// nil Map admits everything (the "without OSSM" baseline). Every decision
// is the exact bound compared against MinCount.
type Pruner struct {
	Map      *Map
	MinCount int64 // absolute support threshold (count, not fraction)

	// Counters are updated atomically: miners with Workers > 1 call
	// Allow from several goroutines at once. Read them only after mining
	// returns.
	Checked int64 // candidates tested
	Pruned  int64 // candidates rejected by the bound
}

// Allow reports whether candidate x survives the OSSM bound, i.e. whether
// ubsup(x) ≥ MinCount. Candidates that fail can be discarded without
// counting; soundness follows from ubsup ≥ sup.
func (p *Pruner) Allow(x dataset.Itemset) bool {
	if p == nil || p.Map == nil {
		return true
	}
	return p.decide(p.Map.UpperBound(x))
}

// AllowPair is Allow for 2-itemsets.
func (p *Pruner) AllowPair(a, b dataset.Item) bool {
	if p == nil || p.Map == nil {
		return true
	}
	return p.decide(p.Map.UpperBoundPair(a, b))
}

// decide counts one decision on an exact bound and admits it when the
// bound reaches MinCount.
func (p *Pruner) decide(bound int64) bool {
	atomic.AddInt64(&p.Checked, 1)
	if bound >= p.MinCount {
		return true
	}
	atomic.AddInt64(&p.Pruned, 1)
	return false
}

// Reset zeroes the counters.
func (p *Pruner) Reset() {
	if p != nil {
		p.Checked, p.Pruned = 0, 0
	}
}
