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
// Storage is a flat columnar store rather than a ragged [][]uint32: the
// matrix is kept contiguously in both segment-major order (one cache-warm
// row per segment, the layout the candidate-2 pair wall streams) and
// item-major order (one contiguous column per item, the layout the
// scalar bound and the decision kernels stream), plus per-item suffix
// remainders suffix[it][s] = Σ_{t≥s} sup_t({it}) that let decision-mode
// bound calls abandon hopeless candidates before scanning every segment
// (see kernel.go).
type Map struct {
	numItems  int
	numSegs   int
	segMajor  []uint32 // [segment*numItems + item] singleton support
	itemMajor []uint32 // [item*numSegs + segment], the transposed view
	totals    []int64  // per-item global support (sum over segments)
	suffix    []int64  // [item*(numSegs+1) + s] = Σ_{t≥s} support; trailing 0
}

// NewMap builds a Map from per-segment singleton supports. The rows are
// copied into the flat backing store, so callers remain free to reuse
// them.
func NewMap(segCounts [][]uint32) (*Map, error) {
	k, err := checkRows(segCounts)
	if err != nil {
		return nil, err
	}
	flat := make([]uint32, len(segCounts)*k)
	for s, row := range segCounts {
		copy(flat[s*k:(s+1)*k], row)
	}
	return newMapFromFlat(len(segCounts), k, flat), nil
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

// newMapFromFlat assumes ownership of the segment-major cells and derives
// the transposed view, the per-item totals and the suffix remainders.
func newMapFromFlat(numSegs, numItems int, segMajor []uint32) *Map {
	m := &Map{
		numItems:  numItems,
		numSegs:   numSegs,
		segMajor:  segMajor,
		itemMajor: make([]uint32, numSegs*numItems),
		totals:    make([]int64, numItems),
		suffix:    make([]int64, numItems*(numSegs+1)),
	}
	for s := 0; s < numSegs; s++ {
		row := segMajor[s*numItems : (s+1)*numItems]
		for it, c := range row {
			m.itemMajor[it*numSegs+s] = c
			m.totals[it] += int64(c)
		}
	}
	for it := 0; it < numItems; it++ {
		col := m.itemMajor[it*numSegs : (it+1)*numSegs]
		base := it * (numSegs + 1)
		var acc int64
		for s := numSegs - 1; s >= 0; s-- {
			acc += int64(col[s])
			m.suffix[base+s] = acc
		}
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
	k := d.NumItems()
	flat := make([]uint32, len(assign)*k)
	for s, pageIdxs := range assign {
		row := flat[s*k : (s+1)*k]
		for _, pi := range pageIdxs {
			if pi < 0 || pi >= len(pages) {
				return nil, fmt.Errorf("core: segment %d references page %d of %d", s, pi, len(pages))
			}
			p := pages[pi]
			if err := addCounts(row, d.ItemCounts(p.Lo, p.Hi)); err != nil {
				return nil, fmt.Errorf("core: segment %d: %w", s, err)
			}
		}
	}
	return newMapFromFlat(len(assign), k, flat), nil
}

// NumSegments returns n, the number of segments.
func (m *Map) NumSegments() int { return m.numSegs }

// NumItems returns k, the size of the item domain.
func (m *Map) NumItems() int { return m.numItems }

// SegmentSupport returns sup_i({x}), the support of item x within
// segment i.
func (m *Map) SegmentSupport(i int, x dataset.Item) uint32 {
	return m.segMajor[i*m.numItems+int(x)]
}

// ItemSupport returns the exact global support of the singleton {x}.
// For singletons the OSSM is lossless by construction.
func (m *Map) ItemSupport(x dataset.Item) int64 { return m.totals[x] }

// Totals returns the per-item global supports. The returned slice is
// shared; callers must not mutate it.
func (m *Map) Totals() []int64 { return m.totals }

// UpperBound returns ubsup(X, M_n), equation (1):
//
//	Σ_{i=1..n} min_{x ∈ X} sup_i({x})
//
// The empty itemset is supported by every transaction, a count the Map
// does not record, so UpperBound panics on an empty itemset.
//
// The scan streams the members' item-major columns in parallel; for a
// threshold decision rather than the exact bound, BoundAtLeast is
// cheaper (it exits as soon as the answer is determined; see kernel.go).
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

// referenceUpperBound is the pre-flat-store bound loop — a walk over the
// segment-major rows exactly as the original ragged [][]uint32
// implementation performed it. It is retained unexported as the
// equivalence oracle for the kernel layer: every kernel in kernel.go must
// return bit-identical bounds (and therefore decisions) to this loop.
func (m *Map) referenceUpperBound(x dataset.Itemset) int64 {
	if len(x) == 0 {
		panic("core: UpperBound of the empty itemset is not defined by the OSSM")
	}
	if len(x) == 1 {
		return m.totals[x[0]]
	}
	var total int64
	for s := 0; s < m.numSegs; s++ {
		row := m.segMajor[s*m.numItems : (s+1)*m.numItems]
		minC := row[x[0]]
		for _, it := range x[1:] {
			if c := row[it]; c < minC {
				minC = c
			}
		}
		total += int64(minC)
	}
	return total
}

// NaiveUpperBound is the bound available *without* an OSSM: the minimum of
// the items' global supports (the "last column" bound of Example 1). It
// equals UpperBound on a single-segment map and is never tighter than a
// multi-segment bound.
func (m *Map) NaiveUpperBound(x dataset.Itemset) int64 {
	if len(x) == 0 {
		panic("core: NaiveUpperBound of the empty itemset is not defined")
	}
	minC := m.totals[x[0]]
	for _, it := range x[1:] {
		if c := m.totals[it]; c < minC {
			minC = c
		}
	}
	return minC
}

// SizeBytes reports the exact memory footprint of the flat store's
// backing arrays: both 4-byte cell matrices (segment-major and the
// transposed item-major view), the 8-byte per-item totals and the 8-byte
// suffix remainders. The segment-major cells alone are the quantity
// behind the paper's "0.2–0.3 megabyte" claims; CellBytes reports them
// separately.
func (m *Map) SizeBytes() int {
	return 4*(len(m.segMajor)+len(m.itemMajor)) + 8*(len(m.totals)+len(m.suffix))
}

// CellBytes reports the size of the segment support matrix proper
// (4 bytes per cell, one copy), the paper's accounting unit.
func (m *Map) CellBytes() int { return 4 * m.numItems * m.numSegs }

// SegmentRow returns segment i's support row, a view into the flat
// segment-major store. The returned slice is shared; callers must not
// mutate it.
func (m *Map) SegmentRow(i int) []uint32 {
	lo, hi := i*m.numItems, (i+1)*m.numItems
	return m.segMajor[lo:hi:hi]
}

// Column returns item x's per-segment support column, a view into the
// flat item-major store. The returned slice is shared; callers must not
// mutate it.
func (m *Map) Column(x dataset.Item) []uint32 {
	lo, hi := int(x)*m.numSegs, (int(x)+1)*m.numSegs
	return m.itemMajor[lo:hi:hi]
}

// Merged returns a single-segment Map carrying the same global supports —
// the degenerate M_1 whose bound is the naive bound.
func (m *Map) Merged() *Map {
	row := make([]uint32, m.numItems)
	for it, t := range m.totals {
		row[it] = uint32(t)
	}
	return newMapFromFlat(1, m.numItems, row)
}

// Pruner applies an OSSM to candidate filtering and keeps the counters
// every experiment in the paper reports. A nil Pruner or a Pruner with a
// nil Map admits everything (the "without OSSM" baseline).
type Pruner struct {
	Map      *Map
	MinCount int64 // absolute support threshold (count, not fraction)

	// Counters are updated atomically: miners with Workers > 1 call
	// Allow from several goroutines at once. Read them only after mining
	// returns.
	Checked int64 // candidates tested
	Pruned  int64 // candidates rejected by the bound
	// EarlyExit counts decision-mode bound calls that admitted their
	// candidate before scanning every segment (the accumulated partial
	// sum reached MinCount); Abandoned counts calls that rejected theirs
	// early because the suffix remainders proved MinCount unreachable.
	// Checked − EarlyExit − Abandoned bound calls paid for a full scan.
	EarlyExit int64
	Abandoned int64
}

// Allow reports whether candidate x survives the OSSM bound, i.e. whether
// ubsup(x) ≥ MinCount. Candidates that fail can be discarded without
// counting; soundness follows from ubsup ≥ sup.
func (p *Pruner) Allow(x dataset.Itemset) bool {
	if p == nil || p.Map == nil {
		return true
	}
	atomic.AddInt64(&p.Checked, 1)
	ok, outcome := p.Map.boundAtLeast(x, p.MinCount)
	p.noteOutcome(outcome)
	if !ok {
		atomic.AddInt64(&p.Pruned, 1)
		return false
	}
	return true
}

// AllowPair is Allow for 2-itemsets.
func (p *Pruner) AllowPair(a, b dataset.Item) bool {
	if p == nil || p.Map == nil {
		return true
	}
	atomic.AddInt64(&p.Checked, 1)
	ok, outcome := p.Map.boundPairAtLeast(a, b, p.MinCount)
	p.noteOutcome(outcome)
	if !ok {
		atomic.AddInt64(&p.Pruned, 1)
		return false
	}
	return true
}

func (p *Pruner) noteOutcome(o boundOutcome) {
	switch o {
	case boundEarlyExit:
		atomic.AddInt64(&p.EarlyExit, 1)
	case boundAbandoned:
		atomic.AddInt64(&p.Abandoned, 1)
	}
}

// Reset zeroes the counters.
func (p *Pruner) Reset() {
	if p != nil {
		p.Checked, p.Pruned, p.EarlyExit, p.Abandoned = 0, 0, 0, 0
	}
}
