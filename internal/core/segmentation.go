package core

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// ErrCountOverflow is returned when merging segments would push a
// segment support cell past 2³²−1. A wrapped cell would under-state
// ubsup, so segmentation refuses instead.
var ErrCountOverflow = errors.New("core: merged segment support overflows uint32")

// Algorithm selects a constrained-segmentation heuristic (Section 5.2,
// 5.4).
type Algorithm int

const (
	// AlgRandom arbitrarily partitions pages into segments in O(m) — the
	// construction of the precursor SSM structure: near-equal contiguous
	// runs in file order, no optimization.
	AlgRandom Algorithm = iota
	// AlgRC (Random-Closest) repeatedly picks a random segment and merges
	// it with the segment of minimum sumdiff. O(m²·k log k): each
	// sumdiff sorts one merged row (see sumdiff.go).
	AlgRC
	// AlgGreedy repeatedly merges the globally cheapest pair of segments,
	// maintained in a priority queue. O(m²·k log k + m²·log m).
	AlgGreedy
	// AlgRandomRC runs Random down to MidSegments, then RC to the target.
	AlgRandomRC
	// AlgRandomGreedy runs Random down to MidSegments, then Greedy.
	AlgRandomGreedy
)

// String names the algorithm as the paper does.
func (a Algorithm) String() string {
	switch a {
	case AlgRandom:
		return "Random"
	case AlgRC:
		return "RC"
	case AlgGreedy:
		return "Greedy"
	case AlgRandomRC:
		return "Random-RC"
	case AlgRandomGreedy:
		return "Random-Greedy"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Options configures Segment.
type Options struct {
	Algorithm      Algorithm
	TargetSegments int // n_user: the number of segments to produce
	// MidSegments is n_mid for the hybrid strategies: the Random phase
	// first reduces the pages to MidSegments segments (must satisfy
	// TargetSegments ≤ MidSegments). Ignored by the pure strategies.
	MidSegments int
	// Bubble restricts the sumdiff summation to these items
	// (Section 5.3). nil means all items.
	Bubble []dataset.Item
	// Seed drives the randomized algorithms; a fixed seed reproduces the
	// segmentation exactly.
	Seed int64
}

// Result is the outcome of a segmentation run.
type Result struct {
	Map        *Map
	Assignment [][]int       // Assignment[s] lists the input pages composing segment s
	Elapsed    time.Duration // wall-clock segmentation time ("compile-time" cost)
}

// segment is the working state of one segment during merging.
type segment struct {
	counts []uint32
	p      uint64 // P(counts) over the sumdiff items; maintained by the RC and Greedy loops
	pages  []int
	alive  bool
	ver    int // bumped on every merge; stale heap entries detect this
}

// Segment runs the configured heuristic over the initial per-page support
// rows and returns the resulting OSSM. rows[i] is the singleton support
// row of page i (see dataset.PageCounts). Rows are not mutated. A merge
// that would overflow a uint32 cell fails with ErrCountOverflow.
func Segment(rows [][]uint32, opts Options) (*Result, error) {
	k, err := checkRows(rows)
	if err != nil {
		return nil, err
	}
	if opts.TargetSegments < 1 {
		return nil, fmt.Errorf("core: TargetSegments must be ≥ 1, got %d", opts.TargetSegments)
	}
	target := opts.TargetSegments
	if target > len(rows) {
		target = len(rows)
	}
	if hybrid(opts.Algorithm) && opts.MidSegments < target {
		return nil, fmt.Errorf("core: MidSegments (%d) must be ≥ TargetSegments (%d) for %s", opts.MidSegments, target, opts.Algorithm)
	}
	items := opts.Bubble
	if items == nil {
		items = AllItems(k)
	}

	start := time.Now()
	segs := makeSegments(rows)
	if err := merge(segs, opts, target, items, nil); err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	var segCounts [][]uint32
	var assign [][]int
	for _, s := range segs {
		if s.alive {
			segCounts = append(segCounts, s.counts)
			assign = append(assign, s.pages)
		}
	}
	m, err := NewMap(segCounts)
	if err != nil {
		return nil, err
	}
	return &Result{Map: m, Assignment: assign, Elapsed: elapsed}, nil
}

func hybrid(alg Algorithm) bool { return alg == AlgRandomRC || alg == AlgRandomGreedy }

// merge runs opts.Algorithm over segs until target segments remain. The
// hybrids first reduce to opts.MidSegments with Random. after, when set,
// sees the live count once before the sumdiff-driven phase and after
// each of its merges (SegmentSweep snapshots through it).
func merge(segs []*segment, opts Options, target int, items []dataset.Item, after func(live int)) error {
	switch opts.Algorithm {
	case AlgRandom:
		return randomMerge(segs, target)
	case AlgRandomRC, AlgRandomGreedy:
		if err := randomMerge(segs, opts.MidSegments); err != nil {
			return err
		}
	case AlgRC, AlgGreedy:
	default:
		return fmt.Errorf("core: unknown algorithm %v", opts.Algorithm)
	}
	if after != nil {
		after(countAlive(segs))
	}
	if opts.Algorithm == AlgRC || opts.Algorithm == AlgRandomRC {
		return rcMerge(rand.New(rand.NewSource(opts.Seed)), segs, target, items, after)
	}
	return greedyMerge(segs, target, items, after)
}

func makeSegments(rows [][]uint32) []*segment {
	segs := make([]*segment, len(rows))
	for i, row := range rows {
		cp := make([]uint32, len(row))
		copy(cp, row)
		segs[i] = &segment{counts: cp, pages: []int{i}, alive: true}
	}
	return segs
}

func countAlive(segs []*segment) int {
	n := 0
	for _, s := range segs {
		if s.alive {
			n++
		}
	}
	return n
}

// mergeInto folds segment b into segment a; b dies. It fails with
// ErrCountOverflow, leaving a's counts partly summed, if a cell would
// pass 2³²−1; callers give the segmentation up then.
func mergeInto(a, b *segment) error {
	if err := addCounts(a.counts, b.counts); err != nil {
		return err
	}
	a.pages = append(a.pages, b.pages...)
	a.ver++
	b.alive = false
	b.ver++
	return nil
}

// addCounts adds src into dst cell by cell, failing with
// ErrCountOverflow at the first cell that would wrap.
func addCounts(dst, src []uint32) error {
	for i, c := range src {
		dst[i] += c
		if dst[i] < c {
			return fmt.Errorf("%w: item %d", ErrCountOverflow, i)
		}
	}
	return nil
}

// mergeCosted is mergeInto for the sumdiff-driven loops: it also
// refreshes the surviving segment's cached P.
func mergeCosted(pm *pairMins, a, b *segment) error {
	if err := mergeInto(a, b); err != nil {
		return err
	}
	a.p = pm.row(a.counts)
	return nil
}

// costed returns the live segments with their P over the sumdiff items
// computed, and the evaluator that keeps them current.
func costed(segs []*segment, items []dataset.Item) ([]*segment, *pairMins) {
	pm := newPairMins(items)
	live := make([]*segment, 0, len(segs))
	for _, s := range segs {
		if s.alive {
			s.p = pm.row(s.counts)
			live = append(live, s)
		}
	}
	return live, pm
}

// randomMerge reduces the live segments to target by "arbitrary"
// grouping, as the paper's Random algorithm (and the precursor SSM
// construction) does: pages are folded into near-equal contiguous runs in
// file order, the partition a single sequential scan produces with no
// optimization effort. Contiguity is what lets Random suffice on skewed
// ("seasonal") data — the recipe of Figure 7 depends on it: temporal
// drift maps to distinct segments by construction. O(m).
func randomMerge(segs []*segment, target int) error {
	live := make([]*segment, 0, len(segs))
	for _, s := range segs {
		if s.alive {
			live = append(live, s)
		}
	}
	if len(live) <= target {
		return nil
	}
	base, rem := len(live)/target, len(live)%target
	idx := 0
	for g := 0; g < target; g++ {
		size := base
		if g < rem {
			size++
		}
		head := live[idx]
		for i := 1; i < size; i++ {
			if err := mergeInto(head, live[idx+i]); err != nil {
				return err
			}
		}
		idx += size
	}
	return nil
}

// rcMerge is the RC algorithm (Figure 3): until target segments remain,
// pick a random live segment and merge it with the live segment of
// minimum sumdiff, ties going to the lowest index. after, when set, runs
// after every merge (SegmentSweep snapshots intermediate segment counts
// through it).
func rcMerge(r *rand.Rand, segs []*segment, target int, items []dataset.Item, after func(live int)) error {
	live, pm := costed(segs, items)
	for len(live) > target {
		i := r.Intn(len(live))
		s1 := live[i]
		bestJ := -1
		var bestCost int64
		for j, s := range live {
			if j == i {
				continue
			}
			if cost := pm.cost(s1, s); bestJ < 0 || cost < bestCost {
				bestJ, bestCost = j, cost
			}
		}
		if err := mergeCosted(pm, s1, live[bestJ]); err != nil {
			return err
		}
		live[bestJ] = live[len(live)-1]
		live = live[:len(live)-1]
		if after != nil {
			after(len(live))
		}
	}
	return nil
}

// pairEntry is a candidate merge in Greedy's priority queue. verA/verB
// pin the segment versions the cost was computed against; a mismatch at
// pop time marks the entry stale (lazy deletion).
type pairEntry struct {
	cost       int64
	a, b       int // indices into the live segments
	verA, verB int
}

type pairHeap []pairEntry

func (h pairHeap) Len() int            { return len(h) }
func (h pairHeap) Less(i, j int) bool  { return h[i].cost < h[j].cost }
func (h pairHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pairHeap) Push(x interface{}) { *h = append(*h, x.(pairEntry)) }
func (h *pairHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// greedyMerge is the Greedy algorithm (Figure 2): a priority queue holds
// the sumdiff of every pair of live segments; the cheapest valid pair is
// merged, its stale entries lazily discarded, and the merged segment's
// pairs with all remaining segments are inserted. after, when set, runs
// after every merge.
func greedyMerge(segs []*segment, target int, items []dataset.Item, after func(live int)) error {
	live, pm := costed(segs, items)
	n := len(live)
	if n <= target {
		return nil
	}
	h := make(pairHeap, 0, n*(n-1)/2)
	for x := 0; x < n; x++ {
		for y := x + 1; y < n; y++ {
			h = append(h, pairEntry{cost: pm.cost(live[x], live[y]), a: x, b: y, verA: live[x].ver, verB: live[y].ver})
		}
	}
	heap.Init(&h)
	remaining := n
	for remaining > target {
		var e pairEntry
		for {
			e = heap.Pop(&h).(pairEntry)
			if live[e.a].alive && live[e.b].alive &&
				live[e.a].ver == e.verA && live[e.b].ver == e.verB {
				break
			}
		}
		a := live[e.a]
		if err := mergeCosted(pm, a, live[e.b]); err != nil {
			return err
		}
		remaining--
		if after != nil {
			after(remaining)
		}
		if remaining <= target {
			break
		}
		for i, s := range live {
			if i == e.a || !s.alive {
				continue
			}
			heap.Push(&h, pairEntry{cost: pm.cost(a, s), a: e.a, b: i, verA: a.ver, verB: s.ver})
		}
	}
	return nil
}
