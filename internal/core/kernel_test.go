package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// The kernel contract (DESIGN.md §7): every decision path — a Pruner's
// Allow and AllowPair, one Pruner's Allow over a whole generation or
// over the extensions of a shared prefix, and the pair wall
// BoundPairsAmong — and every bound path — UpperBound, UpperBoundPair,
// UpperBoundBatch — agrees bit-for-bit with the
// pre-flat-store reference walk referenceUpperBound. The tests below
// check that contract on randomized maps, itemsets and thresholds, and
// across all five segmentation algorithms.

// checkKernelsAgainstReference drives every decision and bound path over
// random queries against m and fails the test on the first disagreement
// with the reference oracle.
func checkKernelsAgainstReference(t *testing.T, r *rand.Rand, m *Map, trials int) {
	t.Helper()
	k := m.NumItems()
	maxT := int64(1)
	for it := 0; it < k; it++ {
		maxT = max(maxT, m.ItemSupport(dataset.Item(it)))
	}

	// Single decisions: UpperBound, UpperBoundPair, Allow and AllowPair,
	// at widths up to 5, with thresholds straddling the exact bound.
	for trial := 0; trial < trials; trial++ {
		x := randomItemsetOfLen(r, k, 1+r.Intn(minInt(5, k)))
		ref := m.referenceUpperBound(x)
		if got := m.UpperBound(x); got != ref {
			t.Fatalf("UpperBound(%v) = %d, reference %d", x, got, ref)
		}
		if len(x) == 2 {
			if got := m.UpperBoundPair(x[0], x[1]); got != ref {
				t.Fatalf("UpperBoundPair(%v) = %d, reference %d", x, got, ref)
			}
		}
		for _, minsup := range []int64{0, 1, ref - 1, ref, ref + 1, 1 + r.Int63n(maxT+1)} {
			checkAllow(t, m, x, ref, minsup)
		}
	}

	// Generations: UpperBoundBatch, and Allow through one Pruner at one
	// candidate's exact bound, the next integer and a random threshold.
	// Even trials force a uniform itemset length (up to 5), odd trials
	// mix lengths.
	for trial := 0; trial < trials; trial++ {
		n := 1 + r.Intn(40)
		cands := make([]dataset.Itemset, n)
		uniform := 0
		if trial%2 == 0 {
			uniform = 1 + r.Intn(minInt(5, k))
		}
		for i := range cands {
			if uniform > 0 {
				cands[i] = randomItemsetOfLen(r, k, uniform)
			} else {
				cands[i] = randomNonEmptyItemset(r, k)
			}
		}
		refs := make([]int64, n)
		for i, x := range cands {
			refs[i] = m.referenceUpperBound(x)
		}
		for i, b := range m.UpperBoundBatch(cands, nil) {
			if b != refs[i] {
				t.Fatalf("UpperBoundBatch[%d] = %d for %v, reference %d", i, b, cands[i], refs[i])
			}
		}
		pick := refs[r.Intn(n)]
		for _, minsup := range []int64{pick, pick + 1, 1 + r.Int63n(maxT+1)} {
			checkAllowEach(t, m, cands, refs, minsup)
		}
	}

	// Pair wall: the whole domain in ascending order on even trials,
	// random subsets in shuffled order on odd ones (pairs follow the
	// generation's positions, not the item ids), at one pair's exact
	// bound, the next integer and a random threshold.
	all := make([]dataset.Item, k)
	for i := range all {
		all[i] = dataset.Item(i)
	}
	for trial := 0; trial < trials; trial++ {
		items := all
		if trial%2 == 1 {
			items = randomItemOrder(r, k)
		}
		thresholds := []int64{1 + r.Int63n(maxT+1)}
		if len(items) >= 2 {
			ref := m.referenceUpperBound(dataset.NewItemset(items[0], items[len(items)-1]))
			thresholds = append(thresholds, ref, ref+1)
		}
		for _, minsup := range thresholds {
			checkPairWall(t, m, items, minsup)
		}
	}

	// Extensions of a shared prefix, the depth-first miners' shape.
	for trial := 0; trial < trials; trial++ {
		prefix := dataset.Itemset{}
		if r.Intn(4) > 0 {
			prefix = randomNonEmptyItemset(r, k)
		}
		var exts []dataset.Item
		for it := dataset.Item(0); int(it) < k; it++ {
			if !prefix.Contains(it) && r.Intn(2) == 0 {
				exts = append(exts, it)
			}
		}
		if len(exts) == 0 {
			continue
		}
		refs := make([]int64, len(exts))
		for e, it := range exts {
			refs[e] = m.referenceUpperBound(dataset.NewItemset(append(append([]dataset.Item{}, prefix...), it)...))
		}
		pick := refs[r.Intn(len(refs))]
		for _, minsup := range []int64{pick, pick + 1, 1 + r.Int63n(maxT+1)} {
			checkAllowEach(t, m, extensionsOf(prefix, exts), refs, minsup)
		}
	}
}

// checkAllow decides x through a fresh Pruner at minsup, by Allow and
// (for pairs) AllowPair, and checks the decisions and the counters
// against x's reference bound.
func checkAllow(t *testing.T, m *Map, x dataset.Itemset, ref, minsup int64) {
	t.Helper()
	want := ref >= minsup
	p := &Pruner{Map: m, MinCount: minsup}
	if got := p.Allow(x); got != want {
		t.Fatalf("Allow(%v) at %d = %v, reference bound %d", x, minsup, got, ref)
	}
	checkCounters(t, p, []bool{want}, "Allow")
	if len(x) == 2 {
		p := &Pruner{Map: m, MinCount: minsup}
		if got := p.AllowPair(x[0], x[1]); got != want {
			t.Fatalf("AllowPair(%v) at %d = %v, reference bound %d", x, minsup, got, ref)
		}
		checkCounters(t, p, []bool{want}, "AllowPair")
	}
}

// checkAllowEach decides every candidate through Allow on one fresh
// Pruner at minsup, as the miners do, and checks every decision and the
// accumulated counters against refs.
func checkAllowEach(t *testing.T, m *Map, cands []dataset.Itemset, refs []int64, minsup int64) {
	t.Helper()
	p := &Pruner{Map: m, MinCount: minsup}
	dec := make([]bool, len(cands))
	for i, x := range cands {
		if dec[i] = p.Allow(x); dec[i] != (refs[i] >= minsup) {
			t.Fatalf("Allow(cands[%d] = %v) = %v at %d, reference bound %d", i, x, dec[i], minsup, refs[i])
		}
	}
	checkCounters(t, p, dec, "Allow over a generation")
}

// extensionsOf lists prefix ∪ {it} for every it in exts, each with it
// appended after the prefix (so not necessarily sorted).
func extensionsOf(prefix dataset.Itemset, exts []dataset.Item) []dataset.Itemset {
	out := make([]dataset.Itemset, len(exts))
	for e, it := range exts {
		out[e] = append(prefix[:len(prefix):len(prefix)], it)
	}
	return out
}

// checkCounters verifies that a fresh Pruner counted exactly the
// decisions dec.
func checkCounters(t *testing.T, p *Pruner, dec []bool, ctx string) {
	t.Helper()
	var pruned int64
	for _, ok := range dec {
		if !ok {
			pruned++
		}
	}
	if p.Checked != int64(len(dec)) || p.Pruned != pruned {
		t.Fatalf("%s: checked %d, pruned %d; want %d, %d", ctx, p.Checked, p.Pruned, len(dec), pruned)
	}
}

// randomItemsetOfLen draws a uniformly random itemset of exactly want
// distinct items from a k-item domain.
func randomItemsetOfLen(r *rand.Rand, k, want int) dataset.Itemset {
	perm := r.Perm(k)[:want]
	items := make([]dataset.Item, want)
	for i, p := range perm {
		items[i] = dataset.Item(p)
	}
	return dataset.NewItemset(items...)
}

// randomItemOrder draws a random subset of a k-item domain, possibly
// empty, in shuffled order.
func randomItemOrder(r *rand.Rand, k int) []dataset.Item {
	perm := r.Perm(k)[:r.Intn(k+1)]
	items := make([]dataset.Item, len(perm))
	for i, p := range perm {
		items[i] = dataset.Item(p)
	}
	return items
}

// checkPairWall runs BoundPairsAmong over items and checks every
// decision against the reference bound.
func checkPairWall(t *testing.T, m *Map, items []dataset.Item, minsup int64) {
	t.Helper()
	n := len(items)
	numPairs := n * (n - 1) / 2
	dec := make([]bool, numPairs)
	m.BoundPairsAmong(items, minsup, dec)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ref := m.referenceUpperBound(dataset.NewItemset(items[i], items[j]))
			if got := dec[PairIndex(i, j, n)]; got != (ref >= minsup) {
				t.Fatalf("BoundPairsAmong pair (%d,%d) of %v = %v at %d, reference bound %d", items[i], items[j], items, got, minsup, ref)
			}
		}
	}
}

// TestKernelDifferentialAcrossSegmenters proves the equivalence
// guarantee on maps produced by all five segmentation algorithms, not
// just hand-built ones: the segmenter cannot produce a row layout the
// kernels mis-handle.
func TestKernelDifferentialAcrossSegmenters(t *testing.T) {
	algs := []Algorithm{AlgRandom, AlgRC, AlgGreedy, AlgRandomRC, AlgRandomGreedy}
	for _, alg := range algs {
		t.Run(alg.String(), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(alg) + 7))
			for rep := 0; rep < 4; rep++ {
				d := randomDataset(r)
				mPages := 1 + r.Intn(d.NumTx())
				pages := dataset.PaginateN(d, mPages)
				rows := dataset.PageCounts(d, pages)
				target := 1 + r.Intn(mPages)
				res, err := Segment(rows, Options{
					Algorithm:      alg,
					TargetSegments: target,
					MidSegments:    mPages,
					Seed:           r.Int63(),
				})
				if err != nil {
					t.Fatal(err)
				}
				checkKernelsAgainstReference(t, r, res.Map, 8)
			}
		})
	}
}

// TestKernelDifferentialProperty hits many more map shapes through
// random page→segment assignments, then one deep skewed map of 2048
// segments, far past every other differential input.
func TestKernelDifferentialProperty(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		r := rand.New(rand.NewSource(seed))
		_, m := buildRandomSegmentation(r)
		checkKernelsAgainstReference(t, r, m, 6)
	}

	// Item i's cells are drawn from [0, 200>>(i%8)], a skew that spreads
	// the bounds. At each width's median bound and the next integer as
	// the threshold, a generation splits between admissions and
	// rejections.
	const segs, k = 2048, 48
	r := rand.New(rand.NewSource(segs))
	rows := make([][]uint32, segs)
	for s := range rows {
		rows[s] = make([]uint32, k)
		for i := range rows[s] {
			rows[s][i] = uint32(r.Intn(1 + 200>>(i%8)))
		}
	}
	m, err := NewMap(rows)
	if err != nil {
		t.Fatal(err)
	}
	checkKernelsAgainstReference(t, r, m, 6)
	for width := 2; width <= 5; width++ {
		cands := make([]dataset.Itemset, 256)
		refs := make([]int64, len(cands))
		for i := range cands {
			cands[i] = randomItemsetOfLen(r, k, width)
			refs[i] = m.referenceUpperBound(cands[i])
		}
		sorted := slices.Clone(refs)
		slices.Sort(sorted)
		median := max(sorted[len(sorted)/2], 1)
		for _, minsup := range []int64{median, median + 1} {
			checkAllowEach(t, m, cands, refs, minsup)
		}
	}
}

// TestPairWallDifferential drives the segment-accumulation pair wall
// over the shapes its cost depends on: mostly-zero, half-full and fully
// dense cells, segment counts from one to several hundred (including one
// below, at and one above the gather block, pairBlock), the SegmentRange
// views shards query, and item subsets in shuffled order. Thresholds
// include a pair's exact bound and the next integer, so decisions flip
// inside every call.
func TestPairWallDifferential(t *testing.T) {
	const items = 24
	r := rand.New(rand.NewSource(13))
	for _, segs := range []int{1, 2, pairBlock - 1, pairBlock, pairBlock + 1, 31, 32, 33, 64, 400} {
		for _, density := range []float64{0.05, 0.5, 1} {
			rows := make([][]uint32, segs)
			for s := range rows {
				rows[s] = make([]uint32, items)
				for i := range rows[s] {
					if r.Float64() < density {
						rows[s][i] = 1 + uint32(r.Intn(200))
					}
				}
			}
			m, err := NewMap(rows)
			if err != nil {
				t.Fatal(err)
			}
			views := []*Map{m}
			if segs > 1 {
				lo := r.Intn(segs - 1)
				v, err := m.SegmentRange(lo, lo+1+r.Intn(segs-lo-1))
				if err != nil {
					t.Fatal(err)
				}
				views = append(views, v)
			}
			for _, v := range views {
				for trial := 0; trial < 4; trial++ {
					order := randomItemOrder(r, items)
					thresholds := []int64{0, 1, 1 + r.Int63n(200*int64(v.NumSegments())+1)}
					if len(order) >= 2 {
						ref := v.referenceUpperBound(dataset.NewItemset(order[0], order[len(order)-1]))
						thresholds = append(thresholds, ref, ref+1)
					}
					for _, minsup := range thresholds {
						checkPairWall(t, v, order, minsup)
					}
				}
			}
		}
	}
}

// TestPairWallWideBounds pins the pair wall's accumulator width on a
// hand-built map whose pair bound, 2·MaxUint32, would wrap a 32-bit sum.
func TestPairWallWideBounds(t *testing.T) {
	const max32 = math.MaxUint32
	m, err := NewMap([][]uint32{{max32, max32, 7}, {max32, max32, 0}})
	if err != nil {
		t.Fatal(err)
	}
	const bound = 2 * max32
	if ref := m.referenceUpperBound(dataset.NewItemset(0, 1)); ref != bound {
		t.Fatalf("reference bound of {0,1} = %d, want %d", ref, int64(bound))
	}
	for _, order := range [][]dataset.Item{{0, 1, 2}, {2, 1, 0}, {1, 0}} {
		for _, minsup := range []int64{1, 7, 8, max32, bound - 1, bound, bound + 1} {
			checkPairWall(t, m, order, minsup)
		}
	}
}

// deepBoundaryMap builds an 80-segment, 8-item map of small random cells
// with one cell pinned at boundary.
func deepBoundaryMap(t *testing.T, r *rand.Rand, boundary uint32) *Map {
	t.Helper()
	const segs, k = 80, 8
	rows := make([][]uint32, segs)
	for s := range rows {
		rows[s] = make([]uint32, k)
		for i := range rows[s] {
			rows[s][i] = uint32(r.Intn(120))
		}
	}
	rows[segs/2][k/2] = boundary
	m, err := NewMap(rows)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestKernelQuantizedOverflowBoundary pins exactness at the 16-bit
// quantization boundary: with one cell at 65535 or at 65536, every
// decision and batch bound stays bit-identical to the reference bound.
func TestKernelQuantizedOverflowBoundary(t *testing.T) {
	for _, tc := range []struct {
		name string
		cell uint32
	}{
		{"fits-65535", 65535},
		{"overflows-65536", 65536},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(41))
			checkKernelsAgainstReference(t, r, deepBoundaryMap(t, r, tc.cell), 10)
		})
	}
}

// TestKernelOverflowAcrossSegmenters reruns the five-segmenter
// differential on maps whose merged segments straddle the 16-bit
// boundary: one fixture with page cells ≥ 32768 (any two-page merge
// exceeds 65535) next to a small-cell control that never does. No
// segmenter can produce a row layout the kernels mis-handle on either
// side.
func TestKernelOverflowAcrossSegmenters(t *testing.T) {
	algs := []Algorithm{AlgRandom, AlgRC, AlgGreedy, AlgRandomRC, AlgRandomGreedy}
	for _, alg := range algs {
		t.Run(alg.String(), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(alg) + 101))
			const pages, k = 24, 6
			for rep, lo := range []uint32{0, 40000} {
				span := 100
				if lo > 0 {
					span = 20000
				}
				rows := make([][]uint32, pages)
				for p := range rows {
					rows[p] = make([]uint32, k)
					for i := range rows[p] {
						rows[p][i] = lo + uint32(r.Intn(span))
					}
				}
				res, err := Segment(rows, Options{
					Algorithm:      alg,
					TargetSegments: 4 + r.Intn(4),
					MidSegments:    pages,
					Seed:           r.Int63(),
				})
				if err != nil {
					t.Fatal(err)
				}
				m := res.Map
				overflow := false
				for it := 0; it < m.NumItems(); it++ {
					for _, c := range m.Column(dataset.Item(it)) {
						if c > 0xFFFF {
							overflow = true
						}
					}
				}
				if wantOverflow := rep == 1; overflow != wantOverflow {
					t.Fatalf("rep %d: cell overflow = %v, fixture expects %v", rep, overflow, wantOverflow)
				}
				checkKernelsAgainstReference(t, r, m, 6)
			}
		})
	}
}

// TestAppenderQuantizedOverflowCrossing drives the online path across
// the 16-bit boundary: with a one-segment budget every compaction merges
// all history into a single row, so once more than 65535 transactions
// carry an item the snapshot's cell exceeds 16 bits. Answers must stay
// exact on both sides, and the earlier snapshot — an independent
// immutable map — must keep its own counts.
func TestAppenderQuantizedOverflowCrossing(t *testing.T) {
	a, err := NewAppender(3, AppenderOptions{PageSize: 1000, MaxSegments: 1, Algorithm: AlgGreedy})
	if err != nil {
		t.Fatal(err)
	}
	tx := dataset.NewItemset(0, 1)
	addN := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := a.Add(tx); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap := func() *Map {
		t.Helper()
		m, err := a.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	check := func(m *Map, total int64, ctx string) {
		t.Helper()
		if got := m.UpperBound(tx); got != total {
			t.Fatalf("%s: UpperBound(%v) = %d, want %d", ctx, tx, got, total)
		}
		if p := (&Pruner{Map: m, MinCount: total}); !p.Allow(tx) {
			t.Fatalf("%s: Allow rejects %v at its exact pair support %d", ctx, tx, total)
		}
		if p := (&Pruner{Map: m, MinCount: total + 1}); p.Allow(tx) {
			t.Fatalf("%s: Allow admits %v above its exact pair support %d", ctx, tx, total)
		}
		checkKernelsAgainstReference(t, rand.New(rand.NewSource(total)), m, 4)
	}

	addN(60000)
	before := snap()
	check(before, 60000, "before crossing")

	addN(10000)
	after := snap()
	check(after, 70000, "after crossing")

	// Snapshots are independent immutable maps: the pre-crossing one
	// keeps serving its own counts.
	check(before, 60000, "earlier snapshot after later appends")
}

// referenceUpperBound is equation (1) written out cell by cell: a walk
// over the segments reading each member's support through
// SegmentSupport. It shares no loop with the kernels and is their
// equivalence oracle: every kernel in kernel.go must return
// bit-identical bounds (and therefore decisions) to this loop.
func (m *Map) referenceUpperBound(x dataset.Itemset) int64 {
	if len(x) == 0 {
		panic("core: UpperBound of the empty itemset is not defined by the OSSM")
	}
	if len(x) == 1 {
		return m.totals[x[0]]
	}
	var total int64
	for s := 0; s < m.numSegs; s++ {
		minC := m.SegmentSupport(s, x[0])
		for _, it := range x[1:] {
			if c := m.SegmentSupport(s, it); c < minC {
				minC = c
			}
		}
		total += int64(minC)
	}
	return total
}
